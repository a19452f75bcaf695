package security

import (
	"testing"

	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

func benchIdentity(b *testing.B) (*CA, *Identity) {
	b.Helper()
	rng := sim.NewStream(1, "bench")
	ca, err := NewCA(rng)
	if err != nil {
		b.Fatal(err)
	}
	id, err := ca.Issue(7, 0, 1<<62, rng)
	if err != nil {
		b.Fatal(err)
	}
	return ca, id
}

func BenchmarkSeal(b *testing.B) {
	_, id := benchIdentity(b)
	signer := NewSigner(id)
	payload := (&message.Beacon{VehicleID: 7, Seq: 1}).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env := signer.Seal(payload); len(env.Sig) == 0 {
			b.Fatal("unsigned")
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	ca, id := benchIdentity(b)
	env := NewSigner(id).Seal((&message.Beacon{VehicleID: 7, Seq: 1}).Marshal())
	v := NewVerifier(ca, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Verify(env, sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionSealOpen(b *testing.B) {
	k := NewSessionKey(1, sim.NewStream(1, "bench-sess"))
	var c SessionCipher
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := c.Seal(k, payload, 7, uint32(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Open(k, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayWindowAblation sweeps the replay-guard staleness
// window (DESIGN.md §4): tight windows reject legitimately delayed
// frames (false rejects under network jitter), loose windows admit
// replays. The bench reports both rates per window so the operating
// point is visible.
func BenchmarkReplayWindowAblation(b *testing.B) {
	windows := []sim.Time{
		100 * sim.Millisecond, 250 * sim.Millisecond,
		500 * sim.Millisecond, sim.Second, 2 * sim.Second,
	}
	for _, win := range windows {
		win := win
		b.Run(win.String(), func(b *testing.B) {
			var falseReject, replayAccept float64
			for i := 0; i < b.N; i++ {
				rng := NewStreamForBench(int64(i))
				g := NewReplayGuard(win)
				const n = 5000
				fr, ra := 0, 0
				var seq uint32
				for j := 0; j < n; j++ {
					seq++
					sent := sim.Time(j) * 100 * sim.Millisecond
					// Legitimate frame with heavy-tailed queueing delay.
					delay := sim.FromSeconds(rng.Exponential(0.15))
					if err := g.Check(7, seq, sent, sent+delay); err != nil {
						fr++
					}
					// Replay of a frame recorded 1 s ago (fresh seq
					// forged upward, so only the timestamp can stop it).
					if err := g.Check(8, uint32(j+1), sent-sim.Second, sent); err == nil {
						ra++
					}
				}
				falseReject = float64(fr) / n
				replayAccept = float64(ra) / n
			}
			b.ReportMetric(falseReject, "false_reject")
			b.ReportMetric(replayAccept, "replay_accept")
		})
	}
}

// NewStreamForBench exposes deterministic streams to benchmarks without
// importing internal/sim's kernel.
func NewStreamForBench(seed int64) *sim.Stream { return sim.NewStream(seed, "bench-replay") }

func BenchmarkFadingAgreement(b *testing.B) {
	f := DefaultFadingKeyAgreement()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run(sim.NewStream(int64(i), "bench-fade")); err != nil {
			b.Fatal(err)
		}
	}
}
