package platoon

import (
	"testing"
	"testing/quick"

	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// TestAgentSurvivesGarbageFrames floods an agent's receive path with
// random bytes — the "junk" a jammer or buggy station puts on the air
// (§V-B) — and requires the agent to neither panic nor act on any of
// it.
func TestAgentSurvivesGarbageFrames(t *testing.T) {
	w := newWorld(t, 30)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 3, cfg)
	if err := w.bus.Attach(700, func() float64 { return 1980 }, 20, nil); err != nil {
		t.Fatal(err)
	}
	rng := w.k.Stream("garbage")
	w.k.Every(0, 20*sim.Millisecond, "garbage", func() {
		n := 1 + rng.Intn(256)
		buf := make([]byte, n)
		rng.Bytes(buf)
		_ = w.bus.Send(700, buf)
	})
	if err := w.k.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// The platoon keeps functioning underneath the garbage.
	for i, m := range members {
		if m.Role() != message.RoleMember || m.Disbanded() {
			t.Fatalf("member %d disturbed by garbage: role=%v disbanded=%v",
				i, m.Role(), m.Disbanded())
		}
	}
	if leader.Counters().DecodeFailures == 0 && members[0].Counters().DecodeFailures == 0 {
		t.Fatal("no decode failures recorded — garbage never arrived?")
	}
}

// TestAgentSurvivesSemiValidEnvelopes wraps random bytes in VALID
// envelope framing so they reach the payload decoders.
func TestAgentSurvivesSemiValidEnvelopes(t *testing.T) {
	w := newWorld(t, 31)
	cfg := DefaultConfig()
	_, members := buildPlatoon(t, w, 3, cfg)
	if err := w.bus.Attach(700, func() float64 { return 1980 }, 20, nil); err != nil {
		t.Fatal(err)
	}
	rng := w.k.Stream("semigarbage")
	w.k.Every(0, 20*sim.Millisecond, "semigarbage", func() {
		n := 1 + rng.Intn(128)
		payload := make([]byte, n)
		rng.Bytes(payload)
		// Force a known kind byte half the time so the typed decoders
		// run against malformed bodies.
		if rng.Bernoulli(0.5) {
			payload[0] = byte(1 + rng.Intn(5))
		}
		env := &message.Envelope{SenderID: uint32(rng.Uint64()), Payload: payload}
		_ = w.bus.Send(700, env.Marshal())
	})
	if err := w.k.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Role() != message.RoleMember {
			t.Fatalf("member %d knocked out by fuzzed envelopes", i)
		}
	}
}

// TestQuickEnvelopeDecodersNeverPanic drives every payload decoder with
// arbitrary bytes.
func TestQuickEnvelopeDecodersNeverPanic(t *testing.T) {
	f := func(buf []byte) bool {
		_ = message.DecodeEnvelope(buf, &message.Envelope{})
		_ = message.DecodeBeacon(buf, &message.Beacon{})
		_ = message.DecodeManeuver(buf, &message.Maneuver{})
		_ = message.DecodeMembership(buf, &message.Membership{})
		_ = message.DecodeKeyRequest(buf, &message.KeyRequest{})
		_ = message.DecodeKeyResponse(buf, &message.KeyResponse{})
		_ = message.DecodeContextProof(buf, &message.ContextProof{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
