package security

import (
	"crypto/ed25519"
	"errors"
	"testing"

	"platoonsec/internal/message"
	"platoonsec/internal/obs"
	"platoonsec/internal/sim"
)

// memoKeys derives n deterministic signing keys.
func memoKeys(n int, seed int64) []ed25519.PrivateKey {
	rng := sim.NewStream(seed, "memo-keys")
	keys := make([]ed25519.PrivateKey, n)
	for i := range keys {
		s := make([]byte, ed25519.SeedSize)
		rng.Bytes(s)
		keys[i] = ed25519.NewKeyFromSeed(s)
	}
	return keys
}

func pubOf(k ed25519.PrivateKey) ed25519.PublicKey { return k.Public().(ed25519.PublicKey) }

func flipped(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x01
	return c
}

// TestVerdictMemoMatchesEd25519 is the oracle test: random triples,
// valid and corrupted, asked twice each and interleaved so entries are
// both hit and evicted, give exactly ed25519.Verify's verdict.
func TestVerdictMemoMatchesEd25519(t *testing.T) {
	keys := memoKeys(4, 1)
	rng := sim.NewStream(2, "memo-oracle")
	var m verdictMemo
	type triple struct{ pub, msg, sig []byte }
	var triples []triple
	for i := 0; i < 600; i++ {
		k := keys[rng.Intn(len(keys))]
		msg := make([]byte, rng.Intn(200))
		rng.Bytes(msg)
		tr := triple{pub: pubOf(k), msg: msg, sig: ed25519.Sign(k, msg)}
		switch rng.Intn(4) {
		case 0: // wrong key
			tr.pub = pubOf(keys[(rng.Intn(len(keys)-1)+1+i)%len(keys)])
		case 1: // corrupted message, signature or key byte
			switch which := rng.Intn(3); {
			case which == 0 && len(tr.msg) > 0:
				tr.msg = flipped(tr.msg, rng.Intn(len(tr.msg)))
			case which == 1:
				tr.sig = flipped(tr.sig, rng.Intn(len(tr.sig)))
			default:
				tr.pub = flipped(tr.pub, rng.Intn(len(tr.pub)))
			}
		}
		triples = append(triples, tr)
	}
	for pass := 0; pass < 2; pass++ {
		for i, tr := range triples {
			want := ed25519.Verify(tr.pub, tr.msg, tr.sig)
			if got, hit := m.verify(tr.pub, tr.msg, tr.sig); got != want || (hit && !want) {
				t.Fatalf("pass %d triple %d: memo = (%v, hit %v), ed25519 = %v", pass, i, got, hit, want)
			}
		}
	}
}

// TestVerdictMemoFlipAnyByteMisses flips every byte of the signed
// bytes, the signature and the key of a memoised triple: each variant
// misses the memo and is rejected.
func TestVerdictMemoFlipAnyByteMisses(t *testing.T) {
	k := memoKeys(1, 3)[0]
	pub := pubOf(k)
	msg := []byte("signed beacon image under test")
	sig := ed25519.Sign(k, msg)
	var m verdictMemo
	if ok, _ := m.verify(pub, msg, sig); !ok {
		t.Fatal("valid triple rejected")
	}
	if ok, hit := m.verify(pub, msg, sig); !ok || !hit {
		t.Fatalf("repeat of a verified triple = (%v, hit %v), want a memo hit", ok, hit)
	}
	check := func(what string, pub, msg, sig []byte) {
		t.Helper()
		if ok, hit := m.verify(pub, msg, sig); ok || hit {
			t.Fatalf("%s: (%v, hit %v), want a rejected miss", what, ok, hit)
		}
	}
	for i := range msg {
		check("msg byte", pub, flipped(msg, i), sig)
	}
	for i := range sig {
		check("sig byte", pub, msg, flipped(sig, i))
	}
	for i := range pub {
		check("key byte", flipped(pub, i), msg, sig)
	}
	check("truncated msg", pub, msg[:len(msg)-1], sig)
	check("extended msg", pub, append(append([]byte(nil), msg...), 0), sig)
	check("short sig", pub, msg, sig[:ed25519.SignatureSize-1])
}

// TestVerdictMemoBounded shows the memo has a fixed number of slots and
// stops allocating once they have grown: more distinct frames evict
// entries rather than add them.
func TestVerdictMemoBounded(t *testing.T) {
	k := memoKeys(1, 4)[0]
	pub := pubOf(k)
	const frames = 4 * verdictSlots
	msgs := make([][]byte, frames)
	sigs := make([][]byte, frames)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8), 1, 2, 3, 4, 5, 6, 7, 8}
		sigs[i] = ed25519.Sign(k, msgs[i])
	}
	var m verdictMemo
	retained := func() (entries, maxCap int) {
		for _, e := range m.slots {
			if e != nil {
				entries++
				maxCap = max(maxCap, cap(e))
			}
		}
		return entries, maxCap
	}
	for i := range msgs[:3*verdictSlots] {
		m.verify(pub, msgs[i], sigs[i])
	}
	_, warmCap := retained()
	i := 3 * verdictSlots
	allocs := testing.AllocsPerRun(verdictSlots-1, func() {
		m.verify(pub, msgs[i], sigs[i])
		i++
	})
	entries, maxCap := retained()
	if entries > verdictSlots {
		t.Fatalf("memo holds %d entries, more than its %d slots", entries, verdictSlots)
	}
	if maxCap != warmCap {
		t.Fatalf("an entry grew from %d to %d bytes with same-size frames", warmCap, maxCap)
	}
	if allocs != 0 {
		t.Fatalf("warm memo allocates %.1f times per new frame", allocs)
	}
}

// TestCertMemoOnePerSerial pins the certificate memo's bound: it holds
// one entry per serial the CA signed, however often each is checked.
func TestCertMemoOnePerSerial(t *testing.T) {
	ca, rng := newTestCA(t)
	var ids []*Identity
	for v := uint32(1); v <= 5; v++ {
		id, _ := ca.Issue(v, 0, 100*sim.Second, rng)
		ids = append(ids, id)
	}
	for r := 0; r < 3; r++ {
		for _, id := range ids {
			if err := ca.Verify(id.Cert, sim.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	forged := *ids[0].Cert
	forged.VehicleID = 99
	if err := ca.Verify(&forged, sim.Second); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("forged certificate: %v", err)
	}
	if len(ca.certMemo) != len(ids) {
		t.Fatalf("cert memo holds %d entries for %d issued serials", len(ca.certMemo), len(ids))
	}
}

// TestCertMemoForgedSerialCannotBorrow: certificates that reuse a
// memoised serial but differ in any byte — a swapped key, a widened
// window, another vehicle's signature, bytes shifted between the key
// and the signature — run ed25519 and fail.
func TestCertMemoForgedSerialCannotBorrow(t *testing.T) {
	ca, rng := newTestCA(t)
	a, _ := ca.Issue(7, 0, 100*sim.Second, rng)
	b, _ := ca.Issue(8, 0, 100*sim.Second, rng)
	if err := ca.Verify(a.Cert, sim.Second); err != nil {
		t.Fatal(err)
	}
	forgeries := map[string]func(c *Certificate){
		"other key":       func(c *Certificate) { c.PublicKey = b.Cert.PublicKey },
		"wider window":    func(c *Certificate) { c.NotAfter = 1 << 62 },
		"other signature": func(c *Certificate) { c.CASig = b.Cert.CASig },
		"shifted bytes": func(c *Certificate) {
			c.PublicKey = append(append(ed25519.PublicKey(nil), c.PublicKey...), c.CASig[0])
			c.CASig = c.CASig[1:]
		},
	}
	for name, forge := range forgeries {
		c := *a.Cert
		forge(&c)
		if err := ca.Verify(&c, sim.Second); !errors.Is(err, ErrBadCertSignature) {
			t.Errorf("%s: %v, want ErrBadCertSignature", name, err)
		}
	}
}

// TestVerifyForgedSerialCannotBorrowVerdict: a frame that verified
// under one certificate, re-sent claiming another certificate's serial
// (and its vehicle), is rejected even though its signature bytes are
// in the verdict memo.
func TestVerifyForgedSerialCannotBorrowVerdict(t *testing.T) {
	ca, rng := newTestCA(t)
	a, _ := ca.Issue(7, 0, 100*sim.Second, rng)
	b, _ := ca.Issue(8, 0, 100*sim.Second, rng)
	env := NewSigner(a).Seal(beaconPayload(7, 1, 0))
	if _, err := NewVerifier(ca, nil).Verify(env, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	forged := *env
	forged.CertSerial = b.Cert.Serial
	forged.SenderID = b.Cert.VehicleID
	if _, err := NewVerifier(ca, nil).Verify(&forged, sim.Millisecond); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("borrowed serial: %v, want ErrBadSignature", err)
	}
}

// TestVerifyFlipAnyEnvelopeByteRejected flips every byte of a memoised
// envelope's claimed sender, serial, payload and signature: every
// variant is rejected by a fresh receiver sharing the CA.
func TestVerifyFlipAnyEnvelopeByteRejected(t *testing.T) {
	ca, rng := newTestCA(t)
	id, _ := ca.Issue(7, 0, 100*sim.Second, rng)
	env := NewSigner(id).Seal(beaconPayload(7, 1, 0))
	if _, err := NewVerifier(ca, nil).Verify(env, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	image := env.Marshal()
	for i := range image {
		if i >= 9 && i < 11 || i >= 11+len(env.Payload) && i < 13+len(env.Payload) {
			continue // length prefixes: covered by decoder tests, not the signature
		}
		mut := &message.Envelope{}
		if err := message.DecodeEnvelope(flipped(image, i), mut); err != nil {
			continue // the version byte: never reaches Verify
		}
		if _, err := NewVerifier(ca, nil).Verify(mut, sim.Millisecond); err == nil {
			t.Fatalf("envelope byte %d flipped: accepted", i)
		}
	}
}

// TestVerifyRevokedAndExpiredAfterMemo: a certificate whose CA
// signature is memoised is still rejected once revoked, and once its
// validity window has passed.
func TestVerifyRevokedAndExpiredAfterMemo(t *testing.T) {
	ca, rng := newTestCA(t)
	a, _ := ca.Issue(7, 0, 10*sim.Second, rng)
	b, _ := ca.Issue(8, 0, 100*sim.Second, rng)
	v := NewVerifier(ca, nil)
	for _, id := range []*Identity{a, b} {
		env := NewSigner(id).Seal(beaconPayload(id.Cert.VehicleID, 1, 0))
		if _, err := v.Verify(env, sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	late := NewSigner(a).Seal(beaconPayload(7, 2, 0))
	if _, err := v.Verify(late, 11*sim.Second); !errors.Is(err, ErrCertExpired) {
		t.Fatalf("expired: %v", err)
	}
	ca.RevokeVehicle(8)
	env := NewSigner(b).Seal(beaconPayload(8, 2, 0))
	if _, err := v.Verify(env, 2*sim.Second); !errors.Is(err, ErrCertRevoked) {
		t.Fatalf("revoked mid-run: %v", err)
	}
}

// TestVerifyCounters checks the security.* counters: a replayed frame
// hits the verdict memo and is still rejected as stale, and each
// rejection lands under its reason.
func TestVerifyCounters(t *testing.T) {
	ca, rng := newTestCA(t)
	rec := obs.NewFlightRecorder(obs.Config{})
	ca.SetRecorder(rec)
	id, _ := ca.Issue(7, 0, 100*sim.Second, rng)
	attacker, _ := ca.Issue(66, 0, 100*sim.Second, rng)
	env := NewSigner(id).Seal(beaconPayload(7, 1, sim.Second))

	rx1 := NewVerifier(ca, NewReplayGuard(sim.Second))
	rx2 := NewVerifier(ca, NewReplayGuard(sim.Second))
	if _, err := rx1.Verify(env, sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rx2.Verify(env, sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rx1.Verify(env, sim.Second+sim.Millisecond); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
	if _, err := rx1.Verify(&message.Envelope{SenderID: 7, Payload: env.Payload}, sim.Second); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("unsigned: %v", err)
	}
	if _, err := rx1.Verify(NewSigner(attacker).SealAs(7, beaconPayload(7, 9, sim.Second)), sim.Second); !errors.Is(err, ErrSenderMismatch) {
		t.Fatalf("impersonation: %v", err)
	}

	got := rec.Metrics().Snapshot().Counters
	want := map[string]uint64{
		"security.verify":                 5,
		"security.cert_memo_hits":         2, // the first check of each certificate misses
		"security.verdict_memo_hits":      2,
		"security.reject.replay":          1,
		"security.reject.unsigned":        1,
		"security.reject.sender_mismatch": 1,
		"security.reject.bad_signature":   0,
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s = %d, want %d", name, got[name], n)
		}
	}
}

// TestVerifyRejectsMalformedPayload: a correctly signed frame whose
// payload is a truncated beacon passes the signature check, then fails
// the replay guard's freshness read, and is counted once as malformed.
func TestVerifyRejectsMalformedPayload(t *testing.T) {
	ca, rng := newTestCA(t)
	rec := obs.NewFlightRecorder(obs.Config{})
	ca.SetRecorder(rec)
	id, _ := ca.Issue(7, 0, 100*sim.Second, rng)
	payload := beaconPayload(7, 1, sim.Second)
	env := NewSigner(id).Seal(payload[:len(payload)-1])
	if _, err := NewVerifier(ca, NewReplayGuard(sim.Second)).Verify(env, sim.Second); !errors.Is(err, message.ErrShortBuffer) {
		t.Fatalf("truncated beacon: %v, want ErrShortBuffer", err)
	}
	got := rec.Metrics().Snapshot().Counters
	if got["security.reject.malformed"] != 1 || got["security.reject.bad_signature"] != 0 {
		t.Fatalf("reject.malformed = %d, reject.bad_signature = %d, want 1 and 0",
			got["security.reject.malformed"], got["security.reject.bad_signature"])
	}
}

// TestVerifySteadyStateAllocs pins the steady-state Verify path at zero
// allocations, with observability off and on: a fan-out of receivers
// verifying a stream of fresh frames.
func TestVerifySteadyStateAllocs(t *testing.T) {
	for _, observe := range []bool{false, true} {
		ca, rng := newTestCA(t)
		if observe {
			ca.SetRecorder(obs.NewFlightRecorder(obs.Config{}))
		}
		id, _ := ca.Issue(7, 0, 1<<62, rng)
		signer := NewSigner(id)
		const frames, fanout = 400, 7
		envs := make([]*message.Envelope, frames)
		for i := range envs {
			envs[i] = signer.Seal(beaconPayload(7, uint32(i+1), sim.Time(i)*sim.Millisecond))
		}
		rx := make([]*Verifier, fanout)
		for i := range rx {
			rx[i] = NewVerifier(ca, NewReplayGuard(sim.Second))
		}
		f := 0
		step := func() {
			now := sim.Time(f) * sim.Millisecond
			for _, v := range rx {
				if _, err := v.Verify(envs[f], now); err != nil {
					t.Fatal(err)
				}
			}
			f++
		}
		for f < verdictSlots {
			step() // grow scratch, memo slots and replay maps
		}
		if allocs := testing.AllocsPerRun(frames-verdictSlots-1, step); allocs != 0 {
			t.Errorf("observe=%v: %.1f allocations per frame fan-out, want 0", observe, allocs)
		}
	}
}

// TestVerifyRejectsNilAndEmptySig: the two unsigned forms DecodeEnvelope
// produces (nil into a fresh envelope, empty into reused scratch) are
// both rejected as unsigned.
func TestVerifyRejectsNilAndEmptySig(t *testing.T) {
	ca, _ := newTestCA(t)
	v := NewVerifier(ca, nil)
	for _, sig := range [][]byte{nil, {}} {
		env := &message.Envelope{SenderID: 7, CertSerial: 1, Payload: beaconPayload(7, 1, 0), Sig: sig}
		if _, err := v.Verify(env, 0); !errors.Is(err, ErrUnsigned) {
			t.Fatalf("Sig %#v: %v, want ErrUnsigned", sig, err)
		}
	}
}
