package message

import (
	"bytes"
	"testing"
)

// Each kind has one decoder, Decode*. The peeks read single fields
// straight from the wire on paths that must not decode the whole frame:
// PeekFreshness feeds the replay guard, PeekEnvelope labels frames.
// These fuzzers pin each peek to the decoder it shortcuts. A frame the
// two read differently is a parser disagreement an attacker can aim at:
// for PeekFreshness, a replay-guard bypass.

func FuzzPeekFreshness(f *testing.F) {
	b := Beacon{
		VehicleID: 7, PlatoonID: 1, Seq: 42, TimestampN: 123456789,
		Role: RoleLeader, Position: 1999.5, Speed: 27.5, Accel: -0.25,
		LeaderSpeed: 28, LeaderAccel: 0.5,
	}
	f.Add(b.Marshal())
	f.Add(append(b.Marshal(), 0xAA, 0xBB))
	f.Add(b.Marshal()[:beaconSize-1])
	f.Add([]byte{byte(KindManeuver)})
	f.Add([]byte{})
	f.Add((&Maneuver{Type: ManeuverSplit, Seq: 9, TimestampN: 42}).Marshal())
	roster := (&Membership{Seq: 7, TimestampN: 1_000_000, Members: []uint32{2, 3}}).Marshal()
	f.Add(roster)
	f.Add(roster[:len(roster)-1])
	f.Add((&KeyRequest{Nonce: 1<<40 | 5, TimestampN: 11}).Marshal())
	resp := (&KeyResponse{Nonce: 3, TimestampN: 12, SealedKey: []byte{1, 2, 3}}).Marshal()
	f.Add(resp)
	f.Add(resp[:len(resp)-1])
	proof := (&ContextProof{Seq: 4, TimestampN: 13, Samples: make([]ProofSample, 2)}).Marshal()
	f.Add(proof)
	f.Add(proof[:len(proof)-1])
	f.Add([]byte{byte(KindContextProof) + 1, 0, 0})

	var (
		bc Beacon
		mv Maneuver
		mb Membership
		kq KeyRequest
		kr KeyResponse
		cp ContextProof
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, seq, err := PeekFreshness(data)
		// Every decoder checks the kind byte, so at most one accepts.
		var wantTS int64
		var wantSeq uint32
		accepted := 0
		if DecodeBeacon(data, &bc) == nil {
			wantTS, wantSeq = bc.TimestampN, bc.Seq
			accepted++
		}
		if DecodeManeuver(data, &mv) == nil {
			wantTS, wantSeq = mv.TimestampN, mv.Seq
			accepted++
		}
		if DecodeMembership(data, &mb) == nil {
			wantTS, wantSeq = mb.TimestampN, mb.Seq
			accepted++
		}
		if DecodeKeyRequest(data, &kq) == nil {
			wantTS, wantSeq = kq.TimestampN, uint32(kq.Nonce)
			accepted++
		}
		if DecodeKeyResponse(data, &kr) == nil {
			wantTS, wantSeq = kr.TimestampN, uint32(kr.Nonce)
			accepted++
		}
		if DecodeContextProof(data, &cp) == nil {
			wantTS, wantSeq = cp.TimestampN, cp.Seq
			accepted++
		}
		switch {
		case accepted > 1:
			t.Fatalf("%d decoders accepted one %d-byte frame", accepted, len(data))
		case (err == nil) != (accepted == 1):
			t.Fatalf("PeekFreshness err = %v, but %d decoders accepted the %d-byte frame", err, accepted, len(data))
		case err == nil && (ts != wantTS || seq != wantSeq):
			t.Fatalf("PeekFreshness = (%d, %d), decoder = (%d, %d)", ts, seq, wantTS, wantSeq)
		}
	})
}

func FuzzPeekEnvelope(f *testing.F) {
	signed := Envelope{SenderID: 7, CertSerial: 3, Payload: []byte{byte(KindBeacon), 1, 2}, Sig: bytes.Repeat([]byte{9}, 64)}
	f.Add(signed.Marshal())
	f.Add((&Envelope{SenderID: 8, Payload: []byte{byte(KindMembership)}}).Marshal())
	f.Add((&Envelope{SenderID: 9}).Marshal())
	f.Add(signed.Marshal()[:12])
	f.Add([]byte{})
	var env Envelope
	f.Fuzz(func(t *testing.T, data []byte) {
		if DecodeEnvelope(data, &env) != nil || len(env.Payload) == 0 {
			return
		}
		sender, kind, err := PeekEnvelope(data)
		if err != nil {
			t.Fatalf("PeekEnvelope rejected a frame DecodeEnvelope accepts: %v", err)
		}
		if want, _ := env.Kind(); sender != env.SenderID || kind != want {
			t.Fatalf("PeekEnvelope = (%d, %v), DecodeEnvelope = (%d, %v)", sender, kind, env.SenderID, want)
		}
	})
}
