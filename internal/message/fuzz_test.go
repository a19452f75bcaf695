package message

// Native fuzz targets for the binary codec. Two properties per type:
//
//  1. never-panic: Decode* must return an error, never crash, on
//     arbitrary bytes — these are the first parser an attacker-supplied
//     frame meets.
//  2. wire round-trip: when a decode succeeds, re-encoding the decoded
//     value must reproduce the consumed wire bytes exactly, and
//     decoding those again must be a fixed point. Comparisons are at
//     the byte level so NaN float payloads (NaN != NaN) cannot produce
//     false alarms.
//
// Each target decodes into one scratch value reused across inputs, as
// receivers do, so a field left over from an earlier frame shows up as
// a round-trip difference. Seed corpus lives under testdata/fuzz/ so
// `go test` always exercises the interesting shapes (valid frames,
// truncations, wrong kinds) even without -fuzz.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func FuzzDecodeBeacon(f *testing.F) {
	b := Beacon{
		VehicleID: 7, PlatoonID: 1, Seq: 42, TimestampN: 123456789,
		Role: RoleLeader, Position: 1999.5, Speed: 27.5, Accel: -0.25,
		LeaderSpeed: 28, LeaderAccel: 0.5,
	}
	f.Add(b.Marshal())
	f.Add([]byte{})
	f.Add([]byte{byte(KindBeacon)})
	f.Add(b.Marshal()[:beaconSize-1])
	f.Add(bytes.Repeat([]byte{0xff}, beaconSize))
	var bc, again Beacon
	f.Fuzz(func(t *testing.T, data []byte) {
		if DecodeBeacon(data, &bc) != nil {
			return
		}
		out := bc.AppendTo(nil)
		if !bytes.Equal(out, data[:beaconSize]) {
			t.Fatalf("re-encode differs from wire bytes:\n got %x\nwant %x", out, data[:beaconSize])
		}
		if err := DecodeBeacon(out, &again); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(again.AppendTo(nil), out) {
			t.Fatal("decode∘encode is not a fixed point")
		}
	})
}

func FuzzDecodeManeuver(f *testing.F) {
	m := Maneuver{
		Type: ManeuverSplit, VehicleID: 3, PlatoonID: 1, TargetID: 5,
		Seq: 9, TimestampN: 42_000_000_000, Slot: 2, Param: 12.5,
	}
	f.Add(m.Marshal())
	f.Add([]byte{})
	f.Add([]byte{byte(KindManeuver)})
	f.Add(m.Marshal()[:maneuverSize-1])
	f.Add(bytes.Repeat([]byte{0xff}, maneuverSize))
	var mv, again Maneuver
	f.Fuzz(func(t *testing.T, data []byte) {
		if DecodeManeuver(data, &mv) != nil {
			return
		}
		out := mv.AppendTo(nil)
		if !bytes.Equal(out, data[:maneuverSize]) {
			t.Fatalf("re-encode differs from wire bytes:\n got %x\nwant %x", out, data[:maneuverSize])
		}
		if err := DecodeManeuver(out, &again); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(again.AppendTo(nil), out) {
			t.Fatal("decode∘encode is not a fixed point")
		}
	})
}

func FuzzDecodeMembership(f *testing.F) {
	m := Membership{
		PlatoonID: 1, LeaderID: 1, Seq: 7, TimestampN: 1_000_000,
		Members: []uint32{2, 3, 4, 5},
	}
	f.Add(m.Marshal())
	empty := Membership{PlatoonID: 1, LeaderID: 1}
	f.Add(empty.Marshal())
	f.Add([]byte{byte(KindMembership)})
	// Header claims more members than the buffer carries.
	truncated := m.Marshal()
	f.Add(truncated[:len(truncated)-3])
	var mb Membership
	f.Fuzz(func(t *testing.T, data []byte) {
		if DecodeMembership(data, &mb) != nil {
			return
		}
		out := mb.AppendTo(nil)
		want := membershipHeader + 4*len(mb.Members)
		if len(out) != want {
			t.Fatalf("re-encode produced %d bytes, want %d", len(out), want)
		}
		if !bytes.Equal(out, data[:want]) {
			t.Fatalf("re-encode differs from wire bytes:\n got %x\nwant %x", out, data[:want])
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	signed := Envelope{SenderID: 7, CertSerial: 3, Payload: []byte{byte(KindBeacon), 1, 2}, Sig: bytes.Repeat([]byte{9}, 64)}
	unsigned := Envelope{SenderID: 7, Payload: []byte{byte(KindManeuver)}}
	f.Add(signed.Marshal())
	f.Add(unsigned.Marshal())
	f.Add(append(signed.Marshal(), 0xAA))
	f.Add(signed.Marshal()[:20])
	f.Add([]byte{envelopeVersion + 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	var env, again Envelope
	f.Fuzz(func(t *testing.T, data []byte) {
		if DecodeEnvelope(data, &env) != nil {
			return
		}
		n := 13 + len(env.Payload) + len(env.Sig)
		out := env.AppendTo(nil)
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("re-encode differs from wire bytes:\n got %x\nwant %x", out, data[:n])
		}
		if err := DecodeEnvelope(out, &again); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(again.AppendTo(nil), out) {
			t.Fatal("decode∘encode is not a fixed point")
		}
		// An unsigned frame must decode to a zero-length Sig even into
		// scratch that held a signature: the verifier's unsigned check
		// reads the length.
		if binary.LittleEndian.Uint16(data[11+len(env.Payload):]) == 0 && len(env.Sig) != 0 {
			t.Fatalf("unsigned envelope decoded to Sig %x", env.Sig)
		}
		if len(env.Payload) > 0 && &env.Payload[0] == &data[11] {
			t.Fatal("DecodeEnvelope aliased the wire buffer")
		}
	})
}

func FuzzDecodeContextProof(f *testing.F) {
	c := ContextProof{
		VehicleID: 9, PlatoonID: 1, Seq: 4, TimestampN: 5_000_000,
		Samples: []ProofSample{{Position: 10, Value: 0.25}, {Position: 12.5, Value: -1}},
	}
	f.Add(c.Marshal())
	f.Add([]byte{})
	f.Add([]byte{byte(KindContextProof)})
	f.Add(c.Marshal()[:contextProofHeader+16])
	over := (&ContextProof{Samples: make([]ProofSample, MaxProofSamples)}).Marshal()
	binary.LittleEndian.PutUint16(over[21:], MaxProofSamples+1)
	f.Add(append(over, make([]byte, 16)...))
	var proof, again ContextProof
	f.Fuzz(func(t *testing.T, data []byte) {
		err := DecodeContextProof(data, &proof)
		if len(data) >= contextProofHeader && Kind(data[0]) == KindContextProof &&
			binary.LittleEndian.Uint16(data[21:]) > MaxProofSamples && !errors.Is(err, ErrTooManySamples) {
			t.Fatalf("proof claiming %d samples: err %v, want ErrTooManySamples", binary.LittleEndian.Uint16(data[21:]), err)
		}
		if err != nil {
			return
		}
		n := contextProofHeader + 16*len(proof.Samples)
		out := proof.AppendTo(nil)
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("re-encode differs from wire bytes:\n got %x\nwant %x", out, data[:n])
		}
		if err := DecodeContextProof(out, &again); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(again.AppendTo(nil), out) {
			t.Fatal("decode∘encode is not a fixed point")
		}
	})
}
