package message

import (
	"bytes"
	"testing"
)

// The receive path decodes in place (DecodeBeacon, DecodeEnvelope into
// scratch the receiver owns) where it once allocated per frame
// (UnmarshalBeacon, UnmarshalEnvelope). These fuzzers pin the two
// decoder families to the same accept set and the same fields, with the
// in-place scratch reused across inputs exactly as receivers reuse it.

func FuzzBeaconDecodersAgree(f *testing.F) {
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
	var scratch Beacon
	f.Fuzz(func(t *testing.T, data []byte) {
		want, uerr := UnmarshalBeacon(data)
		derr := DecodeBeacon(data, &scratch)
		if (uerr == nil) != (derr == nil) {
			t.Fatalf("UnmarshalBeacon err = %v, DecodeBeacon err = %v", uerr, derr)
		}
		if uerr != nil {
			return
		}
		// Compare wire images, not structs: NaN fields never compare equal.
		if got := scratch.Marshal(); !bytes.Equal(got, want.Marshal()) {
			t.Fatalf("fields differ:\nDecodeBeacon    %+v\nUnmarshalBeacon %+v", scratch, *want)
		}
	})
}

func FuzzEnvelopeDecodersAgree(f *testing.F) {
	signed := Envelope{SenderID: 7, CertSerial: 3, Payload: []byte{byte(KindBeacon), 1, 2}, Sig: bytes.Repeat([]byte{9}, 64)}
	unsigned := Envelope{SenderID: 7, Payload: []byte{byte(KindManeuver)}}
	f.Add(signed.Marshal())
	f.Add(unsigned.Marshal())
	f.Add(append(signed.Marshal(), 0xAA))
	f.Add(signed.Marshal()[:20])
	f.Add([]byte{envelopeVersion + 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	var scratch Envelope
	f.Fuzz(func(t *testing.T, data []byte) {
		want, uerr := UnmarshalEnvelope(data)
		derr := DecodeEnvelope(data, &scratch)
		if (uerr == nil) != (derr == nil) {
			t.Fatalf("UnmarshalEnvelope err = %v, DecodeEnvelope err = %v", uerr, derr)
		}
		if uerr != nil {
			return
		}
		if scratch.SenderID != want.SenderID || scratch.CertSerial != want.CertSerial ||
			!bytes.Equal(scratch.Payload, want.Payload) || !bytes.Equal(scratch.Sig, want.Sig) {
			t.Fatalf("fields differ:\nDecodeEnvelope    %+v\nUnmarshalEnvelope %+v", scratch, *want)
		}
		// The one allowed difference: an unsigned envelope decodes to a
		// nil Sig from UnmarshalEnvelope and to an empty one from a
		// reused DecodeEnvelope scratch. Both have length zero, which
		// is what the verifier's unsigned check reads.
		if len(want.Sig) == 0 && (want.Sig != nil || len(scratch.Sig) != 0) {
			t.Fatalf("unsigned envelope: Unmarshal Sig %#v, Decode Sig %#v", want.Sig, scratch.Sig)
		}
		if len(scratch.Payload) > 0 && len(data) > 11 && &scratch.Payload[0] == &data[11] {
			t.Fatal("DecodeEnvelope aliased the wire buffer")
		}
	})
}
