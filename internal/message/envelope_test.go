package message

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := (&Beacon{VehicleID: 5, Speed: 20}).Marshal()
	e := &Envelope{SenderID: 5, CertSerial: 9, Payload: payload, Sig: []byte("signature")}
	got := &Envelope{}
	if err := DecodeEnvelope(e.Marshal(), got); err != nil {
		t.Fatal(err)
	}
	if got.SenderID != 5 || got.CertSerial != 9 {
		t.Fatalf("header: %+v", got)
	}
	if !bytes.Equal(got.Payload, payload) || !bytes.Equal(got.Sig, e.Sig) {
		t.Fatal("payload or sig mismatch")
	}
	k, err := got.Kind()
	if err != nil || k != KindBeacon {
		t.Fatalf("Kind = %v, %v", k, err)
	}
}

func TestEnvelopeUnsigned(t *testing.T) {
	e := &Envelope{SenderID: 1, Payload: []byte{byte(KindBeacon)}}
	var got Envelope
	if err := DecodeEnvelope(e.Marshal(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Sig) != 0 {
		t.Fatalf("sig = %v, want empty", got.Sig)
	}
}

func TestEnvelopeSignedBytesBindsSender(t *testing.T) {
	payload := []byte{byte(KindManeuver), 1, 2, 3}
	a := &Envelope{SenderID: 1, CertSerial: 7, Payload: payload}
	b := &Envelope{SenderID: 2, CertSerial: 7, Payload: payload}
	if bytes.Equal(a.SignedBytes(), b.SignedBytes()) {
		t.Fatal("SignedBytes must differ when claimed sender differs")
	}
	c := &Envelope{SenderID: 1, CertSerial: 8, Payload: payload}
	if bytes.Equal(a.SignedBytes(), c.SignedBytes()) {
		t.Fatal("SignedBytes must differ when cert serial differs")
	}
}

func TestEnvelopeErrors(t *testing.T) {
	var got Envelope
	if err := DecodeEnvelope([]byte{1, 2}, &got); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short header: %v", err)
	}
	e := &Envelope{SenderID: 1, Payload: []byte{1, 2, 3}, Sig: []byte{9}}
	buf := e.Marshal()
	if err := DecodeEnvelope(buf[:len(buf)-1], &got); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated sig: %v", err)
	}
	bad := append([]byte{}, buf...)
	bad[0] = 99
	if err := DecodeEnvelope(bad, &got); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestPeekEnvelope(t *testing.T) {
	payload := (&Maneuver{Type: ManeuverJoinRequest, VehicleID: 40}).Marshal()
	e := &Envelope{SenderID: 40, CertSerial: 3, Payload: payload, Sig: []byte("sig")}
	buf := e.Marshal()

	sender, kind, err := PeekEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sender != 40 || kind != KindManeuver {
		t.Fatalf("peek = sender %d kind %v, want 40 %v", sender, kind, KindManeuver)
	}
	// Peek must agree with the full decode it is a shortcut for.
	full := &Envelope{}
	if err := DecodeEnvelope(buf, full); err != nil {
		t.Fatal(err)
	}
	fk, err := full.Kind()
	if err != nil {
		t.Fatal(err)
	}
	if full.SenderID != sender || fk != kind {
		t.Fatalf("peek (%d, %v) disagrees with decode (%d, %v)", sender, kind, full.SenderID, fk)
	}

	if _, _, err := PeekEnvelope(buf[:11]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short buffer: %v", err)
	}
	bad := append([]byte{}, buf...)
	bad[0] = 99
	if _, _, err := PeekEnvelope(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// A header-complete buffer whose declared payload length overruns
	// the buffer must be rejected, not read out of bounds.
	truncated := append([]byte{}, buf[:12]...)
	if _, _, err := PeekEnvelope(truncated); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestEnvelopeQuickRoundTrip(t *testing.T) {
	f := func(sender, serial uint32, payload, sig []byte) bool {
		if len(payload) > 60000 || len(sig) > 60000 {
			return true
		}
		e := &Envelope{SenderID: sender, CertSerial: serial, Payload: payload, Sig: sig}
		got := &Envelope{}
		if err := DecodeEnvelope(e.Marshal(), got); err != nil {
			return false
		}
		if got.SenderID != sender || got.CertSerial != serial {
			return false
		}
		if !bytes.Equal(got.Payload, payload) {
			return false
		}
		return len(sig) == 0 && len(got.Sig) == 0 || bytes.Equal(got.Sig, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
