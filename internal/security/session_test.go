package security

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"platoonsec/internal/sim"
)

func TestSealOpenRoundTrip(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sess"))
	var c SessionCipher
	plaintext := []byte("leader speed 25.0 position 1034.2")
	blob, err := c.Seal(k, plaintext, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Open(k, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sess2"))
	var c SessionCipher
	blob, _ := c.Seal(k, []byte("gap-close command"), 7, 1)
	blob[25] ^= 1
	if _, err := c.Open(k, blob); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered blob: %v", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1 := NewSessionKey(1, sim.NewStream(1, "sessA"))
	k2 := NewSessionKey(1, sim.NewStream(2, "sessB"))
	var c SessionCipher
	blob, _ := c.Seal(k1, []byte("secret"), 7, 1)
	if _, err := c.Open(k2, blob); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestOpenRejectsWrongEpoch(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sess3"))
	var c SessionCipher
	blob, _ := c.Seal(k, []byte("x"), 7, 1)
	next := k.Rotate()
	if _, err := c.Open(next, blob); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("old-epoch blob: %v", err)
	}
}

func TestOpenShortBlob(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sess4"))
	var c SessionCipher
	if _, err := c.Open(k, []byte{1, 2, 3}); !errors.Is(err, ErrSealTooShort) {
		t.Fatalf("short: %v", err)
	}
}

func TestRotateChain(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sess5"))
	next := k.Rotate()
	if next.Epoch != 2 {
		t.Fatalf("epoch = %d", next.Epoch)
	}
	if next.Key == k.Key {
		t.Fatal("rotation did not change key")
	}
	// Deterministic rotation.
	if k.Rotate().Key != next.Key {
		t.Fatal("rotation not deterministic")
	}
}

func TestSealDistinctNoncesDistinctCiphertexts(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sess6"))
	var c SessionCipher
	a, _ := c.Seal(k, []byte("same plaintext"), 7, 1)
	b, _ := c.Seal(k, []byte("same plaintext"), 7, 2)
	if bytes.Equal(a[20:34], b[20:34]) {
		t.Fatal("different seqs produced identical keystream")
	}
}

func TestSealToVehicleRoundTrip(t *testing.T) {
	k := NewSessionKey(3, sim.NewStream(1, "sess7"))
	var pairwise [32]byte
	sim.NewStream(1, "pairwise").Bytes(pairwise[:])
	sealed := SealToVehicle(k, pairwise, 7)
	got, err := OpenFromRSU(sealed, pairwise, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatal("round trip mismatch")
	}
	// An eavesdropper without the pairwise secret recovers garbage.
	var wrong [32]byte
	bad, err := OpenFromRSU(sealed, wrong, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Key == k.Key {
		t.Fatal("eavesdropper recovered key")
	}
	if _, err := OpenFromRSU(sealed[:10], pairwise, 7, 3); !errors.Is(err, ErrSealTooShort) {
		t.Fatalf("short sealed key: %v", err)
	}
}

func TestSealOpenQuick(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(1, "sessq"))
	var c SessionCipher
	f := func(plaintext []byte, sender, seq uint32) bool {
		if len(plaintext) > 10000 {
			return true
		}
		blob, err := c.Seal(k, plaintext, sender, seq)
		if err != nil {
			return false
		}
		got, err := c.Open(k, blob)
		if err != nil {
			return false
		}
		return bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
