package security

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"platoonsec/internal/sim"
)

// oracleSeal is the reference construction SessionCipher must match
// byte for byte: a fresh AES key schedule, cipher.NewCTR stream and
// HMAC per frame.
func oracleSeal(k SessionKey, plaintext []byte, senderID, seq uint32) []byte {
	block, err := aes.NewCipher(k.Key[:])
	if err != nil {
		panic(err)
	}
	var iv [16]byte
	binary.LittleEndian.PutUint32(iv[0:], senderID)
	binary.LittleEndian.PutUint32(iv[4:], seq)
	binary.LittleEndian.PutUint32(iv[8:], k.Epoch)
	out := make([]byte, 4+16+len(plaintext)+32)
	binary.LittleEndian.PutUint32(out[0:], k.Epoch)
	copy(out[4:20], iv[:])
	cipher.NewCTR(block, iv[:]).XORKeyStream(out[20:20+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, k.Key[:])
	mac.Write(out[:20+len(plaintext)])
	copy(out[20+len(plaintext):], mac.Sum(nil))
	return out
}

// oracleOpen is the reference open; ok is false wherever the reference
// returned an error.
func oracleOpen(k SessionKey, blob []byte) (plaintext []byte, ok bool) {
	if len(blob) < 4+16+32 || binary.LittleEndian.Uint32(blob) != k.Epoch {
		return nil, false
	}
	body, tag := blob[:len(blob)-32], blob[len(blob)-32:]
	mac := hmac.New(sha256.New, k.Key[:])
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, false
	}
	block, err := aes.NewCipher(k.Key[:])
	if err != nil {
		panic(err)
	}
	plaintext = make([]byte, len(body)-20)
	cipher.NewCTR(block, blob[4:20]).XORKeyStream(plaintext, body[20:])
	return plaintext, true
}

// TestSessionCipherMatchesOracle drives one SessionCipher through random
// keys, epochs, (sender, seq) IVs and payload lengths — most not a
// multiple of the block size — with the key changing under it between
// frames, and checks every sealed blob and every opened plaintext
// against the reference construction.
func TestSessionCipherMatchesOracle(t *testing.T) {
	rng := sim.NewStream(1, "session-oracle")
	var c SessionCipher
	k := NewSessionKey(1, rng)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(8) {
		case 0:
			k = NewSessionKey(uint32(rng.Intn(1<<16)), rng)
		case 1:
			k = k.Rotate()
		case 2:
			k.Epoch++ // same key bytes, new epoch
		}
		plaintext := make([]byte, rng.Intn(300))
		rng.Bytes(plaintext)
		sender, seq := uint32(rng.Uint64()), uint32(rng.Uint64())
		got, err := c.Seal(k, plaintext, sender, seq)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSeal(k, plaintext, sender, seq)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d (len %d): sealed blob differs from the reference", i, len(plaintext))
		}
		opened, err := c.Open(k, want)
		if err != nil || !bytes.Equal(opened, plaintext) {
			t.Fatalf("frame %d: Open = %x, %v; want %x", i, opened, err, plaintext)
		}
	}
}

// TestSessionCipherCTRCarry checks the keystream against cipher.NewCTR
// for IVs whose counter carries across one or more bytes, including the
// all-ones wraparound, over streams several blocks long.
func TestSessionCipherCTRCarry(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(2, "session-carry"))
	var c SessionCipher
	if err := c.use(k); err != nil {
		t.Fatal(err)
	}
	ivs := [][]byte{
		bytes.Repeat([]byte{0xff}, 16),
		append(make([]byte, 15), 0xfe),
		append(make([]byte, 14), 0x01, 0xff),
		append(bytes.Repeat([]byte{0x12}, 12), 0xff, 0xff, 0xff, 0xfd),
	}
	src := make([]byte, 16*5+7)
	sim.NewStream(3, "session-carry").Bytes(src)
	for _, iv := range ivs {
		want := make([]byte, len(src))
		cipher.NewCTR(c.block, iv).XORKeyStream(want, src)
		got := make([]byte, len(src))
		c.xorCTR(got, src, iv)
		if !bytes.Equal(got, want) {
			t.Fatalf("iv %x: keystream differs from cipher.NewCTR", iv)
		}
	}
}

// TestSessionCipherSteadyStateAllocs pins the per-frame allocation
// cost: Seal allocates only the blob it hands to the caller, Open
// nothing.
func TestSessionCipherSteadyStateAllocs(t *testing.T) {
	k := NewSessionKey(1, sim.NewStream(5, "session-allocs"))
	var c SessionCipher
	payload := make([]byte, 150)
	blob, _ := c.Seal(k, payload, 7, 1)
	_, _ = c.Open(k, blob)
	seq := uint32(1)
	if n := testing.AllocsPerRun(100, func() {
		seq++
		_, _ = c.Seal(k, payload, 7, seq)
	}); n != 1 {
		t.Errorf("Seal: %.1f allocations per frame, want 1 (the sealed blob)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Open(k, blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Open: %.1f allocations per frame, want 0", n)
	}
}

// FuzzSessionOpen seals a fuzzed plaintext, then truncates and
// bit-flips the blob as the fuzzer directs. Open must never panic,
// must agree with the reference construction on every input, and must
// return plaintext only for the untouched blob.
func FuzzSessionOpen(f *testing.F) {
	f.Add([]byte("leader beacon"), uint32(7), uint32(1), uint16(0), uint16(0))
	f.Add([]byte("gap-close"), uint32(7), uint32(2), uint16(30), uint16(0))
	f.Add([]byte("split"), uint32(9), uint32(3), uint16(0), uint16(200))
	f.Add([]byte{}, uint32(0), uint32(0), uint16(51), uint16(1))
	k := NewSessionKey(1, sim.NewStream(6, "session-fuzz"))
	var c SessionCipher
	f.Fuzz(func(t *testing.T, plaintext []byte, sender, seq uint32, trunc, flip uint16) {
		if len(plaintext) > 4096 {
			return
		}
		blob, err := c.Seal(k, plaintext, sender, seq)
		if err != nil {
			t.Fatal(err)
		}
		intact := true
		if n := int(trunc); n > 0 && n <= len(blob) {
			blob, intact = blob[:len(blob)-n], false
		}
		if bit := int(flip); bit > 0 && bit <= 8*len(blob) {
			blob[(bit-1)/8] ^= 1 << ((bit - 1) % 8)
			intact = false
		}
		got, err := c.Open(k, blob)
		want, ok := oracleOpen(k, blob)
		if (err == nil) != ok || !bytes.Equal(got, want) {
			t.Fatalf("Open = %x, %v; reference = %x, ok %v", got, err, want, ok)
		}
		if intact != (err == nil) {
			t.Fatalf("intact=%v but Open err = %v", intact, err)
		}
		if err != nil && got != nil {
			t.Fatal("Open returned plaintext with an error")
		}
		if intact && !bytes.Equal(got, plaintext) {
			t.Fatalf("round trip: %x, want %x", got, plaintext)
		}
	})
}
