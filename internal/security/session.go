package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"platoonsec/internal/sim"
)

// SessionKey is a platoon group key with an epoch counter. The RSU/TA
// rotates epochs to screen out departed or anomalous members (§VI-A2).
type SessionKey struct {
	Epoch uint32
	Key   [32]byte
}

// NewSessionKey derives a fresh key from rng.
func NewSessionKey(epoch uint32, rng *sim.Stream) SessionKey {
	var k SessionKey
	k.Epoch = epoch
	rng.Bytes(k.Key[:])
	return k
}

// Rotate derives the next-epoch key deterministically from the current
// one (hash-chain rotation, so past traffic stays sealed after a leak of
// the *new* key but not vice versa).
func (k SessionKey) Rotate() SessionKey {
	sum := sha256.Sum256(append([]byte("platoonsec/rotate"), k.Key[:]...))
	return SessionKey{Epoch: k.Epoch + 1, Key: sum}
}

// ErrSealTooShort is returned when an encrypted blob is shorter than its
// header.
var ErrSealTooShort = errors.New("security: sealed blob too short")

// ErrWrongEpoch is returned when a blob was sealed under a different
// epoch.
var ErrWrongEpoch = errors.New("security: wrong key epoch")

// Sealed-blob layout: epoch(4) | nonce(16) | ciphertext | tag(32).
const (
	sealHeader = 4 + aes.BlockSize
	sealTag    = sha256.Size
)

// SessionCipher seals and opens frames under a platoon SessionKey with
// AES-CTR and an HMAC-SHA256 tag. It keeps the AES key schedule and the
// HMAC state for the key it last used and rebuilds them only when the
// key or its epoch changes, which it detects by comparing key values:
// an RSU rotation that rewrites a shared SessionKey in place is picked
// up on the next frame. The zero value is ready to use. A SessionCipher
// is per-frame scratch, not safe for concurrent use; each agent owns
// one.
type SessionCipher struct {
	key   SessionKey // the key block and mac were built for
	block cipher.Block
	mac   hash.Hash

	ctr, stream [aes.BlockSize]byte // CTR counter and keystream block
	tag         [sealTag]byte
	plain       []byte // Open's output; valid until the next Open
}

// use makes the cached state match k.
func (c *SessionCipher) use(k SessionKey) error {
	if c.block != nil && c.key == k {
		return nil
	}
	// Build from c.key, which already lives on the heap: slicing the
	// parameter would move every caller's k there too.
	c.key = k
	block, err := aes.NewCipher(c.key.Key[:])
	if err != nil {
		c.block = nil
		return err
	}
	c.block = block
	c.mac = hmac.New(sha256.New, c.key.Key[:])
	return nil
}

// sum returns the HMAC of b under the current key, in c.tag.
func (c *SessionCipher) sum(b []byte) []byte {
	c.mac.Reset()
	c.mac.Write(b)
	return c.mac.Sum(c.tag[:0])
}

// xorCTR XORs src into dst with the AES-CTR keystream for iv — the
// stream cipher.NewCTR(block, iv) produces, with the counter
// incremented as one big-endian 128-bit integer per block — without
// allocating a stream per frame.
func (c *SessionCipher) xorCTR(dst, src, iv []byte) {
	copy(c.ctr[:], iv)
	for len(src) > 0 {
		c.block.Encrypt(c.stream[:], c.ctr[:])
		n := subtle.XORBytes(dst, src, c.stream[:])
		dst, src = dst[n:], src[n:]
		for i := len(c.ctr) - 1; i >= 0; i-- {
			c.ctr[i]++
			if c.ctr[i] != 0 {
				break
			}
		}
	}
}

// Seal encrypts plaintext under k and appends an HMAC-SHA256 tag. The
// nonce must be unique per message under one epoch; callers use
// (senderID, seq). The result is a fresh slice the caller owns.
func (c *SessionCipher) Seal(k SessionKey, plaintext []byte, senderID, seq uint32) ([]byte, error) {
	if err := c.use(k); err != nil {
		return nil, fmt.Errorf("security: seal: %w", err)
	}
	//platoonvet:alloc-ok the sealed frame passes to the MAC send path, which owns it
	out := make([]byte, sealHeader+len(plaintext)+sealTag)
	binary.LittleEndian.PutUint32(out[0:], k.Epoch)
	iv := out[4:sealHeader]
	binary.LittleEndian.PutUint32(iv[0:], senderID)
	binary.LittleEndian.PutUint32(iv[4:], seq)
	binary.LittleEndian.PutUint32(iv[8:], k.Epoch)
	body := out[:sealHeader+len(plaintext)]
	c.xorCTR(body[sealHeader:], plaintext, iv)
	copy(out[len(body):], c.sum(body))
	return out, nil
}

// Open authenticates and decrypts a blob sealed under k. The plaintext
// is c's scratch: it stays valid until the next Open.
func (c *SessionCipher) Open(k SessionKey, blob []byte) ([]byte, error) {
	if len(blob) < sealHeader+sealTag {
		return nil, ErrSealTooShort
	}
	epoch := binary.LittleEndian.Uint32(blob[0:])
	if epoch != k.Epoch {
		//platoonvet:alloc-ok error path: foreign-epoch blobs arrive only around rotations or from outsiders
		return nil, fmt.Errorf("%w: blob epoch %d, key epoch %d", ErrWrongEpoch, epoch, k.Epoch)
	}
	if err := c.use(k); err != nil {
		return nil, fmt.Errorf("security: open: %w", err)
	}
	body := blob[:len(blob)-sealTag]
	if !hmac.Equal(blob[len(body):], c.sum(body)) {
		return nil, ErrBadSignature
	}
	n := len(body) - sealHeader
	if cap(c.plain) < n {
		c.plain = make([]byte, n)
	}
	c.plain = c.plain[:n]
	c.xorCTR(c.plain, body[sealHeader:], blob[4:sealHeader])
	return c.plain, nil
}

// SealToVehicle wraps a session key for delivery to one vehicle inside a
// KeyResponse. In a production system this would be ECIES to the
// vehicle's certificate key; here it is HMAC-keyed wrapping bound to the
// vehicle ID, which preserves the property the experiments need: only
// the addressed vehicle (holding the pairwise secret with the RSU)
// recovers it, and an eavesdropper does not.
func SealToVehicle(k SessionKey, pairwise [32]byte, vehicleID uint32) []byte {
	stream := keystream(pairwise, vehicleID, k.Epoch, len(k.Key))
	out := make([]byte, len(k.Key))
	for i := range k.Key {
		out[i] = k.Key[i] ^ stream[i]
	}
	return out
}

// OpenFromRSU recovers a session key sealed by SealToVehicle.
func OpenFromRSU(sealed []byte, pairwise [32]byte, vehicleID, epoch uint32) (SessionKey, error) {
	if len(sealed) != 32 {
		return SessionKey{}, ErrSealTooShort
	}
	stream := keystream(pairwise, vehicleID, epoch, len(sealed))
	var k SessionKey
	k.Epoch = epoch
	for i := range sealed {
		k.Key[i] = sealed[i] ^ stream[i]
	}
	return k, nil
}

func keystream(secret [32]byte, vehicleID, epoch uint32, n int) []byte {
	mac := hmac.New(sha256.New, secret[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], vehicleID)
	binary.LittleEndian.PutUint32(hdr[4:], epoch)
	mac.Write(hdr[:])
	out := mac.Sum(nil)
	for len(out) < n {
		mac.Reset()
		mac.Write(out)
		out = mac.Sum(out)
	}
	return out[:n]
}
