package security

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"

	"platoonsec/internal/obs"
)

// certEntry is one certificate memo entry: the exact to-be-signed bytes
// and CA signature of a certificate whose CA signature verified. The
// two are kept apart so a forged certificate cannot shift bytes from
// one field into the other and still match.
type certEntry struct {
	tbs, sig []byte
}

// certSigOK reports whether the CA signature on c is valid. A serial
// whose exact (to-be-signed bytes, CASig) pair has verified before is
// answered from the memo; anything else, including a forged certificate
// claiming a memoised serial, runs ed25519. A failure is never stored,
// and the memo holds at most one entry per serial: only certificates
// the CA itself signed can verify, and a forged serial whose bytes
// happen to verify simply replaces the entry.
func (ca *CA) certSigOK(c *Certificate) bool {
	ca.tbsBuf = c.appendTBS(ca.tbsBuf[:0])
	if e, ok := ca.certMemo[c.Serial]; ok && bytes.Equal(e.tbs, ca.tbsBuf) && bytes.Equal(e.sig, c.CASig) {
		ca.ctr.certHits.Inc()
		return true
	}
	if !ed25519.Verify(ca.pub, ca.tbsBuf, c.CASig) {
		return false
	}
	e := ca.certMemo[c.Serial]
	e.tbs = append(e.tbs[:0], ca.tbsBuf...)
	e.sig = append(e.sig[:0], c.CASig...)
	ca.certMemo[c.Serial] = e
	return true
}

// verdictSlots is the verdict memo's fixed size. A broadcast reaches
// every receiver within one delivery burst, so the memo needs to hold
// only the frames in flight, not a run's history. Measured on the
// Table III PKI cells and the full-stack sybil cell at 8, 16 and 32
// vehicles, a single slot already gives the same fan-out hit rate as
// 128; the other slots are headroom for deliveries that interleave.
// Larger memos only add hits on replayed frames, which the freshness
// check rejects anyway.
const verdictSlots = 16

// verdictKeyOff is where the signed bytes start in a verdict memo
// entry: public key, then signature, then the signed bytes. Both
// prefixes are fixed-size, so equal entries mean equal triples.
const verdictKeyOff = ed25519.PublicKeySize + ed25519.SignatureSize

// verdictMemo is a direct-mapped table of positive ed25519.Verify
// results, keyed by the exact (public key, signed bytes, signature)
// triple. Each slot keeps its key buffer when overwritten, so the
// table stops allocating once its slots have grown to the frame size.
type verdictMemo struct {
	slots [verdictSlots][]byte
}

// slot picks a frame's slot from the signature's first eight bytes,
// the leading bytes of the encoded nonce point R. Honest signatures
// spread evenly; an adversary can aim collisions, but a collision only
// evicts an entry, it never changes a verdict.
func (m *verdictMemo) slot(sig []byte) *[]byte {
	return &m.slots[binary.LittleEndian.Uint64(sig)%verdictSlots]
}

// verify returns ed25519.Verify(pub, msg, sig), answering from the memo
// when the exact triple has verified before. hit reports a memo answer.
// Triples with a malformed key or signature length skip the memo.
func (m *verdictMemo) verify(pub ed25519.PublicKey, msg, sig []byte) (ok, hit bool) {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return ed25519.Verify(pub, msg, sig), false
	}
	s := m.slot(sig)
	if e := *s; len(e) == verdictKeyOff+len(msg) &&
		bytes.Equal(e[:ed25519.PublicKeySize], pub) &&
		bytes.Equal(e[ed25519.PublicKeySize:verdictKeyOff], sig) &&
		bytes.Equal(e[verdictKeyOff:], msg) {
		return true, true
	}
	if !ed25519.Verify(pub, msg, sig) {
		return false, false
	}
	*s = append((*s)[:0], pub...)
	*s = append(*s, sig...)
	*s = append(*s, msg...)
	return true, false
}

// rejectReason classifies a Verifier.Verify rejection for the
// security.reject.<reason> counters.
type rejectReason uint8

const (
	rejectUnsigned rejectReason = iota
	rejectUnknownSerial
	rejectBadCertSig
	rejectCertExpired
	rejectCertRevoked
	rejectSenderMismatch
	rejectBadSignature
	rejectMalformed
	rejectReplay
	numRejectReasons
)

var rejectNames = [numRejectReasons]string{
	rejectUnsigned:       "unsigned",
	rejectUnknownSerial:  "unknown_serial",
	rejectBadCertSig:     "bad_cert_sig",
	rejectCertExpired:    "cert_expired",
	rejectCertRevoked:    "cert_revoked",
	rejectSenderMismatch: "sender_mismatch",
	rejectBadSignature:   "bad_signature",
	rejectMalformed:      "malformed",
	rejectReplay:         "replay",
}

// counters are the security layer's observability handles; all nil
// (no-op) unless a recorder is attached.
type counters struct {
	verify      *obs.Counter
	certHits    *obs.Counter
	verdictHits *obs.Counter
	reject      [numRejectReasons]*obs.Counter
}

func newCounters(m *obs.Registry) counters {
	c := counters{
		verify:      m.Counter("security.verify"),
		certHits:    m.Counter("security.cert_memo_hits"),
		verdictHits: m.Counter("security.verdict_memo_hits"),
	}
	for r, name := range rejectNames {
		c.reject[r] = m.Counter("security.reject." + name)
	}
	return c
}

// rejected counts a rejection and passes its error through.
func (c *counters) rejected(r rejectReason, err error) error {
	c.reject[r].Inc()
	return err
}
