package security

import (
	"errors"
	"fmt"

	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// Errors returned by envelope verification.
var (
	ErrUnsigned       = errors.New("security: envelope unsigned")
	ErrBadSignature   = errors.New("security: envelope signature invalid")
	ErrSenderMismatch = errors.New("security: claimed sender does not match certificate")
	ErrReplay         = errors.New("security: replayed or stale message")
)

// Signer wraps outgoing payloads in signed envelopes for one identity.
type Signer struct {
	id *Identity
}

// NewSigner returns a signer for the identity.
func NewSigner(id *Identity) *Signer { return &Signer{id: id} }

// Seal wraps payload in an envelope signed by the identity, claiming the
// certificate's vehicle ID as sender.
//
//platoonvet:hotpath -- runs per transmitted frame on signing agents
func (s *Signer) Seal(payload []byte) *message.Envelope {
	//platoonvet:alloc-ok envelope ownership passes to the MAC send path; per-frame envelope identity is the protocol model
	e := &message.Envelope{
		SenderID:   s.id.Cert.VehicleID,
		CertSerial: s.id.Cert.Serial,
		Payload:    payload,
	}
	e.Sig = s.id.Sign(e.SignedBytes())
	return e
}

// SealAs wraps payload claiming an arbitrary sender ID — the
// impersonation primitive. The signature will only verify if the
// certificate's vehicle ID happens to match, so against a verifying
// receiver this models the attack *attempt*.
//
//platoonvet:hotpath -- runs per spoofed frame in attack scenarios
func (s *Signer) SealAs(senderID uint32, payload []byte) *message.Envelope {
	//platoonvet:alloc-ok envelope ownership passes to the MAC send path; per-frame envelope identity is the protocol model
	e := &message.Envelope{
		SenderID:   senderID,
		CertSerial: s.id.Cert.Serial,
		Payload:    payload,
	}
	e.Sig = s.id.Sign(e.SignedBytes())
	return e
}

// Verifier validates incoming envelopes against the CA and a replay
// guard. The zero value is not usable; construct with NewVerifier.
// A Verifier is not safe for concurrent use (sigBuf is per-frame
// scratch); each simulated world builds its own.
type Verifier struct {
	ca     *CA
	replay *ReplayGuard
	sigBuf []byte // scratch for the signed-bytes image of each frame
}

// NewVerifier returns a verifier trusting ca. replay may be nil to skip
// freshness checking (the paper's baseline "keys without timestamps"
// configuration, which replay attacks then beat).
func NewVerifier(ca *CA, replay *ReplayGuard) *Verifier {
	return &Verifier{ca: ca, replay: replay}
}

// Verify checks an envelope at time now: certificate chain, signature,
// sender binding, and (if a replay guard is installed) freshness of the
// embedded timestamp. It returns the verified certificate.
//
// The two ed25519 checks go through the CA's memos, so a certificate or
// a broadcast that has verified once in this run is not re-verified by
// every receiver. Validity, revocation, sender binding and freshness
// are checked on every call: a replayed frame hits the verdict memo
// and is still rejected as stale.
//
//platoonvet:hotpath -- runs per received frame on verifying agents
//platoonvet:sanitizer -- certificate chain + signature + sender binding + freshness: the trust boundary of §VI-A
func (v *Verifier) Verify(e *message.Envelope, now sim.Time) (*Certificate, error) {
	ctr := &v.ca.ctr
	ctr.verify.Inc()
	if len(e.Sig) == 0 {
		return nil, ctr.rejected(rejectUnsigned, ErrUnsigned)
	}
	cert, err := v.ca.Lookup(e.CertSerial)
	if err != nil {
		return nil, ctr.rejected(rejectUnknownSerial, err)
	}
	if err := v.ca.Verify(cert, now); err != nil {
		return nil, ctr.rejected(certRejectReason(err), err)
	}
	if cert.VehicleID != e.SenderID {
		//platoonvet:alloc-ok error path: sender mismatch occurs only under impersonation attack
		err := fmt.Errorf("%w: claimed %d, cert %d", ErrSenderMismatch, e.SenderID, cert.VehicleID)
		return nil, ctr.rejected(rejectSenderMismatch, err)
	}
	v.sigBuf = e.AppendSignedBytes(v.sigBuf[:0])
	ok, hit := v.ca.verdicts.verify(cert.PublicKey, v.sigBuf, e.Sig)
	if hit {
		ctr.verdictHits.Inc()
	}
	if !ok {
		return nil, ctr.rejected(rejectBadSignature, ErrBadSignature)
	}
	if v.replay != nil {
		ts, seq, err := message.PeekFreshness(e.Payload)
		if err != nil {
			return nil, ctr.rejected(rejectMalformed, err)
		}
		if err := v.replay.Check(e.SenderID, seq, sim.Time(ts), now); err != nil {
			return nil, ctr.rejected(rejectReplay, err)
		}
	}
	return cert, nil
}

// certRejectReason classifies a CA.Verify failure; it runs only on the
// reject path.
func certRejectReason(err error) rejectReason {
	switch {
	case errors.Is(err, ErrCertExpired):
		return rejectCertExpired
	case errors.Is(err, ErrCertRevoked):
		return rejectCertRevoked
	default:
		return rejectBadCertSig
	}
}
