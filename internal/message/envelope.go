package message

import (
	"encoding/binary"
	"fmt"
)

// envelopeVersion is the wire version byte.
const envelopeVersion = 1

// Envelope wraps an encoded message with the sender's claimed identity
// and an optional signature. The signature covers version, claimed
// sender, certificate serial and payload — so an impersonator (§V-F) who
// rewrites SenderID invalidates the signature unless they also hold the
// matching private key.
//
// Sig empty means "unsecured platoon", the baseline configuration the
// attacks in Table II exploit.
type Envelope struct {
	SenderID   uint32
	CertSerial uint32
	Payload    []byte
	Sig        []byte
}

// Kind returns the payload's message kind.
//
//platoonvet:routing-safe -- the kind byte only selects the dispatch arm; no routed arm trusts payload contents until it verifies
func (e *Envelope) Kind() (Kind, error) { return PeekKind(e.Payload) }

// SignedBytes returns the exact byte string a signature covers.
func (e *Envelope) SignedBytes() []byte {
	return e.AppendSignedBytes(make([]byte, 0, 1+4+4+len(e.Payload)))
}

// Marshal encodes the envelope for transmission.
func (e *Envelope) Marshal() []byte {
	return e.AppendTo(make([]byte, 0, 1+4+4+2+len(e.Payload)+2+len(e.Sig)))
}

// PeekEnvelope returns the claimed sender and inner message kind of
// an encoded envelope without decoding or allocating — the peek
// instrumentation uses to label frames (span details, injection
// records) on paths where a full unmarshal would cost.
//
//platoonvet:routing-safe -- labels frames for instrumentation and routing; nothing peeked here feeds an acceptance decision
func PeekEnvelope(buf []byte) (sender uint32, kind Kind, err error) {
	if len(buf) < 12 {
		return 0, 0, fmt.Errorf("%w: envelope peek needs 12 bytes, got %d", ErrShortBuffer, len(buf))
	}
	if buf[0] != envelopeVersion {
		return 0, 0, fmt.Errorf("message: unsupported envelope version %d", buf[0])
	}
	le := binary.LittleEndian
	if plen := int(le.Uint16(buf[9:])); plen < 1 || len(buf) < 11+plen {
		return 0, 0, fmt.Errorf("%w: envelope payload truncated", ErrShortBuffer)
	}
	return le.Uint32(buf[1:]), Kind(buf[11]), nil
}
