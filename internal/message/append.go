package message

import (
	"encoding/binary"
	"errors"
	"math"
)

// This file is the codec: one AppendTo encoder and one Decode* decoder
// per wire message. Encoders extend a caller-owned buffer; decoders
// fill a caller-owned struct, reusing any slice backing it already has,
// so a receiver that holds its scratch decodes without allocating.
// Marshal is the allocating convenience form of AppendTo. PeekKind,
// PeekEnvelope and PeekFreshness read single fields straight from the
// wire; the differential fuzzers pin each to its decoder's accept set.
//
// Decoders return bare sentinel errors (ErrShortBuffer, ErrBadKind,
// ErrBadVersion, ErrTooManySamples) rather than fmt-wrapped ones:
// wrapping allocates, and these errors fire on every truncated frame a
// fuzzer or a jammed channel produces.

// ErrBadVersion reports an unsupported envelope version byte.
var ErrBadVersion = errors.New("message: unsupported envelope version")

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// AppendTo appends the encoded beacon to buf and returns the extended
// slice. Appending to a scratch buffer with capacity is allocation-free.
func (b *Beacon) AppendTo(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(KindBeacon))
	buf = le.AppendUint32(buf, b.VehicleID)
	buf = le.AppendUint32(buf, b.PlatoonID)
	buf = le.AppendUint32(buf, b.Seq)
	buf = le.AppendUint64(buf, uint64(b.TimestampN))
	buf = append(buf, byte(b.Role))
	buf = appendFloat(buf, b.Position)
	buf = appendFloat(buf, b.Speed)
	buf = appendFloat(buf, b.Accel)
	buf = appendFloat(buf, b.LeaderSpeed)
	buf = appendFloat(buf, b.LeaderAccel)
	return buf
}

// DecodeBeacon decodes a beacon into b, which the caller owns and may
// reuse across frames.
func DecodeBeacon(buf []byte, b *Beacon) error {
	if len(buf) < beaconSize {
		return ErrShortBuffer
	}
	if Kind(buf[0]) != KindBeacon {
		return ErrBadKind
	}
	le := binary.LittleEndian
	b.VehicleID = le.Uint32(buf[1:])
	b.PlatoonID = le.Uint32(buf[5:])
	b.Seq = le.Uint32(buf[9:])
	b.TimestampN = int64(le.Uint64(buf[13:]))
	b.Role = Role(buf[21])
	b.Position = getFloat(buf[22:])
	b.Speed = getFloat(buf[30:])
	b.Accel = getFloat(buf[38:])
	b.LeaderSpeed = getFloat(buf[46:])
	b.LeaderAccel = getFloat(buf[54:])
	return nil
}

// AppendTo appends the encoded maneuver to buf.
func (m *Maneuver) AppendTo(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(KindManeuver), byte(m.Type))
	buf = le.AppendUint32(buf, m.VehicleID)
	buf = le.AppendUint32(buf, m.PlatoonID)
	buf = le.AppendUint32(buf, m.TargetID)
	buf = le.AppendUint32(buf, m.Seq)
	buf = le.AppendUint64(buf, uint64(m.TimestampN))
	buf = le.AppendUint16(buf, m.Slot)
	buf = appendFloat(buf, m.Param)
	return buf
}

// DecodeManeuver decodes a maneuver into m.
func DecodeManeuver(buf []byte, m *Maneuver) error {
	if len(buf) < maneuverSize {
		return ErrShortBuffer
	}
	if Kind(buf[0]) != KindManeuver {
		return ErrBadKind
	}
	le := binary.LittleEndian
	m.Type = ManeuverType(buf[1])
	m.VehicleID = le.Uint32(buf[2:])
	m.PlatoonID = le.Uint32(buf[6:])
	m.TargetID = le.Uint32(buf[10:])
	m.Seq = le.Uint32(buf[14:])
	m.TimestampN = int64(le.Uint64(buf[18:]))
	m.Slot = le.Uint16(buf[26:])
	m.Param = getFloat(buf[28:])
	return nil
}

// AppendTo appends the encoded roster to buf.
func (m *Membership) AppendTo(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(KindMembership))
	buf = le.AppendUint32(buf, m.PlatoonID)
	buf = le.AppendUint32(buf, m.LeaderID)
	buf = le.AppendUint32(buf, m.Seq)
	buf = le.AppendUint64(buf, uint64(m.TimestampN))
	buf = le.AppendUint16(buf, uint16(len(m.Members)))
	for _, id := range m.Members {
		buf = le.AppendUint32(buf, id)
	}
	return buf
}

// DecodeMembership decodes a roster into m, reusing m.Members' backing
// array when it has capacity.
func DecodeMembership(buf []byte, m *Membership) error {
	if len(buf) < membershipHeader {
		return ErrShortBuffer
	}
	if Kind(buf[0]) != KindMembership {
		return ErrBadKind
	}
	le := binary.LittleEndian
	n := int(le.Uint16(buf[21:]))
	if len(buf) < membershipHeader+4*n {
		return ErrShortBuffer
	}
	m.PlatoonID = le.Uint32(buf[1:])
	m.LeaderID = le.Uint32(buf[5:])
	m.Seq = le.Uint32(buf[9:])
	m.TimestampN = int64(le.Uint64(buf[13:]))
	m.Members = m.Members[:0]
	for i := 0; i < n; i++ {
		m.Members = append(m.Members, le.Uint32(buf[membershipHeader+4*i:]))
	}
	return nil
}

// AppendTo appends the encoded request to buf.
func (k *KeyRequest) AppendTo(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(KindKeyRequest))
	buf = le.AppendUint32(buf, k.VehicleID)
	buf = le.AppendUint32(buf, k.PlatoonID)
	buf = le.AppendUint64(buf, k.Nonce)
	buf = le.AppendUint64(buf, uint64(k.TimestampN))
	return buf
}

// DecodeKeyRequest decodes a request into k.
func DecodeKeyRequest(buf []byte, k *KeyRequest) error {
	if len(buf) < keyRequestSize {
		return ErrShortBuffer
	}
	if Kind(buf[0]) != KindKeyRequest {
		return ErrBadKind
	}
	le := binary.LittleEndian
	k.VehicleID = le.Uint32(buf[1:])
	k.PlatoonID = le.Uint32(buf[5:])
	k.Nonce = le.Uint64(buf[9:])
	k.TimestampN = int64(le.Uint64(buf[17:]))
	return nil
}

// AppendTo appends the encoded response to buf.
func (k *KeyResponse) AppendTo(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(KindKeyResponse))
	buf = le.AppendUint32(buf, k.VehicleID)
	buf = le.AppendUint32(buf, k.PlatoonID)
	buf = le.AppendUint64(buf, k.Nonce)
	buf = le.AppendUint64(buf, uint64(k.TimestampN))
	buf = le.AppendUint32(buf, k.KeyEpoch)
	buf = le.AppendUint16(buf, uint16(len(k.SealedKey)))
	buf = append(buf, k.SealedKey...)
	return buf
}

// DecodeKeyResponse decodes a response into k, reusing k.SealedKey's
// backing array when it has capacity.
func DecodeKeyResponse(buf []byte, k *KeyResponse) error {
	if len(buf) < keyResponseHeader {
		return ErrShortBuffer
	}
	if Kind(buf[0]) != KindKeyResponse {
		return ErrBadKind
	}
	le := binary.LittleEndian
	n := int(le.Uint16(buf[29:]))
	if len(buf) < keyResponseHeader+n {
		return ErrShortBuffer
	}
	k.VehicleID = le.Uint32(buf[1:])
	k.PlatoonID = le.Uint32(buf[5:])
	k.Nonce = le.Uint64(buf[9:])
	k.TimestampN = int64(le.Uint64(buf[17:]))
	k.KeyEpoch = le.Uint32(buf[25:])
	k.SealedKey = append(k.SealedKey[:0], buf[keyResponseHeader:keyResponseHeader+n]...)
	return nil
}

// PeekFreshness extracts the (timestamp, sequence) pair of any known
// payload kind straight from the wire, without decoding the rest of the
// message — the replay guard consults this on every verified frame.
// Key-management
// messages report the low word of their nonce as the sequence. It
// accepts exactly the payloads its kind's Decode* accepts
// (FuzzPeekFreshness), so a frame the replay guard cannot read is one
// no handler could decode either.
func PeekFreshness(payload []byte) (ts int64, seq uint32, err error) {
	if len(payload) < 1 {
		return 0, 0, ErrShortBuffer
	}
	le := binary.LittleEndian
	switch Kind(payload[0]) {
	case KindBeacon:
		if len(payload) < beaconSize {
			return 0, 0, ErrShortBuffer
		}
		return int64(le.Uint64(payload[13:])), le.Uint32(payload[9:]), nil
	case KindManeuver:
		if len(payload) < maneuverSize {
			return 0, 0, ErrShortBuffer
		}
		return int64(le.Uint64(payload[18:])), le.Uint32(payload[14:]), nil
	case KindMembership:
		if len(payload) < membershipHeader {
			return 0, 0, ErrShortBuffer
		}
		if n := int(le.Uint16(payload[21:])); len(payload) < membershipHeader+4*n {
			return 0, 0, ErrShortBuffer
		}
		return int64(le.Uint64(payload[13:])), le.Uint32(payload[9:]), nil
	case KindKeyRequest:
		if len(payload) < keyRequestSize {
			return 0, 0, ErrShortBuffer
		}
		return int64(le.Uint64(payload[17:])), uint32(le.Uint64(payload[9:])), nil
	case KindKeyResponse:
		if len(payload) < keyResponseHeader {
			return 0, 0, ErrShortBuffer
		}
		if n := int(le.Uint16(payload[29:])); len(payload) < keyResponseHeader+n {
			return 0, 0, ErrShortBuffer
		}
		return int64(le.Uint64(payload[17:])), uint32(le.Uint64(payload[9:])), nil
	case KindContextProof:
		if len(payload) < contextProofHeader {
			return 0, 0, ErrShortBuffer
		}
		n := int(le.Uint16(payload[21:]))
		if n > MaxProofSamples {
			return 0, 0, ErrTooManySamples
		}
		if len(payload) < contextProofHeader+16*n {
			return 0, 0, ErrShortBuffer
		}
		return int64(le.Uint64(payload[13:])), le.Uint32(payload[9:]), nil
	default:
		return 0, 0, ErrBadKind
	}
}

// AppendTo appends the encoded envelope to buf.
func (e *Envelope) AppendTo(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, envelopeVersion)
	buf = le.AppendUint32(buf, e.SenderID)
	buf = le.AppendUint32(buf, e.CertSerial)
	buf = le.AppendUint16(buf, uint16(len(e.Payload)))
	buf = append(buf, e.Payload...)
	buf = le.AppendUint16(buf, uint16(len(e.Sig)))
	buf = append(buf, e.Sig...)
	return buf
}

// AppendSignedBytes appends the exact byte string a signature covers:
// version, claimed sender, certificate serial and payload.
func (e *Envelope) AppendSignedBytes(buf []byte) []byte {
	buf = append(buf, envelopeVersion)
	buf = binary.LittleEndian.AppendUint32(buf, e.SenderID)
	buf = binary.LittleEndian.AppendUint32(buf, e.CertSerial)
	buf = append(buf, e.Payload...)
	return buf
}

// DecodeEnvelope decodes an envelope into e, reusing the backing arrays
// of e.Payload and e.Sig when they have capacity. The decoded Payload
// and Sig are copies of buf's bytes, so the caller may let buf go (but
// must not hand e's slices to code that outlives the next Decode).
func DecodeEnvelope(buf []byte, e *Envelope) error {
	if len(buf) < 11 {
		return ErrShortBuffer
	}
	if buf[0] != envelopeVersion {
		return ErrBadVersion
	}
	le := binary.LittleEndian
	plen := int(le.Uint16(buf[9:]))
	if len(buf) < 11+plen+2 {
		return ErrShortBuffer
	}
	slen := int(le.Uint16(buf[11+plen:]))
	if len(buf) < 13+plen+slen {
		return ErrShortBuffer
	}
	e.SenderID = le.Uint32(buf[1:])
	e.CertSerial = le.Uint32(buf[5:])
	e.Payload = append(e.Payload[:0], buf[11:11+plen]...)
	e.Sig = append(e.Sig[:0], buf[13+plen:13+plen+slen]...)
	return nil
}

// AppendTo appends the encoded proof to buf; the sample count is capped
// at MaxProofSamples.
func (c *ContextProof) AppendTo(buf []byte) []byte {
	n := min(len(c.Samples), MaxProofSamples)
	le := binary.LittleEndian
	buf = append(buf, byte(KindContextProof))
	buf = le.AppendUint32(buf, c.VehicleID)
	buf = le.AppendUint32(buf, c.PlatoonID)
	buf = le.AppendUint32(buf, c.Seq)
	buf = le.AppendUint64(buf, uint64(c.TimestampN))
	buf = le.AppendUint16(buf, uint16(n))
	for _, smp := range c.Samples[:n] {
		buf = appendFloat(buf, smp.Position)
		buf = appendFloat(buf, smp.Value)
	}
	return buf
}

// DecodeContextProof decodes a proof into c, reusing c.Samples' backing
// array when it has capacity. A proof claiming more than
// MaxProofSamples samples is rejected.
func DecodeContextProof(buf []byte, c *ContextProof) error {
	if len(buf) < contextProofHeader {
		return ErrShortBuffer
	}
	if Kind(buf[0]) != KindContextProof {
		return ErrBadKind
	}
	le := binary.LittleEndian
	n := int(le.Uint16(buf[21:]))
	if n > MaxProofSamples {
		return ErrTooManySamples
	}
	if len(buf) < contextProofHeader+16*n {
		return ErrShortBuffer
	}
	c.VehicleID = le.Uint32(buf[1:])
	c.PlatoonID = le.Uint32(buf[5:])
	c.Seq = le.Uint32(buf[9:])
	c.TimestampN = int64(le.Uint64(buf[13:]))
	c.Samples = c.Samples[:0]
	for off := contextProofHeader; off < contextProofHeader+16*n; off += 16 {
		c.Samples = append(c.Samples, ProofSample{Position: getFloat(buf[off:]), Value: getFloat(buf[off+8:])})
	}
	return nil
}
