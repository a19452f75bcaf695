package message

import "errors"

// KindContextProof extends the message kinds with the Convoy-style
// physical presence proof ([4]): a joiner's recent road-roughness
// samples, presented before a join request so the leader can correlate
// them against its own suspension record.
const KindContextProof Kind = 6

// MaxProofSamples bounds a proof's size (keeps frames within one MTU).
const MaxProofSamples = 64

// ErrTooManySamples reports a proof claiming more than MaxProofSamples
// samples.
var ErrTooManySamples = errors.New("message: context proof over MaxProofSamples samples")

// contextProofHeader is a proof's size before its samples.
const contextProofHeader = 1 + 4 + 4 + 4 + 8 + 2

// ProofSample is one (position, roughness) observation.
type ProofSample struct {
	Position float64
	Value    float64
}

// ContextProof is the §V-A2 ghost-vehicle countermeasure payload.
type ContextProof struct {
	VehicleID  uint32
	PlatoonID  uint32
	Seq        uint32
	TimestampN int64
	Samples    []ProofSample
}

// Marshal encodes the proof; sample count is capped at MaxProofSamples.
func (c *ContextProof) Marshal() []byte {
	return c.AppendTo(make([]byte, 0, contextProofHeader+16*min(len(c.Samples), MaxProofSamples)))
}
