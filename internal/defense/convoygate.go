package defense

import (
	"errors"
	"fmt"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
)

// ErrNoContextProof is wrapped when a join arrives without a valid
// physical-presence proof.
var ErrNoContextProof = errors.New("defense: join without valid context proof")

// ConvoyGate is the leader-side filter completing the Convoy loop: a
// prospective joiner must first broadcast a ContextProof whose
// road-roughness samples correlate with the leader's own suspension
// record; join requests and completions from unproven identities are
// dropped. Ghost vehicles cannot fabricate the proof (they never
// touched the road), so Sybil admission is prevented without any
// cryptography — the "witness systems and sensors" mechanism from the
// paper's conclusion.
type ConvoyGate struct {
	// Verifier holds the leader's own road observations.
	Verifier *ConvoyVerifier
	// ProofWindow is how long a verified proof authorises joins.
	ProofWindow sim.Time

	proven map[uint32]sim.Time
	proof  message.ContextProof // decode scratch for the proof under Check
	mv     message.Maneuver     // decode scratch for the maneuver under Check

	// ProofsAccepted, ProofsRejected, JoinsDropped count outcomes.
	ProofsAccepted, ProofsRejected, JoinsDropped uint64
}

var _ platoon.Filter = (*ConvoyGate)(nil)

// NewConvoyGate builds a gate over the verifier.
func NewConvoyGate(v *ConvoyVerifier) *ConvoyGate {
	return &ConvoyGate{
		Verifier:    v,
		ProofWindow: 30 * sim.Second,
		proven:      make(map[uint32]sim.Time),
	}
}

// Check implements platoon.Filter.
//
//platoonvet:sanitizer -- the convoy ratio gate is a VPD-ADA acceptance decision: frames it passes are treated as plausible
//platoonvet:taint-source params -- filters inspect envelopes the signature check may not have vouched for in open baselines
func (g *ConvoyGate) Check(env *message.Envelope, _ mac.Rx, now sim.Time) error {
	kind, err := env.Kind()
	if err != nil {
		return nil
	}
	switch kind {
	case message.KindContextProof:
		proof := &g.proof
		if err := message.DecodeContextProof(env.Payload, proof); err != nil || proof.VehicleID != env.SenderID {
			return nil
		}
		samples := make([]ContextSample, len(proof.Samples))
		for i, s := range proof.Samples {
			samples[i] = ContextSample{Position: s.Position, Value: s.Value}
		}
		if _, err := g.Verifier.Verify(samples); err != nil {
			g.ProofsRejected++
			return nil // bad proof: ignore, do not authorise
		}
		g.ProofsAccepted++
		g.proven[proof.VehicleID] = now
		return nil
	case message.KindManeuver:
		m := &g.mv
		if err := message.DecodeManeuver(env.Payload, m); err != nil {
			return nil
		}
		if m.Type != message.ManeuverJoinRequest && m.Type != message.ManeuverJoinComplete {
			return nil
		}
		if at, ok := g.proven[m.VehicleID]; ok && now-at <= g.ProofWindow {
			return nil
		}
		g.JoinsDropped++
		return fmt.Errorf("%w: vehicle %d", ErrNoContextProof, m.VehicleID)
	default:
		return nil
	}
}

// Name implements platoon.Filter.
func (g *ConvoyGate) Name() string { return "convoy-gate" }
