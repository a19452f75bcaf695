package defense

import (
	"errors"
	"fmt"
	"math"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/obs"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
	"platoonsec/internal/vehicle"
)

// ErrImplausible is wrapped by every VPD-ADA drop.
var ErrImplausible = errors.New("defense: implausible message")

// VPDADA is the Vehicular-Platoon-Disruption attack detection algorithm
// of Bermad et al. [10] (§VI-A3): it cross-checks each neighbour's
// *claimed* kinematics against physics and against what this vehicle's
// own ranging sensors actually observe. "The positional information is
// gathered from multiple sources such as LiDAR … and GPS sensor data
// from other platoon members to confirm location information."
//
// Checks, in order:
//
//  1. freshness    — beacon/maneuver timestamps older than FreshWindow
//     (catches replay without requiring signatures);
//  2. kinematics   — per-sender speed jumps beyond physical acceleration
//     limits, or position deltas inconsistent with claimed speed
//     (catches crude FDI and GPS-spoof drift);
//  3. front range  — a sender claiming to sit between this vehicle and
//     its radar-measured predecessor, or right ahead where the radar
//     sees nothing (catches ghost insertions);
//  4. rear range   — symmetric check behind using the rear sensor
//     (catches Sybil ghosts strung out behind the tail).
//
// Detections drop the message and invoke OnDetect, which the trust
// manager and TA-reporting glue subscribe to.
type VPDADA struct {
	// Self is the vehicle whose sensors anchor the cross-checks.
	Self *vehicle.Vehicle
	// FrontSensor measures the gap to the physically nearest vehicle
	// ahead. Nil disables front cross-checks.
	FrontSensor func() (gap, rate float64, ok bool)
	// RearSensor measures the gap to the physically nearest vehicle
	// behind. Nil disables rear cross-checks.
	RearSensor func() (gap float64, ok bool)

	// FreshWindow bounds acceptable timestamp age.
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	FreshWindow sim.Time
	// MaxAccel bounds plausible |Δv/Δt| between beacons, m/s².
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	MaxAccel float64
	// PosTolerance is the allowed claimed-vs-measured position slack
	// for the range cross-checks, m. Size it to ~4σ of the position
	// error sources (GPS noise on the claim, radar noise on the
	// measurement) or honest vehicles get flagged.
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	PosTolerance float64
	// TeleportTolerance is the allowed inconsistency between claimed
	// position deltas and claimed speed, m. The delta of two noisy GPS
	// fixes has √2 the single-fix noise, so this sits wider than
	// PosTolerance.
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	TeleportTolerance float64
	// SpeedTolerance is the allowed claimed-vs-measured speed slack for
	// the identified physical predecessor, m/s.
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	SpeedTolerance float64
	// SeqTolerance is how far a maneuver's sequence number may deviate
	// from the same sender's beacon sequence stream. Forged maneuvers
	// (§V-A3) claim an existing identity but cannot know its live
	// counter, so large jumps betray them. 0 disables the check.
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	SeqTolerance uint32
	// SensorRange bounds how far the range cross-checks reach, m.
	//platoonvet:trusted-sink -- detector calibration: a sender must not be able to widen its own plausibility window
	SensorRange float64
	// AssumedLength is the vehicle length used to convert claimed
	// positions to claimed gaps.
	AssumedLength float64

	// OnDetect, if non-nil, is invoked per detection with the offender
	// and the check that fired.
	OnDetect func(offender uint32, check string)

	last map[uint32]lastSeen
	rx   message.Beacon   // decode scratch for the beacon under Check
	mv   message.Maneuver // decode scratch for the maneuver under Check

	// Detections counts drops by check name.
	Detections map[string]uint64

	rec         obs.Recorder
	nowNS       func() int64
	cDetections *obs.Counter

	// Causal provenance: curParent is the delivery span of the frame
	// currently under Check, so each detection links back to the exact
	// reception that tripped it.
	spans      *span.Store
	curParent  span.ID
	lastDetect span.ID
}

type lastSeen struct {
	speed float64
	pos   float64
	seq   uint32
	at    sim.Time
}

var _ platoon.Filter = (*VPDADA)(nil)

// NewVPDADA builds a detector anchored to self's sensors.
func NewVPDADA(self *vehicle.Vehicle, front func() (float64, float64, bool), rear func() (float64, bool)) *VPDADA {
	return &VPDADA{
		Self:              self,
		FrontSensor:       front,
		RearSensor:        rear,
		FreshWindow:       500 * sim.Millisecond,
		MaxAccel:          10,
		PosTolerance:      6,
		TeleportTolerance: 9,
		SpeedTolerance:    3,
		SeqTolerance:      100,
		SensorRange:       100,
		AssumedLength:     16,
		last:              make(map[uint32]lastSeen),
		Detections:        make(map[string]uint64),
	}
}

// Name implements platoon.Filter.
func (v *VPDADA) Name() string { return "vpd-ada" }

// SetRecorder attaches an observability recorder; nowNS supplies the
// simulated clock in nanoseconds (the detector holds no kernel
// reference).
func (v *VPDADA) SetRecorder(rec obs.Recorder, nowNS func() int64) {
	v.rec = rec
	v.nowNS = nowNS
	if rec != nil {
		v.cDetections = rec.Metrics().Counter("defense.detections")
	} else {
		v.cDetections = nil
	}
}

// SetSpans attaches a causal span store; nowNS supplies the simulated
// clock when no recorder is attached. Nil detaches.
func (v *VPDADA) SetSpans(s *span.Store, nowNS func() int64) {
	v.spans = s
	if nowNS != nil {
		v.nowNS = nowNS
	}
}

// LastDetectSpan returns the span of the most recent detection, zero
// before any detection or with tracing off. The scenario's OnDetect
// glue reads it to parent blacklist/revocation spans.
func (v *VPDADA) LastDetectSpan() span.ID { return v.lastDetect }

func (v *VPDADA) detect(offender uint32, check string) error {
	v.Detections[check]++
	v.cDetections.Inc()
	if v.rec != nil && v.rec.Enabled(obs.LayerDefense, obs.LevelInfo) {
		v.rec.Record(obs.Record{
			AtNS:    v.nowNS(),
			Layer:   obs.LayerDefense,
			Level:   obs.LevelInfo,
			Kind:    "defense.detect",
			Subject: offender,
			Detail:  check,
		})
	}
	if v.spans != nil && v.nowNS != nil {
		v.lastDetect = v.spans.Add(span.Span{
			Parent:  v.curParent,
			AtNS:    v.nowNS(),
			Layer:   obs.LayerDefense,
			Kind:    "defense.detect",
			Subject: offender,
			Detail:  check,
		})
	}
	if v.OnDetect != nil {
		v.OnDetect(offender, check)
	}
	return fmt.Errorf("%w: %s (sender %d)", ErrImplausible, check, offender)
}

// Check implements platoon.Filter.
//
//platoonvet:sanitizer -- VPD-ADA plausibility acceptance of §VI-B: physically impossible claims die here
//platoonvet:taint-source params -- filters inspect envelopes the signature check may not have vouched for in open baselines
func (v *VPDADA) Check(env *message.Envelope, rx mac.Rx, now sim.Time) error {
	v.curParent = rx.Span
	kind, err := env.Kind()
	if err != nil {
		return nil
	}
	switch kind {
	case message.KindManeuver:
		if err := message.DecodeManeuver(env.Payload, &v.mv); err != nil {
			return nil
		}
		if err := v.checkFreshness(env.SenderID, sim.Time(v.mv.TimestampN), now); err != nil {
			return err
		}
		return v.checkManeuverSeq(&v.mv, now)
	case message.KindBeacon:
		if err := message.DecodeBeacon(env.Payload, &v.rx); err != nil {
			return nil
		}
		return v.checkBeacon(&v.rx, now)
	default:
		return nil
	}
}

// checkManeuverSeq compares a maneuver's sequence number against the
// claimed sender's live beacon counter. Agents use one counter for all
// their traffic, so genuine maneuvers sit within a few ticks of the
// last beacon; a forger guessing blind lands far away.
func (v *VPDADA) checkManeuverSeq(m *message.Maneuver, now sim.Time) error {
	if v.SeqTolerance == 0 {
		return nil
	}
	prev, ok := v.last[m.VehicleID]
	if !ok || now-prev.at > 2*sim.Second {
		return nil // no live counter to compare against
	}
	diff := int64(m.Seq) - int64(prev.seq)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(v.SeqTolerance) {
		return v.detect(m.VehicleID, "seq-anomaly")
	}
	return nil
}

func (v *VPDADA) checkFreshness(sender uint32, ts, now sim.Time) error {
	if ts+v.FreshWindow < now || ts > now+50*sim.Millisecond {
		return v.detect(sender, "stale-timestamp")
	}
	return nil
}

func (v *VPDADA) checkBeacon(b *message.Beacon, now sim.Time) error {
	if err := v.checkFreshness(b.VehicleID, sim.Time(b.TimestampN), now); err != nil {
		return err
	}
	// Kinematic consistency with the sender's previous beacon.
	if prev, ok := v.last[b.VehicleID]; ok {
		dt := (now - prev.at).Seconds()
		if dt > 0.01 && dt < 2 {
			if math.Abs(b.Speed-prev.speed)/dt > v.MaxAccel {
				return v.detect(b.VehicleID, "accel-jump")
			}
			meanV := (b.Speed + prev.speed) / 2
			if math.Abs((b.Position-prev.pos)-meanV*dt) > v.TeleportTolerance {
				return v.detect(b.VehicleID, "teleport")
			}
		}
	}

	self := v.Self.State()
	// Front cross-check: claimed gap from my front bumper to the
	// sender's rear bumper.
	claimedFront := (b.Position - v.AssumedLength) - self.Position
	if v.FrontSensor != nil && claimedFront >= 0 && claimedFront <= v.SensorRange {
		gap, rate, ok := v.FrontSensor()
		switch {
		case !ok:
			// Claims to be right ahead where the radar sees nothing.
			return v.detect(b.VehicleID, "ghost-front")
		case claimedFront < gap-v.PosTolerance:
			// Claims to sit between me and my real predecessor.
			return v.detect(b.VehicleID, "ghost-front")
		case claimedFront <= gap+v.PosTolerance:
			// The sender IS my measured predecessor: its claimed speed
			// must match what the radar's range rate implies (catches
			// insider FDI that lies about speed while keeping positions
			// plausible).
			measuredSpeed := self.Speed + rate
			if math.Abs(b.Speed-measuredSpeed) > v.SpeedTolerance {
				return v.detect(b.VehicleID, "speed-mismatch")
			}
		}
	}
	// Rear cross-check (Sybil ghosts behind the tail land here).
	claimedRear := v.Self.RearPosition() - b.Position
	if v.RearSensor != nil && claimedRear >= 0 && claimedRear <= v.SensorRange {
		gap, ok := v.RearSensor()
		switch {
		case !ok:
			return v.detect(b.VehicleID, "ghost-rear")
		case claimedRear < gap-v.PosTolerance:
			return v.detect(b.VehicleID, "ghost-rear")
		}
	}

	v.last[b.VehicleID] = lastSeen{speed: b.Speed, pos: b.Position, seq: b.Seq, at: now}
	return nil
}
