package main

import (
	"fmt"
	"time"

	"platoonsec/internal/message"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
)

// Security replay sizing: one sender broadcasting beacons to the other
// members of an 8-vehicle platoon, each receiver verifying with its own
// replay guard, as the PKI cells of the tables workload do.
const (
	replayFanout = 7
	replayFrames = 200
)

// securityReplay times the security layer's public API directly:
// CA.Issue, then per frame Signer.Seal and one Verifier.Verify per
// receiver, plus CA.Verify on the sender's certificate. It returns the
// median microseconds per Verify, per CA.Verify and per whole frame
// (seal plus fan-out).
func securityReplay(seed int64) (map[string]float64, error) {
	rng := sim.NewStream(seed, "perfbench-security")
	ca, err := security.NewCA(rng)
	if err != nil {
		return nil, fmt.Errorf("security replay: %w", err)
	}
	sender, err := ca.Issue(1, 0, 1<<62, rng)
	if err != nil {
		return nil, fmt.Errorf("security replay: %w", err)
	}
	signer := security.NewSigner(sender)
	verifiers := make([]*security.Verifier, replayFanout)
	for i := range verifiers {
		verifiers[i] = security.NewVerifier(ca, security.NewReplayGuard(500*sim.Millisecond))
	}

	var verify, caVerify, frame []float64
	for f := 0; f < replayFrames; f++ {
		now := sim.Time(f+1) * 100 * sim.Millisecond
		payload := (&message.Beacon{VehicleID: 1, Seq: uint32(f + 1), TimestampN: int64(now)}).Marshal()
		t0 := time.Now()
		env := signer.Seal(payload)
		for _, v := range verifiers {
			t := time.Now()
			if _, err := v.Verify(env, now); err != nil {
				return nil, fmt.Errorf("security replay frame %d: %w", f, err)
			}
			verify = append(verify, us(time.Since(t)))
		}
		frame = append(frame, us(time.Since(t0)))
		t := time.Now()
		if err := ca.Verify(sender.Cert, now); err != nil {
			return nil, fmt.Errorf("security replay CA check: %w", err)
		}
		caVerify = append(caVerify, us(time.Since(t)))
	}
	return map[string]float64{
		"security.verify_us":           median(verify),
		"security.ca_verify_us":        median(caVerify),
		"security.fanout_us_per_frame": median(frame),
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
