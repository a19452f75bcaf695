package defense

import (
	"errors"
	"fmt"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
)

// ErrRateLimited is wrapped by every rate-limiter drop.
var ErrRateLimited = errors.New("defense: rate limited")

// RateLimiter is the DoS guard (§V-D): token buckets per sender plus a
// global bucket for join requests, the resource a join flood exhausts.
// Flood traffic from fabricated IDs dies here before it can occupy the
// leader's pending-join table.
type RateLimiter struct {
	// PerSenderRate is the sustained per-sender message rate (msgs/s).
	PerSenderRate float64
	// PerSenderBurst is the per-sender bucket depth.
	PerSenderBurst float64
	// JoinRate is the global sustained join-request rate (msgs/s).
	JoinRate float64
	// JoinBurst is the global join bucket depth.
	JoinBurst float64

	buckets map[uint32]*bucket
	joins   bucket
	mv      message.Maneuver // decode scratch for the maneuver under Check

	// Dropped counts rate-limited messages.
	Dropped uint64
}

type bucket struct {
	tokens float64
	last   sim.Time
}

func (b *bucket) take(now sim.Time, rate, burst float64) bool {
	if b.last == 0 {
		b.tokens = burst
	}
	b.tokens += rate * (now - b.last).Seconds()
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

var _ platoon.Filter = (*RateLimiter)(nil)

// NewRateLimiter returns limits sized for a 16-member platoon: beacons
// at 10 Hz pass comfortably, floods do not.
func NewRateLimiter() *RateLimiter {
	return &RateLimiter{
		PerSenderRate:  15,
		PerSenderBurst: 30,
		JoinRate:       0.5,
		JoinBurst:      3,
		buckets:        make(map[uint32]*bucket),
	}
}

// Name implements platoon.Filter.
func (r *RateLimiter) Name() string { return "rate-limiter" }

// Check implements platoon.Filter.
//
//platoonvet:sanitizer -- per-sender rate acceptance: frames it passes proceed to the handlers
//platoonvet:taint-source params -- filters inspect envelopes the signature check may not have vouched for in open baselines
func (r *RateLimiter) Check(env *message.Envelope, _ mac.Rx, now sim.Time) error {
	b := r.buckets[env.SenderID]
	if b == nil {
		b = &bucket{}
		r.buckets[env.SenderID] = b
	}
	if !b.take(now, r.PerSenderRate, r.PerSenderBurst) {
		r.Dropped++
		return fmt.Errorf("%w: sender %d over %g msg/s", ErrRateLimited, env.SenderID, r.PerSenderRate)
	}
	kind, err := env.Kind()
	if err != nil {
		return nil // malformed payloads are someone else's problem
	}
	if kind == message.KindManeuver {
		if message.DecodeManeuver(env.Payload, &r.mv) == nil && r.mv.Type == message.ManeuverJoinRequest {
			if !r.joins.take(now, r.JoinRate, r.JoinBurst) {
				r.Dropped++
				return fmt.Errorf("%w: global join-request budget exhausted", ErrRateLimited)
			}
		}
	}
	return nil
}
