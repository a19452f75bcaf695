package attack

import (
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// Replay records platoon frames off the air and re-injects them later,
// byte for byte (§V-A1). Because the frames were genuine, they carry
// valid signatures — only freshness checks (timestamps/sequence numbers,
// §VI-A1) defeat the attack. Against an encrypted platoon the recorded
// ciphertext replays equally well, which is why encryption alone is not
// replay protection.
type Replay struct {
	// RecordFor is how long the attacker listens before replaying.
	RecordFor sim.Time
	// ReplayPeriod is the interval between injected frames.
	ReplayPeriod sim.Time
	// MaxRecorded bounds the capture buffer.
	MaxRecorded int
	// KindFilter, when non-zero, records only envelopes of this kind
	// (decodable traffic only; encrypted frames are recorded regardless
	// because the attacker cannot classify them).
	KindFilter message.Kind

	radio    *Radio
	k        *sim.Kernel
	captured [][]byte
	rxEnv    message.Envelope // decode scratch for KindFilter
	next     int
	ticker   *sim.Ticker
	started  bool

	// Recorded counts captured frames; Replayed counts injections.
	Recorded, Replayed uint64
}

var _ Attack = (*Replay)(nil)

// NewReplay builds a replay attacker using the given radio.
func NewReplay(k *sim.Kernel, radio *Radio) *Replay {
	return &Replay{
		RecordFor:    5 * sim.Second,
		ReplayPeriod: 200 * sim.Millisecond,
		MaxRecorded:  512,
		radio:        radio,
		k:            k,
	}
}

// Name implements Attack.
func (r *Replay) Name() string { return "replay" }

// Start implements Attack.
func (r *Replay) Start() error {
	if r.started {
		return errAlreadyStarted("replay")
	}
	if err := r.radio.Start(r.onRx); err != nil {
		return err
	}
	r.started = true
	start := r.k.Now() + r.RecordFor
	r.ticker = r.k.Every(start, r.ReplayPeriod, "attack.replay", r.injectOne)
	return nil
}

// Stop implements Attack.
func (r *Replay) Stop() {
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
	r.radio.Stop()
	r.started = false
}

func (r *Replay) onRx(rx mac.Rx) {
	if len(r.captured) >= r.MaxRecorded {
		return
	}
	if r.KindFilter != 0 {
		if message.DecodeEnvelope(rx.Payload, &r.rxEnv) == nil {
			if kind, kerr := r.rxEnv.Kind(); kerr == nil && kind != r.KindFilter {
				return
			}
		}
	}
	//platoonvet:alloc-ok the copy is mandatory: the MAC reuses its rx payload buffer after delivery returns
	cp := make([]byte, len(rx.Payload))
	copy(cp, rx.Payload)
	r.captured = append(r.captured, cp)
	r.Recorded++
}

//platoonvet:taint-source -- captured frames re-sent verbatim (Table II replay)
func (r *Replay) injectOne() {
	if len(r.captured) == 0 {
		return
	}
	frame := r.captured[r.next%len(r.captured)]
	r.next++
	r.radio.SendRaw(frame)
	r.Replayed++
}

func errAlreadyStarted(name string) error {
	return &startedError{name: name}
}

type startedError struct{ name string }

func (e *startedError) Error() string { return "attack: " + e.name + " already started" }
