// Package rsu implements roadside units and the trusted authority behind
// them (§VI-A2 of the paper): registration of vehicles with pairwise
// secrets, distribution of platoon session keys through RSUs acting as
// intermediaries, key-epoch rotation, misbehaviour reporting, and
// certificate revocation.
//
// The RSU "has limited authority. Its primary role is to distribute
// secret keys to authorised users" — exactly the shape implemented here:
// the RSU verifies a signed KeyRequest, checks revocation with the TA,
// and answers with the current session key sealed to the requester.
package rsu

import (
	"errors"
	"fmt"

	"platoonsec/internal/detmap"
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
)

// Authority is the trusted authority: CA plus session-key management and
// misbehaviour accounting. One Authority backs any number of RSUs.
type Authority struct {
	// CA signs and revokes vehicle certificates.
	CA *security.CA
	// RevokeThreshold is how many distinct misbehaviour reporters it
	// takes to revoke a vehicle.
	RevokeThreshold int

	rng       *sim.Stream
	pairwise  map[uint32][32]byte
	sessions  map[uint32]security.SessionKey
	reporters map[uint32]map[uint32]bool // accused → set of reporters
	revoked   map[uint32]bool
}

// NewAuthority creates a TA around an existing CA.
func NewAuthority(ca *security.CA, rng *sim.Stream) *Authority {
	return &Authority{
		CA:              ca,
		RevokeThreshold: 2,
		rng:             rng,
		pairwise:        make(map[uint32][32]byte),
		sessions:        make(map[uint32]security.SessionKey),
		reporters:       make(map[uint32]map[uint32]bool),
		revoked:         make(map[uint32]bool),
	}
}

// Register enrols a vehicle, returning the pairwise secret it shares
// with the TA (out-of-band provisioning at subscription time).
func (ta *Authority) Register(vehicleID uint32) [32]byte {
	if s, ok := ta.pairwise[vehicleID]; ok {
		return s
	}
	var s [32]byte
	ta.rng.Bytes(s[:])
	ta.pairwise[vehicleID] = s
	return s
}

// Registered reports whether the vehicle is enrolled.
func (ta *Authority) Registered(vehicleID uint32) bool {
	_, ok := ta.pairwise[vehicleID]
	return ok
}

// SessionKey returns (creating on demand) the current session key for a
// platoon.
func (ta *Authority) SessionKey(platoonID uint32) security.SessionKey {
	if k, ok := ta.sessions[platoonID]; ok {
		return k
	}
	k := security.NewSessionKey(1, ta.rng)
	ta.sessions[platoonID] = k
	return k
}

// Rotate advances a platoon's key epoch and returns the new key.
func (ta *Authority) Rotate(platoonID uint32) security.SessionKey {
	k := ta.SessionKey(platoonID).Rotate()
	ta.sessions[platoonID] = k
	return k
}

// Report records a misbehaviour accusation from reporter against
// accused. When RevokeThreshold distinct reporters agree, the accused's
// certificates are revoked and Report returns true. Self-reports are
// ignored, and a single malicious reporter can never exceed one vote —
// the witness-counting property the REPLACE scheme [6] relies on.
func (ta *Authority) Report(accused, reporter uint32) (revoked bool) {
	if accused == reporter || ta.revoked[accused] {
		return false
	}
	set := ta.reporters[accused]
	if set == nil {
		set = make(map[uint32]bool)
		ta.reporters[accused] = set
	}
	set[reporter] = true
	if len(set) >= ta.RevokeThreshold {
		ta.CA.RevokeVehicle(accused)
		ta.revoked[accused] = true
		return true
	}
	return false
}

// Revoked reports whether a vehicle has been revoked by the TA.
func (ta *Authority) Revoked(vehicleID uint32) bool { return ta.revoked[vehicleID] }

// RSU is one roadside unit: a bus station that answers key requests and
// pushes rotations to its subscribers.
type RSU struct {
	// ID is the RSU's node ID on the bus.
	ID mac.NodeID
	// Position is its fixed road coordinate.
	Position float64
	// TxPowerDBm is its transmit power (RSUs are mains-powered; default
	// is hotter than a vehicle).
	TxPowerDBm float64

	k        *sim.Kernel
	bus      *mac.Bus
	ta       *Authority
	verifier *security.Verifier
	rxEnv    message.Envelope // decode scratch for the frame under onRx

	subscribers map[uint32]uint32 // vehicleID → platoonID
	served      uint64
	refused     uint64
	started     bool
}

// New creates an RSU at the given position backed by ta.
func New(k *sim.Kernel, bus *mac.Bus, ta *Authority, id mac.NodeID, position float64) *RSU {
	return &RSU{
		ID:          id,
		Position:    position,
		TxPowerDBm:  26,
		k:           k,
		bus:         bus,
		ta:          ta,
		verifier:    security.NewVerifier(ta.CA, security.NewReplayGuard(sim.Second)),
		subscribers: make(map[uint32]uint32),
	}
}

// Stats returns served and refused key-request counts.
func (r *RSU) Stats() (served, refused uint64) { return r.served, r.refused }

// Start attaches the RSU to the bus.
func (r *RSU) Start() error {
	if r.started {
		return errors.New("rsu: already started")
	}
	err := r.bus.Attach(r.ID, func() float64 { return r.Position }, r.TxPowerDBm, r.onRx)
	if err != nil {
		return fmt.Errorf("rsu: start: %w", err)
	}
	r.started = true
	return nil
}

// Stop detaches the RSU.
func (r *RSU) Stop() {
	if r.started {
		r.bus.Detach(r.ID)
		r.started = false
	}
}

func (r *RSU) onRx(rx mac.Rx) {
	env := &r.rxEnv
	if err := message.DecodeEnvelope(rx.Payload, env); err != nil {
		return
	}
	kind, err := env.Kind()
	if err != nil || kind != message.KindKeyRequest {
		return
	}
	now := r.k.Now()
	// Key requests MUST be signed: this is the authorisation boundary.
	if _, err := r.verifier.Verify(env, now); err != nil {
		r.refused++
		return
	}
	var req message.KeyRequest
	if err := message.DecodeKeyRequest(env.Payload, &req); err != nil {
		r.refused++
		return
	}
	if req.VehicleID != env.SenderID {
		r.refused++
		return
	}
	if !r.ta.Registered(req.VehicleID) || r.ta.Revoked(req.VehicleID) {
		r.refused++
		return
	}
	r.subscribers[req.VehicleID] = req.PlatoonID
	r.served++
	r.respond(req.VehicleID, req.PlatoonID, req.Nonce, now)
}

// respond sends the current session key sealed to one vehicle.
func (r *RSU) respond(vehicleID, platoonID uint32, nonce uint64, now sim.Time) {
	key := r.ta.SessionKey(platoonID)
	pairwise := r.ta.pairwise[vehicleID]
	resp := &message.KeyResponse{
		VehicleID:  vehicleID,
		PlatoonID:  platoonID,
		Nonce:      nonce,
		TimestampN: int64(now),
		KeyEpoch:   key.Epoch,
		SealedKey:  security.SealToVehicle(key, pairwise, vehicleID),
	}
	//platoonvet:alloc-ok key responses are per-join handshakes, not per-frame traffic
	env := &message.Envelope{SenderID: uint32(r.ID), Payload: resp.Marshal()}
	//platoonvet:allow errcheck -- Send fails only for a detached node; an RSU taken off-air simply stops serving keys, which the protocol tolerates
	_ = r.bus.Send(r.ID, env.Marshal())
}

// PushRotation distributes a fresh key epoch to all current subscribers
// of the platoon — the TA's lever for locking out a revoked member.
// Subscribers are walked in sorted-ID order: each send schedules bus
// events, so map-order iteration here would make frame timing (and
// every downstream tie-break) vary run to run under the same seed.
func (r *RSU) PushRotation(platoonID uint32) {
	key := r.ta.Rotate(platoonID)
	now := r.k.Now()
	for _, vid := range detmap.SortedKeys(r.subscribers) {
		if r.subscribers[vid] != platoonID {
			continue
		}
		if r.ta.Revoked(vid) {
			delete(r.subscribers, vid)
			continue
		}
		resp := &message.KeyResponse{
			VehicleID:  vid,
			PlatoonID:  platoonID,
			Nonce:      0, // unsolicited push
			TimestampN: int64(now),
			KeyEpoch:   key.Epoch,
			SealedKey:  security.SealToVehicle(key, r.ta.pairwise[vid], vid),
		}
		env := &message.Envelope{SenderID: uint32(r.ID), Payload: resp.Marshal()}
		//platoonvet:allow errcheck -- Send fails only for a detached node; an RSU taken off-air simply stops serving keys, which the protocol tolerates
		_ = r.bus.Send(r.ID, env.Marshal())
	}
}
