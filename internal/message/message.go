// Package message defines the wire formats exchanged over platoon V2X
// links: CAM-style beacons, maneuver control messages, and key-management
// messages, together with a compact deterministic binary codec and a
// signable envelope.
//
// The formats follow the information flow the paper describes (§II-B):
// beacons carry "speed, location, change in speed and direction" plus the
// leader's state, and maneuver messages carry join/leave/split requests —
// the objects fake-maneuver attacks forge (§V-A3).
package message

import (
	"errors"
	"fmt"
	"math"
)

// Kind discriminates message types inside an envelope.
type Kind uint8

// Message kinds.
const (
	KindBeacon Kind = iota + 1
	KindManeuver
	KindKeyRequest
	KindKeyResponse
	KindMembership
)

func (k Kind) String() string {
	switch k {
	case KindBeacon:
		return "beacon"
	case KindManeuver:
		return "maneuver"
	case KindKeyRequest:
		return "key-request"
	case KindKeyResponse:
		return "key-response"
	case KindMembership:
		return "membership"
	case KindContextProof:
		return "context-proof"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Role is a vehicle's role within a platoon.
type Role uint8

// Roles.
const (
	RoleFree Role = iota + 1
	RoleLeader
	RoleMember
	RoleJoining
	RoleLeaving
)

func (r Role) String() string {
	switch r {
	case RoleFree:
		return "free"
	case RoleLeader:
		return "leader"
	case RoleMember:
		return "member"
	case RoleJoining:
		return "joining"
	case RoleLeaving:
		return "leaving"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("message: short buffer")
	ErrBadKind     = errors.New("message: wrong kind")
)

// Beacon is the periodic cooperative-awareness message every platoon
// vehicle broadcasts (typically at 10 Hz). CACC consumes the predecessor
// and leader fields.
type Beacon struct {
	VehicleID  uint32
	PlatoonID  uint32
	Seq        uint32
	TimestampN int64 // sim.Time in nanoseconds
	Role       Role

	Position float64 // m along road
	Speed    float64 // m/s
	Accel    float64 // m/s²

	// Leader state as known to the sender; members repeat the leader's
	// values so CACC followers have a fresh leader reference even under
	// loss.
	LeaderSpeed float64
	LeaderAccel float64
}

const beaconSize = 1 + 4 + 4 + 4 + 8 + 1 + 8*5

// Marshal encodes the beacon.
func (b *Beacon) Marshal() []byte { return b.AppendTo(make([]byte, 0, beaconSize)) }

// ManeuverType enumerates platoon maneuvers (§V-A3: fake entrance, fake
// leave, fake split are forged instances of these).
type ManeuverType uint8

// Maneuver types.
const (
	ManeuverJoinRequest ManeuverType = iota + 1
	ManeuverJoinAccept
	ManeuverJoinDeny
	ManeuverJoinComplete
	ManeuverLeaveRequest
	ManeuverLeaveAccept
	ManeuverSplit
	ManeuverGapOpen
	ManeuverGapClose
	ManeuverDissolve
)

func (m ManeuverType) String() string {
	switch m {
	case ManeuverJoinRequest:
		return "join-request"
	case ManeuverJoinAccept:
		return "join-accept"
	case ManeuverJoinDeny:
		return "join-deny"
	case ManeuverJoinComplete:
		return "join-complete"
	case ManeuverLeaveRequest:
		return "leave-request"
	case ManeuverLeaveAccept:
		return "leave-accept"
	case ManeuverSplit:
		return "split"
	case ManeuverGapOpen:
		return "gap-open"
	case ManeuverGapClose:
		return "gap-close"
	case ManeuverDissolve:
		return "dissolve"
	default:
		return fmt.Sprintf("maneuver(%d)", uint8(m))
	}
}

// Maneuver is a platoon control message.
type Maneuver struct {
	Type       ManeuverType
	VehicleID  uint32 // originator
	PlatoonID  uint32
	TargetID   uint32 // addressee vehicle (0 = whole platoon)
	Seq        uint32
	TimestampN int64
	// Slot is the platoon position index a join targets or a split
	// occurs at.
	Slot uint16
	// Param carries a maneuver-specific value (e.g. requested gap in
	// metres for GapOpen).
	Param float64
}

const maneuverSize = 1 + 1 + 4 + 4 + 4 + 4 + 8 + 2 + 8

// Marshal encodes the maneuver.
func (m *Maneuver) Marshal() []byte { return m.AppendTo(make([]byte, 0, maneuverSize)) }

// Membership is the leader's periodic roster announcement: the ordered
// list of member vehicle IDs. Sybil ghosts that get admitted show up
// here, which is how Table II's "leader thinks there are more vehicles
// than there really are" effect is measured.
type Membership struct {
	PlatoonID  uint32
	LeaderID   uint32
	Seq        uint32
	TimestampN int64
	Members    []uint32 // ordered front-to-back, excluding the leader
}

// membershipHeader is a roster's size before its member list.
const membershipHeader = 1 + 4 + 4 + 4 + 8 + 2

// MaxRosterMembers is the longest roster that survives the wire: a
// roster costs membershipHeader bytes plus 4 per member, and the
// envelope carries it under a uint16 payload length. A longer roster
// encodes without error but reaches receivers truncated.
const MaxRosterMembers = (math.MaxUint16 - membershipHeader) / 4

// Marshal encodes the roster.
func (m *Membership) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, membershipHeader+4*len(m.Members)))
}

// KeyRequest asks an RSU / trusted authority for the current platoon
// session key (§VI-A2).
type KeyRequest struct {
	VehicleID  uint32
	PlatoonID  uint32
	Nonce      uint64
	TimestampN int64
}

const keyRequestSize = 1 + 4 + 4 + 8 + 8

// Marshal encodes the request.
func (k *KeyRequest) Marshal() []byte { return k.AppendTo(make([]byte, 0, keyRequestSize)) }

// KeyResponse carries a (sealed) session key from the RSU to a vehicle.
type KeyResponse struct {
	VehicleID  uint32
	PlatoonID  uint32
	Nonce      uint64 // echoes the request nonce
	TimestampN int64
	KeyEpoch   uint32
	SealedKey  []byte // key encrypted to the vehicle (opaque here)
}

// keyResponseHeader is a response's size before its sealed key.
const keyResponseHeader = 1 + 4 + 4 + 8 + 8 + 4 + 2

// Marshal encodes the response.
func (k *KeyResponse) Marshal() []byte {
	return k.AppendTo(make([]byte, 0, keyResponseHeader+len(k.SealedKey)))
}

// PeekKind returns the kind byte of an encoded message without decoding
// it.
//
//platoonvet:routing-safe -- a one-byte discriminator for routing; callers still verify before trusting the message body
func PeekKind(buf []byte) (Kind, error) {
	if len(buf) < 1 {
		return 0, ErrShortBuffer
	}
	return Kind(buf[0]), nil
}
