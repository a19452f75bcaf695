package message

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBeaconRoundTrip(t *testing.T) {
	b := &Beacon{
		VehicleID:   7,
		PlatoonID:   3,
		Seq:         42,
		TimestampN:  123456789,
		Role:        RoleMember,
		Position:    1523.25,
		Speed:       24.8,
		Accel:       -0.3,
		LeaderSpeed: 25.0,
		LeaderAccel: 0.1,
	}
	got := &Beacon{}
	if err := DecodeBeacon(b.Marshal(), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip: got %+v, want %+v", got, b)
	}
}

func TestBeaconQuickRoundTrip(t *testing.T) {
	f := func(vid, pid, seq uint32, ts int64, pos, speed, accel float64) bool {
		b := &Beacon{
			VehicleID: vid, PlatoonID: pid, Seq: seq, TimestampN: ts,
			Role: RoleLeader, Position: pos, Speed: speed, Accel: accel,
		}
		got := &Beacon{}
		if err := DecodeBeacon(b.Marshal(), got); err != nil {
			return false
		}
		// NaN != NaN under DeepEqual via ==; compare bit patterns.
		return got.VehicleID == vid && got.Seq == seq &&
			math.Float64bits(got.Position) == math.Float64bits(pos) &&
			math.Float64bits(got.Speed) == math.Float64bits(speed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBeaconErrors(t *testing.T) {
	var got Beacon
	if err := DecodeBeacon(nil, &got); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("nil buffer: %v", err)
	}
	b := (&Beacon{}).Marshal()
	if err := DecodeBeacon(b[:10], &got); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short buffer: %v", err)
	}
	b[0] = byte(KindManeuver)
	if err := DecodeBeacon(b, &got); !errors.Is(err, ErrBadKind) {
		t.Fatalf("wrong kind: %v", err)
	}
}

func TestManeuverRoundTrip(t *testing.T) {
	tests := []ManeuverType{
		ManeuverJoinRequest, ManeuverJoinAccept, ManeuverJoinDeny,
		ManeuverLeaveRequest, ManeuverSplit, ManeuverGapOpen, ManeuverDissolve,
	}
	for _, typ := range tests {
		t.Run(typ.String(), func(t *testing.T) {
			m := &Maneuver{
				Type: typ, VehicleID: 9, PlatoonID: 1, TargetID: 4,
				Seq: 100, TimestampN: 55, Slot: 3, Param: 12.5,
			}
			got := &Maneuver{}
			if err := DecodeManeuver(m.Marshal(), got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip: got %+v, want %+v", got, m)
			}
		})
	}
}

func TestManeuverErrors(t *testing.T) {
	var got Maneuver
	if err := DecodeManeuver([]byte{1, 2}, &got); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short: %v", err)
	}
	buf := (&Maneuver{Type: ManeuverSplit}).Marshal()
	buf[0] = byte(KindBeacon)
	if err := DecodeManeuver(buf, &got); !errors.Is(err, ErrBadKind) {
		t.Fatalf("kind: %v", err)
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	m := &Membership{
		PlatoonID: 1, LeaderID: 10, Seq: 5, TimestampN: 999,
		Members: []uint32{11, 12, 13, 14},
	}
	got := &Membership{}
	if err := DecodeMembership(m.Marshal(), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}

func TestMembershipEmpty(t *testing.T) {
	m := &Membership{PlatoonID: 1, LeaderID: 10}
	var got Membership
	if err := DecodeMembership(m.Marshal(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Members) != 0 {
		t.Fatalf("members = %v, want empty", got.Members)
	}
}

func TestMembershipTruncatedList(t *testing.T) {
	m := &Membership{PlatoonID: 1, LeaderID: 10, Members: []uint32{1, 2, 3}}
	buf := m.Marshal()
	if err := DecodeMembership(buf[:len(buf)-4], &Membership{}); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated list: %v", err)
	}
}

// TestMembershipRosterBound: a roster of MaxRosterMembers survives the
// trip through an envelope; one member more overflows the envelope's
// payload length and does not.
func TestMembershipRosterBound(t *testing.T) {
	for _, n := range []int{MaxRosterMembers, MaxRosterMembers + 1} {
		m := &Membership{PlatoonID: 1, LeaderID: 1, Seq: 3, TimestampN: 5, Members: make([]uint32, n)}
		for i := range m.Members {
			m.Members[i] = uint32(i + 2)
		}
		wire := (&Envelope{SenderID: 1, Payload: m.AppendTo(nil)}).AppendTo(nil)
		var env Envelope
		var got Membership
		survived := DecodeEnvelope(wire, &env) == nil && DecodeMembership(env.Payload, &got) == nil &&
			reflect.DeepEqual(&got, m)
		if survived != (n <= MaxRosterMembers) {
			t.Errorf("%d members: survived = %v", n, survived)
		}
	}
}

func TestContextProofRoundTrip(t *testing.T) {
	c := &ContextProof{VehicleID: 9, PlatoonID: 1, Seq: 4, TimestampN: 77, Samples: make([]ProofSample, MaxProofSamples+5)}
	for i := range c.Samples {
		c.Samples[i] = ProofSample{Position: float64(i), Value: -float64(i) / 8}
	}
	var got ContextProof
	if err := DecodeContextProof(c.Marshal(), &got); err != nil {
		t.Fatal(err)
	}
	c.Samples = c.Samples[:MaxProofSamples] // the encoder caps the count
	if !reflect.DeepEqual(&got, c) {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}
}

func TestKeyRequestRoundTrip(t *testing.T) {
	k := &KeyRequest{VehicleID: 3, PlatoonID: 1, Nonce: 0xDEADBEEF, TimestampN: 7}
	got := &KeyRequest{}
	if err := DecodeKeyRequest(k.Marshal(), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, k) {
		t.Fatalf("round trip: got %+v, want %+v", got, k)
	}
}

func TestKeyResponseRoundTrip(t *testing.T) {
	k := &KeyResponse{
		VehicleID: 3, PlatoonID: 1, Nonce: 42, TimestampN: 7,
		KeyEpoch: 2, SealedKey: []byte{1, 2, 3, 4, 5},
	}
	got := &KeyResponse{}
	if err := DecodeKeyResponse(k.Marshal(), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, k) {
		t.Fatalf("round trip: got %+v, want %+v", got, k)
	}
}

func TestKeyResponseTruncatedKey(t *testing.T) {
	k := &KeyResponse{SealedKey: []byte{1, 2, 3, 4}}
	buf := k.Marshal()
	if err := DecodeKeyResponse(buf[:len(buf)-2], &KeyResponse{}); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated key: %v", err)
	}
}

func TestPeekKind(t *testing.T) {
	b := (&Beacon{}).Marshal()
	k, err := PeekKind(b)
	if err != nil || k != KindBeacon {
		t.Fatalf("PeekKind = %v, %v", k, err)
	}
	if _, err := PeekKind(nil); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("empty: %v", err)
	}
}

func TestKindAndRoleStrings(t *testing.T) {
	if KindBeacon.String() != "beacon" || KindManeuver.String() != "maneuver" {
		t.Fatal("kind strings")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind string empty")
	}
	if RoleLeader.String() != "leader" || Role(200).String() == "" {
		t.Fatal("role strings")
	}
	if ManeuverType(200).String() == "" {
		t.Fatal("unknown maneuver string empty")
	}
}
