package message

import "testing"

func BenchmarkBeaconMarshal(b *testing.B) {
	bc := &Beacon{
		VehicleID: 7, PlatoonID: 1, Seq: 42, TimestampN: 123456789,
		Role: RoleMember, Position: 1523.25, Speed: 24.8, Accel: -0.3,
		LeaderSpeed: 25, LeaderAccel: 0.1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(bc.Marshal()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBeaconDecode(b *testing.B) {
	buf := (&Beacon{VehicleID: 7, Seq: 42}).Marshal()
	var bc Beacon
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeBeacon(buf, &bc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	payload := (&Beacon{VehicleID: 7}).Marshal()
	env := &Envelope{SenderID: 7, CertSerial: 3, Payload: payload, Sig: make([]byte, 64)}
	var wire []byte
	var got Envelope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire = env.AppendTo(wire[:0])
		if err := DecodeEnvelope(wire, &got); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMembershipMarshal(b *testing.B) {
	m := &Membership{PlatoonID: 1, LeaderID: 1, Seq: 9, Members: make([]uint32, 15)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(m.Marshal()) == 0 {
			b.Fatal("empty")
		}
	}
}
