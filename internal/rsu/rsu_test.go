package rsu

import (
	"encoding/binary"
	"testing"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/phy"
	"platoonsec/internal/platoon"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
	"platoonsec/internal/vehicle"
)

type fixture struct {
	k   *sim.Kernel
	bus *mac.Bus
	ca  *security.CA
	ta  *Authority
	rsu *RSU
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	k := sim.NewKernel(seed)
	env := phy.DefaultEnvironment()
	env.RayleighFading = false
	env.ShadowSigmaDB = 0
	bus := mac.NewBus(k, phy.NewChannel(env, k.Stream("phy")), mac.DefaultConfig())
	ca, err := security.NewCA(k.Stream("ca"))
	if err != nil {
		t.Fatal(err)
	}
	ta := NewAuthority(ca, k.Stream("ta"))
	r := New(k, bus, ta, 1000, 1000)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return &fixture{k: k, bus: bus, ca: ca, ta: ta, rsu: r}
}

// addVehicleWithClient wires a vehicle agent + key client.
func (f *fixture) addVehicleWithClient(t *testing.T, vid uint32, pos float64) (*platoon.Agent, *Client, *security.SessionKey) {
	t.Helper()
	pairwise := f.ta.Register(vid)
	id, err := f.ca.Issue(vid, 0, 10000*sim.Second, f.k.Stream("keys"))
	if err != nil {
		t.Fatal(err)
	}
	session := &security.SessionKey{}
	client := NewClient(vid, pairwise, session)
	v := vehicle.New(vehicle.ID(vid), vehicle.State{Position: pos, Speed: 25})
	cfg := platoon.DefaultConfig()
	a := platoon.NewAgent(f.k, f.bus, v, message.RoleFree, cfg,
		platoon.WithMessageHook(client.Handle),
		platoon.WithSecurity(&platoon.SecurityOptions{
			Signer: security.NewSigner(id),
		}),
	)
	client.Bind(a)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	return a, client, session
}

func TestKeyRequestServed(t *testing.T) {
	f := newFixture(t, 1)
	_, client, session := f.addVehicleWithClient(t, 7, 980)
	f.k.At(sim.Second, "req", func() { client.RequestKey(1) })
	if err := f.k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if client.KeysReceived() != 1 {
		t.Fatalf("keys received = %d, want 1", client.KeysReceived())
	}
	if session.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", session.Epoch)
	}
	if session.Key == (security.SessionKey{}).Key {
		t.Fatal("session key still zero")
	}
	served, refused := f.rsu.Stats()
	if served != 1 || refused != 0 {
		t.Fatalf("rsu stats = (%d,%d)", served, refused)
	}
}

func TestUnregisteredVehicleRefused(t *testing.T) {
	f := newFixture(t, 2)
	// Vehicle has a certificate but never registered with the TA.
	vid := uint32(8)
	id, err := f.ca.Issue(vid, 0, 10000*sim.Second, f.k.Stream("keys"))
	if err != nil {
		t.Fatal(err)
	}
	session := &security.SessionKey{}
	var pairwise [32]byte // not the TA's
	client := NewClient(vid, pairwise, session)
	v := vehicle.New(vehicle.ID(vid), vehicle.State{Position: 990, Speed: 25})
	a := platoon.NewAgent(f.k, f.bus, v, message.RoleFree, platoon.DefaultConfig(),
		platoon.WithMessageHook(client.Handle),
		platoon.WithSecurity(&platoon.SecurityOptions{Signer: security.NewSigner(id)}),
	)
	client.Bind(a)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	f.k.At(sim.Second, "req", func() { client.RequestKey(1) })
	if err := f.k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if client.KeysReceived() != 0 {
		t.Fatal("unregistered vehicle got a key")
	}
	_, refused := f.rsu.Stats()
	if refused == 0 {
		t.Fatal("no refusal recorded")
	}
}

func TestUnsignedKeyRequestRefused(t *testing.T) {
	f := newFixture(t, 3)
	f.ta.Register(9)
	if err := f.bus.Attach(9, func() float64 { return 990 }, 20, nil); err != nil {
		t.Fatal(err)
	}
	f.k.At(sim.Second, "req", func() {
		req := &message.KeyRequest{VehicleID: 9, PlatoonID: 1, Nonce: 1, TimestampN: int64(f.k.Now())}
		env := &message.Envelope{SenderID: 9, Payload: req.Marshal()}
		_ = f.bus.Send(9, env.Marshal())
	})
	if err := f.k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	served, refused := f.rsu.Stats()
	if served != 0 || refused == 0 {
		t.Fatalf("stats = (%d,%d), want unsigned refusal", served, refused)
	}
}

func TestSenderSpoofedKeyRequestRefused(t *testing.T) {
	f := newFixture(t, 4)
	f.ta.Register(7)
	// Attacker 66 signs with its own valid cert but requests a key as 7.
	attackerID, err := f.ca.Issue(66, 0, 10000*sim.Second, f.k.Stream("keys"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bus.Attach(66, func() float64 { return 990 }, 20, nil); err != nil {
		t.Fatal(err)
	}
	f.k.At(sim.Second, "req", func() {
		req := &message.KeyRequest{VehicleID: 7, PlatoonID: 1, Nonce: 1, TimestampN: int64(f.k.Now())}
		env := security.NewSigner(attackerID).Seal(req.Marshal())
		_ = f.bus.Send(66, env.Marshal())
	})
	if err := f.k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	served, refused := f.rsu.Stats()
	if served != 0 || refused == 0 {
		t.Fatalf("stats = (%d,%d): spoofed request must be refused", served, refused)
	}
}

func TestRotationPush(t *testing.T) {
	f := newFixture(t, 5)
	_, clientA, sessA := f.addVehicleWithClient(t, 7, 980)
	_, clientB, sessB := f.addVehicleWithClient(t, 8, 960)
	f.k.At(sim.Second, "reqA", func() { clientA.RequestKey(1) })
	f.k.At(sim.Second+100*sim.Millisecond, "reqB", func() { clientB.RequestKey(1) })
	f.k.At(3*sim.Second, "rotate", func() { f.rsu.PushRotation(1) })
	if err := f.k.Run(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if sessA.Epoch != 2 || sessB.Epoch != 2 {
		t.Fatalf("epochs = %d,%d, want 2,2", sessA.Epoch, sessB.Epoch)
	}
	if sessA.Key != sessB.Key {
		t.Fatal("rotated keys differ between members")
	}
}

func TestRevocationLocksOut(t *testing.T) {
	f := newFixture(t, 6)
	_, clientA, sessA := f.addVehicleWithClient(t, 7, 980)
	_, clientB, sessB := f.addVehicleWithClient(t, 8, 960)
	f.k.At(sim.Second, "reqA", func() { clientA.RequestKey(1) })
	f.k.At(sim.Second+100*sim.Millisecond, "reqB", func() { clientB.RequestKey(1) })
	// Two distinct reporters accuse vehicle 8.
	f.k.At(2*sim.Second, "report", func() {
		f.ta.Report(8, 7)
		if revoked := f.ta.Report(8, 1); !revoked {
			t.Error("threshold reports did not revoke")
		}
		f.rsu.PushRotation(1)
	})
	if err := f.k.Run(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if sessA.Epoch != 2 {
		t.Fatalf("honest member epoch = %d, want 2", sessA.Epoch)
	}
	if sessB.Epoch != 1 {
		t.Fatalf("revoked member epoch = %d, want stuck at 1", sessB.Epoch)
	}
	// Revoked member's fresh request is refused.
	f.k.At(f.k.Now()+sim.Second, "reqB2", func() { clientB.RequestKey(1) })
	if err := f.k.Run(f.k.Now() + 3*sim.Second); err != nil {
		t.Fatal(err)
	}
	if sessB.Epoch != 1 {
		t.Fatal("revoked member obtained rotated key")
	}
}

func TestAuthorityReportSemantics(t *testing.T) {
	f := newFixture(t, 7)
	// Self-reports never count.
	if f.ta.Report(5, 5) {
		t.Fatal("self-report revoked")
	}
	// Same reporter twice counts once.
	f.ta.Report(5, 6)
	if f.ta.Report(5, 6) {
		t.Fatal("duplicate reporter reached threshold")
	}
	if !f.ta.Report(5, 7) {
		t.Fatal("two distinct reporters did not revoke")
	}
	if !f.ta.Revoked(5) {
		t.Fatal("Revoked = false")
	}
	// Reports against an already-revoked vehicle are no-ops.
	if f.ta.Report(5, 8) {
		t.Fatal("report after revocation returned true")
	}
}

func TestAuthoritySessionKeyLifecycle(t *testing.T) {
	f := newFixture(t, 8)
	k1 := f.ta.SessionKey(1)
	if k1.Epoch != 1 {
		t.Fatalf("initial epoch = %d", k1.Epoch)
	}
	if again := f.ta.SessionKey(1); again != k1 {
		t.Fatal("SessionKey not stable")
	}
	k2 := f.ta.Rotate(1)
	if k2.Epoch != 2 || k2.Key == k1.Key {
		t.Fatalf("rotate: %+v", k2)
	}
	other := f.ta.SessionKey(2)
	if other.Key == k2.Key {
		t.Fatal("different platoons share keys")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	f := newFixture(t, 9)
	a := f.ta.Register(7)
	b := f.ta.Register(7)
	if a != b {
		t.Fatal("Register not idempotent")
	}
	if !f.ta.Registered(7) || f.ta.Registered(8) {
		t.Fatal("Registered wrong")
	}
}

func TestRSUStartStop(t *testing.T) {
	f := newFixture(t, 10)
	if err := f.rsu.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
	f.rsu.Stop()
	f.rsu.Stop() // idempotent
}

// TestRotationRekeysSessionCipher drives an RSU key rotation through
// two encrypting agents. The rotation rewrites each client's SessionKey
// in place — the agent's pointer to it never changes — so the agents'
// cached cipher state must notice the new key by value: after the push,
// frames on the air carry the new epoch and the peers keep accepting
// each other's beacons.
func TestRotationRekeysSessionCipher(t *testing.T) {
	f := newFixture(t, 4)
	type peer struct {
		agent   *platoon.Agent
		client  *Client
		session *security.SessionKey
	}
	var peers []peer
	for _, vid := range []uint32{7, 8} {
		pairwise := f.ta.Register(vid)
		id, err := f.ca.Issue(vid, 0, 10000*sim.Second, f.k.Stream("keys"))
		if err != nil {
			t.Fatal(err)
		}
		session := &security.SessionKey{}
		client := NewClient(vid, pairwise, session)
		v := vehicle.New(vehicle.ID(vid), vehicle.State{Position: 960 + 20*float64(vid-7), Speed: 25})
		a := platoon.NewAgent(f.k, f.bus, v, message.RoleFree, platoon.DefaultConfig(),
			platoon.WithMessageHook(client.Handle),
			platoon.WithSecurity(&platoon.SecurityOptions{
				Signer:  security.NewSigner(id),
				Session: session,
			}),
		)
		client.Bind(a)
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, peer{a, client, session})
	}
	// A passive listener holding the TA's current key records the epoch
	// header of vehicle traffic and, after the rotation, checks that
	// every frame opens under the new key: a cipher still holding the
	// old key schedule would seal a new-epoch header over old-key bytes.
	epochs := map[bool]map[uint32]int{false: {}, true: {}} // rotated? → epoch → frames
	rotated, stale := false, 0
	var listener security.SessionCipher
	if err := f.bus.Attach(900, func() float64 { return 970 }, 20, func(rx mac.Rx) {
		if rx.Src != 7 && rx.Src != 8 || len(rx.Payload) < 4 {
			return
		}
		epochs[rotated][binary.LittleEndian.Uint32(rx.Payload)]++
		if _, err := listener.Open(f.ta.SessionKey(1), rx.Payload); rotated && err != nil {
			stale++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		p := p
		f.k.At(sim.Second, "req", func() { p.client.RequestKey(1) })
	}
	var acceptedBefore uint64
	f.k.At(5*sim.Second, "rotate", func() {
		acceptedBefore = peers[1].agent.Counters().BeaconsAccepted
		f.rsu.PushRotation(1)
	})
	f.k.At(5*sim.Second+200*sim.Millisecond, "settled", func() { rotated = true })
	if err := f.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if p.session.Epoch != 2 {
			t.Fatalf("vehicle %d epoch = %d, want 2", p.agent.ID(), p.session.Epoch)
		}
	}
	if epochs[false][1] == 0 {
		t.Fatalf("no epoch-1 traffic before the rotation: %v", epochs[false])
	}
	if len(epochs[true]) != 1 || epochs[true][2] == 0 {
		t.Fatalf("traffic after the rotation by epoch = %v, want only epoch 2", epochs[true])
	}
	if stale != 0 {
		t.Fatalf("%d frames after the rotation did not open under the new key", stale)
	}
	if after := peers[1].agent.Counters().BeaconsAccepted; after < acceptedBefore+40 {
		t.Fatalf("beacons accepted: %d before rotation, %d at end — traffic stopped decrypting", acceptedBefore, after)
	}
}
