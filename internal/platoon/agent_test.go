package platoon

import (
	"math"
	"sort"
	"testing"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/phy"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
	"platoonsec/internal/vehicle"
)

// world is a minimal test harness: kernel, quiet channel, bus, and a
// line of vehicles with physical gap sensing.
type world struct {
	k      *sim.Kernel
	bus    *mac.Bus
	vehs   []*vehicle.Vehicle
	agents []*Agent
}

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	k := sim.NewKernel(seed)
	env := phy.DefaultEnvironment()
	env.RayleighFading = false
	env.ShadowSigmaDB = 0
	ch := phy.NewChannel(env, k.Stream("phy"))
	return &world{k: k, bus: mac.NewBus(k, ch, mac.DefaultConfig())}
}

// gapSensor returns a closure measuring the physical gap to the nearest
// vehicle ahead of v.
func (w *world) gapSensor(v *vehicle.Vehicle) func() (float64, float64, bool) {
	return func() (float64, float64, bool) {
		var ahead *vehicle.Vehicle
		best := math.Inf(1)
		for _, o := range w.vehs {
			if o == v {
				continue
			}
			d := o.State().Position - v.State().Position
			if d > 0 && d < best {
				best = d
				ahead = o
			}
		}
		if ahead == nil || v.Gap(ahead) > 150 {
			return 0, 0, false
		}
		return v.Gap(ahead), ahead.State().Speed - v.State().Speed, true
	}
}

// physics drives vehicle dynamics at 10 ms.
func (w *world) startPhysics() {
	w.k.Every(0, 10*sim.Millisecond, "physics", func() {
		for _, v := range w.vehs {
			v.Dyn.Step(0.01)
		}
	})
}

// addVehicle creates a vehicle + agent at the given position.
func (w *world) addVehicle(t *testing.T, id uint32, pos, speed float64, role message.Role, cfg Config, opts ...Option) *Agent {
	t.Helper()
	v := vehicle.New(vehicle.ID(id), vehicle.State{Position: pos, Speed: speed})
	w.vehs = append(w.vehs, v)
	opts = append(opts, WithGapSensor(w.gapSensor(v)))
	a := NewAgent(w.k, w.bus, v, role, cfg, opts...)
	w.agents = append(w.agents, a)
	return a
}

// buildPlatoon creates a pre-formed platoon of n vehicles (leader +
// n-1 members) cruising at cfg.CruiseSpeed, and starts everything.
func buildPlatoon(t *testing.T, w *world, n int, cfg Config, memberOpts ...Option) (*Agent, []*Agent) {
	t.Helper()
	pos := 2000.0
	leader := w.addVehicle(t, 1, pos, cfg.CruiseSpeed, message.RoleLeader, cfg)
	var members []*Agent
	var roster []uint32
	for i := 2; i <= n; i++ {
		pos -= 16.0 + cfg.DesiredGap
		m := w.addVehicle(t, uint32(i), pos, cfg.CruiseSpeed, message.RoleMember, cfg, memberOpts...)
		members = append(members, m)
		roster = append(roster, uint32(i))
	}
	leader.Bootstrap(1, roster)
	for _, m := range members {
		m.Bootstrap(1, roster)
	}
	for _, a := range append([]*Agent{leader}, members...) {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.startPhysics()
	return leader, members
}

func TestPlatoonSteadyState(t *testing.T) {
	w := newWorld(t, 1)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 5, cfg)
	if err := w.k.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Role() != message.RoleMember {
			t.Fatalf("member %d role = %v", i, m.Role())
		}
		if m.Disbanded() {
			t.Fatalf("member %d disbanded in steady state", i)
		}
		if !m.LeaderFresh(w.k.Now()) {
			t.Fatalf("member %d has stale leader info", i)
		}
	}
	// Gaps should hold near the 8 m target.
	for i := 1; i < len(w.vehs); i++ {
		gap := w.vehs[i].Gap(w.vehs[i-1])
		if math.Abs(gap-cfg.DesiredGap) > 1.5 {
			t.Fatalf("gap %d = %v, want ~%v", i, gap, cfg.DesiredGap)
		}
	}
	lc := leader.Counters()
	if lc.BeaconsSent < 250 {
		t.Fatalf("leader beacons sent = %d over 30 s, want ~300", lc.BeaconsSent)
	}
	mc := members[0].Counters()
	if mc.BeaconsAccepted < 500 {
		t.Fatalf("member beacons accepted = %d, suspiciously few", mc.BeaconsAccepted)
	}
}

func TestPlatoonTracksLeaderSpeedChange(t *testing.T) {
	w := newWorld(t, 2)
	cfg := DefaultConfig()
	profile := func(now sim.Time) float64 {
		if now > 10*sim.Second {
			return 28
		}
		return 25
	}
	pos := 2000.0
	leader := w.addVehicle(t, 1, pos, 25, message.RoleLeader, cfg, WithSpeedProfile(profile))
	var members []*Agent
	var roster []uint32
	for i := 2; i <= 5; i++ {
		pos -= 16.0 + cfg.DesiredGap
		m := w.addVehicle(t, uint32(i), pos, 25, message.RoleMember, cfg)
		members = append(members, m)
		roster = append(roster, uint32(i))
	}
	leader.Bootstrap(1, roster)
	for _, m := range members {
		m.Bootstrap(1, roster)
	}
	for _, a := range w.agents {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.startPhysics()
	if err := w.k.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range w.vehs {
		if got := v.State().Speed; math.Abs(got-28) > 0.3 {
			t.Fatalf("vehicle %d speed = %v, want ~28", i, got)
		}
	}
}

func TestJoinProtocol(t *testing.T) {
	w := newWorld(t, 3)
	cfg := DefaultConfig()
	_, members := buildPlatoon(t, w, 3, cfg)
	// A free vehicle approaches from behind the tail.
	tailPos := w.vehs[len(w.vehs)-1].State().Position
	joiner := w.addVehicle(t, 9, tailPos-60, cfg.CruiseSpeed+2, message.RoleFree, cfg)
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	w.k.At(2*sim.Second, "join", joiner.RequestJoin)
	if err := w.k.Run(90 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if joiner.Role() != message.RoleMember {
		t.Fatalf("joiner role = %v, want member", joiner.Role())
	}
	roster := members[0].Roster()
	found := false
	for _, id := range roster {
		if id == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("joiner not in roster %v", roster)
	}
	gap := w.vehs[3].Gap(w.vehs[2])
	if gap > cfg.DesiredGap+cfg.JoinCompleteGap+2 {
		t.Fatalf("joiner gap = %v, did not close in", gap)
	}
}

func TestLeaveProtocol(t *testing.T) {
	w := newWorld(t, 4)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 4, cfg)
	w.k.At(5*sim.Second, "leave", members[1].RequestLeave)
	if err := w.k.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if members[1].Role() != message.RoleFree {
		t.Fatalf("leaver role = %v, want free", members[1].Role())
	}
	for _, id := range leader.Roster() {
		if id == members[1].ID() {
			t.Fatal("leaver still in leader roster")
		}
	}
	// Remaining members still platooning.
	if members[0].Role() != message.RoleMember || members[2].Role() != message.RoleMember {
		t.Fatal("other members disturbed by leave")
	}
}

func TestSplitManeuver(t *testing.T) {
	w := newWorld(t, 5)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 6, cfg) // 5 members
	w.k.At(5*sim.Second, "split", func() { leader.AnnounceSplit(2) })
	if err := w.k.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(leader.Roster()); got != 2 {
		t.Fatalf("leader roster = %d, want 2", got)
	}
	for i, m := range members {
		want := message.RoleMember
		if i >= 2 {
			want = message.RoleFree
		}
		if m.Role() != want {
			t.Fatalf("member %d role = %v, want %v", i, m.Role(), want)
		}
	}
}

func TestDisbandOnLeaderSilence(t *testing.T) {
	w := newWorld(t, 6)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 4, cfg)
	// Leader radio dies at t=10 s.
	w.k.At(10*sim.Second, "leader-dies", leader.Stop)
	if err := w.k.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if !m.Disbanded() {
			t.Fatalf("member %d not disbanded after leader silence", i)
		}
	}
}

func TestGapOpenAndClose(t *testing.T) {
	w := newWorld(t, 7)
	cfg := DefaultConfig()
	cfg.GapOpenTimeout = 0
	leader, members := buildPlatoon(t, w, 4, cfg)
	target := members[1]
	w.k.At(5*sim.Second, "gap-open", func() { leader.OpenGap(target.ID(), 24) })
	if err := w.k.Run(40 * sim.Second); err != nil {
		t.Fatal(err)
	}
	gap := target.Vehicle().Gap(members[0].Vehicle())
	if gap < 20 {
		t.Fatalf("gap after OpenGap = %v, want ~24", gap)
	}
	// Close it again.
	w.k.At(w.k.Now(), "gap-close", func() {
		leader.sendManeuver(message.ManeuverGapClose, target.ID(), 0, 0)
	})
	if err := w.k.Run(w.k.Now() + 40*sim.Second); err != nil {
		t.Fatal(err)
	}
	gap = target.Vehicle().Gap(members[0].Vehicle())
	if math.Abs(gap-cfg.DesiredGap) > 2 {
		t.Fatalf("gap after GapClose = %v, want ~%v", gap, cfg.DesiredGap)
	}
}

func TestGapOpenTimeout(t *testing.T) {
	w := newWorld(t, 8)
	cfg := DefaultConfig()
	cfg.GapOpenTimeout = 5 * sim.Second
	leader, members := buildPlatoon(t, w, 3, cfg)
	target := members[1]
	w.k.At(2*sim.Second, "gap-open", func() { leader.OpenGap(target.ID(), 30) })
	if err := w.k.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// After the timeout, the gap override expires and spacing recovers.
	if got := target.GapTarget(w.k.Now()); got != cfg.DesiredGap {
		t.Fatalf("gap target = %v after timeout, want %v", got, cfg.DesiredGap)
	}
}

func TestMaxMembersDeniesJoin(t *testing.T) {
	w := newWorld(t, 9)
	cfg := DefaultConfig()
	cfg.MaxMembers = 3                      // leader + roster of 3
	leader, _ := buildPlatoon(t, w, 4, cfg) // roster already 3
	joiner := w.addVehicle(t, 20, w.vehs[len(w.vehs)-1].State().Position-50, cfg.CruiseSpeed, message.RoleFree, cfg)
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	w.k.At(2*sim.Second, "join", joiner.RequestJoin)
	if err := w.k.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if joiner.Role() != message.RoleFree {
		t.Fatalf("joiner admitted past MaxMembers: %v", joiner.Role())
	}
	if leader.Counters().JoinsDenied == 0 {
		t.Fatal("no denial recorded")
	}
}

func TestSignedPlatoonRejectsUnsignedInjection(t *testing.T) {
	w := newWorld(t, 10)
	cfg := DefaultConfig()
	ca, err := security.NewCA(w.k.Stream("ca"))
	if err != nil {
		t.Fatal(err)
	}
	mkSec := func(vid uint32) *SecurityOptions {
		id, err := ca.Issue(vid, 0, 1000*sim.Second, w.k.Stream("keys"))
		if err != nil {
			t.Fatal(err)
		}
		return &SecurityOptions{
			Signer:   security.NewSigner(id),
			Verifier: security.NewVerifier(ca, nil),
		}
	}
	pos := 2000.0
	leader := w.addVehicle(t, 1, pos, 25, message.RoleLeader, cfg, WithSecurity(mkSec(1)))
	pos -= 24
	member := w.addVehicle(t, 2, pos, 25, message.RoleMember, cfg, WithSecurity(mkSec(2)))
	leader.Bootstrap(1, []uint32{2})
	member.Bootstrap(1, []uint32{2})
	for _, a := range w.agents {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.startPhysics()

	// Attacker node injects an unsigned dissolve.
	if err := w.bus.Attach(66, func() float64 { return 1990 }, 20, nil); err != nil {
		t.Fatal(err)
	}
	w.k.At(5*sim.Second, "inject", func() {
		m := &message.Maneuver{
			Type: message.ManeuverDissolve, VehicleID: 1, PlatoonID: cfg.PlatoonID,
			Seq: 9999, TimestampN: int64(w.k.Now()),
		}
		env := &message.Envelope{SenderID: 1, Payload: m.Marshal()}
		_ = w.bus.Send(66, env.Marshal())
	})
	if err := w.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if member.Role() != message.RoleMember {
		t.Fatalf("unsigned dissolve accepted: role = %v", member.Role())
	}
	if member.Counters().VerifyDrops == 0 {
		t.Fatal("no verify drop recorded")
	}
}

func TestEncryptedPlatoonOpaqueToOutsider(t *testing.T) {
	w := newWorld(t, 11)
	cfg := DefaultConfig()
	session := security.NewSessionKey(1, w.k.Stream("session"))
	sec := func() *SecurityOptions {
		s := session
		return &SecurityOptions{Session: &s}
	}
	pos := 2000.0
	leader := w.addVehicle(t, 1, pos, 25, message.RoleLeader, cfg, WithSecurity(sec()))
	member := w.addVehicle(t, 2, pos-24, 25, message.RoleMember, cfg, WithSecurity(sec()))
	leader.Bootstrap(1, []uint32{2})
	member.Bootstrap(1, []uint32{2})
	for _, a := range w.agents {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.startPhysics()

	decodable := 0
	frames := 0
	if err := w.bus.Attach(66, func() float64 { return 1990 }, 20, func(rx mac.Rx) {
		frames++
		if err := message.DecodeEnvelope(rx.Payload, &message.Envelope{}); err == nil {
			decodable++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("eavesdropper heard nothing")
	}
	if decodable > frames/20 {
		t.Fatalf("eavesdropper decoded %d/%d encrypted frames", decodable, frames)
	}
	// Members still function.
	if member.Counters().BeaconsAccepted == 0 {
		t.Fatal("member decoded no encrypted beacons")
	}
}

func TestAnnounceDissolve(t *testing.T) {
	w := newWorld(t, 22)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 4, cfg)
	w.k.At(5*sim.Second, "dissolve", leader.AnnounceDissolve)
	if err := w.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Role() != message.RoleFree {
			t.Fatalf("member %d survived dissolve: %v", i, m.Role())
		}
	}
	if len(leader.Roster()) != 0 {
		t.Fatalf("roster after dissolve: %v", leader.Roster())
	}
	// Non-leaders cannot dissolve.
	members[0].AnnounceDissolve()
	members[0].AnnounceSplit(1)
	members[0].OpenGap(3, 20)
}

func TestAutoRejoinAfterForgedEjection(t *testing.T) {
	w := newWorld(t, 20)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 4, cfg, WithAutoRejoin())
	victim := members[2] // tail member
	// Forge a leave in the victim's name (open platoon, no signatures):
	// the leader ejects it, then auto-rejoin brings it back.
	w.k.At(5*sim.Second, "forge-leave", func() {
		m := &message.Maneuver{
			Type: message.ManeuverLeaveRequest, VehicleID: victim.ID(),
			PlatoonID: cfg.PlatoonID, Seq: 9999, TimestampN: int64(w.k.Now()),
		}
		env := &message.Envelope{SenderID: victim.ID(), Payload: m.Marshal()}
		_ = w.bus.Send(mac.NodeID(members[0].ID()), env.Marshal()) // any station will do
	})
	if err := w.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if victim.Role() == message.RoleMember {
		t.Fatal("forged leave had no effect (test setup broken)")
	}
	if err := w.k.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if victim.Role() != message.RoleMember {
		t.Fatalf("victim never rejoined: role=%v", victim.Role())
	}
	found := false
	for _, id := range leader.Roster() {
		if id == victim.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim missing from roster %v", leader.Roster())
	}
}

func TestVoluntaryLeaveDoesNotRejoin(t *testing.T) {
	w := newWorld(t, 21)
	cfg := DefaultConfig()
	_, members := buildPlatoon(t, w, 3, cfg, WithAutoRejoin())
	w.k.At(5*sim.Second, "leave", members[1].RequestLeave)
	if err := w.k.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if members[1].Role() != message.RoleFree {
		t.Fatalf("voluntary leaver rejoined: %v", members[1].Role())
	}
}

func TestAgentStartErrors(t *testing.T) {
	w := newWorld(t, 12)
	cfg := DefaultConfig()
	a := w.addVehicle(t, 1, 0, 25, message.RoleLeader, cfg)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
	a.Stop()
	a.Stop() // idempotent
}

func TestNeighborsAndRosterCopies(t *testing.T) {
	w := newWorld(t, 13)
	cfg := DefaultConfig()
	leader, members := buildPlatoon(t, w, 3, cfg)
	if err := w.k.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	r := leader.Roster()
	sort.Slice(r, func(i, j int) bool { return r[i] > r[j] }) // mutate copy
	r2 := leader.Roster()
	if len(r2) == 2 && r2[0] > r2[1] {
		t.Fatal("Roster returned aliased slice")
	}
	n := members[0].Neighbors()
	delete(n, 1)
	if _, ok := members[0].Neighbors()[1]; !ok {
		t.Fatal("Neighbors returned aliased map")
	}
}

// TestJoinDenySpanThreading pins the join-denial provenance chain: the
// JoinDeny frame's mac.send span must carry the platoon.join_denied
// span as its cause (the same one-shot txCause threading LeaveAccept
// uses). A regression here leaves denial transmissions causally
// dangling, and forensics cannot chain a join-flood to its denials.
func TestJoinDenySpanThreading(t *testing.T) {
	w := newWorld(t, 9)
	cfg := DefaultConfig()
	cfg.MaxMembers = 3
	leader, _ := buildPlatoon(t, w, 4, cfg)
	store := span.NewStore(0)
	leader.SetSpans(store)
	w.bus.SetSpans(store)
	joiner := w.addVehicle(t, 20, w.vehs[len(w.vehs)-1].State().Position-50, cfg.CruiseSpeed, message.RoleFree, cfg)
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	w.k.At(2*sim.Second, "join", joiner.RequestJoin)
	if err := w.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var deny span.ID
	for _, sp := range store.Spans() {
		if sp.Kind == "platoon.join_denied" && sp.Subject == 20 {
			deny = sp.ID
			break
		}
	}
	if deny == 0 {
		t.Fatal("no platoon.join_denied span recorded")
	}
	for _, sp := range store.Spans() {
		if sp.Kind == "mac.send" && sp.Parent == deny {
			return
		}
	}
	t.Fatal("JoinDeny transmission not parented under the join_denied span")
}

// TestStaleMemberRejoinAtCapacity pins the handler ordering fix: a
// vehicle still listed on a full roster (ejected by something the
// leader never saw) re-requests admission. The stale entry holds the
// slot the rejoiner needs, so the roster cleanup must run before the
// capacity check — denying here would permanently lock the victim out.
func TestStaleMemberRejoinAtCapacity(t *testing.T) {
	w := newWorld(t, 11)
	cfg := DefaultConfig()
	cfg.MaxMembers = 3
	pos := 2000.0
	leader := w.addVehicle(t, 1, pos, cfg.CruiseSpeed, message.RoleLeader, cfg)
	roster := []uint32{2, 3, 4}
	var members []*Agent
	for _, id := range []uint32{2, 3} {
		pos -= 16.0 + cfg.DesiredGap
		members = append(members, w.addVehicle(t, id, pos, cfg.CruiseSpeed, message.RoleMember, cfg))
	}
	// Vehicle 4 is on the leader's roster but was thrown out by a
	// forged maneuver the leader never saw: its agent is free.
	pos -= 16.0 + cfg.DesiredGap
	victim := w.addVehicle(t, 4, pos, cfg.CruiseSpeed+2, message.RoleFree, cfg)
	leader.Bootstrap(1, roster)
	for _, m := range members {
		m.Bootstrap(1, roster)
	}
	for _, a := range w.agents {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.startPhysics()
	w.k.At(2*sim.Second, "rejoin", victim.RequestJoin)
	if err := w.k.Run(90 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if victim.Role() != message.RoleMember {
		t.Fatalf("stale member locked out at capacity: role %v, %d denials",
			victim.Role(), leader.Counters().JoinsDenied)
	}
	found := false
	for _, id := range leader.Roster() {
		if id == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejoined vehicle missing from roster %v", leader.Roster())
	}
}
