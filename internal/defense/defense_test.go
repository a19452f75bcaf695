package defense_test

import (
	"math"
	"testing"

	"platoonsec/internal/attack"
	"platoonsec/internal/defense"
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/phy"
	"platoonsec/internal/platoon"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
	"platoonsec/internal/testworld"
	"platoonsec/internal/vehicle"
)

func attackerPos(w *testworld.World) func() float64 {
	return func() float64 {
		if len(w.Vehs) == 0 {
			return 0
		}
		return w.Vehs[0].State().Position - 60
	}
}

// buildSignedPlatoon creates a platoon where every vehicle runs the PKI
// suite.
func buildSignedPlatoon(t *testing.T, w *testworld.World, n int, cfg platoon.Config) (*security.CA, *platoon.Agent, []*platoon.Agent) {
	t.Helper()
	ca, err := security.NewCA(w.K.Stream("ca"))
	if err != nil {
		t.Fatal(err)
	}
	suite := func(vid uint32) []platoon.Option {
		id, err := ca.Issue(vid, 0, 10000*sim.Second, w.K.Stream("keys"))
		if err != nil {
			t.Fatal(err)
		}
		return []platoon.Option{platoon.WithSecurity(defense.PKISuite(ca, id, sim.Second))}
	}
	leader, members, err := w.BuildPlatoon(n, cfg,
		func(i int) []platoon.Option { return suite(uint32(i + 2)) },
		suite(1)...)
	if err != nil {
		t.Fatal(err)
	}
	return ca, leader, members
}

func TestPKIBlocksFakeSplit(t *testing.T) {
	w := testworld.New(1)
	cfg := platoon.DefaultConfig()
	_, _, members := buildSignedPlatoon(t, w, 5, cfg)
	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	fm := attack.NewFakeManeuver(w.K, radio, attack.FakeSplit, cfg.PlatoonID)
	fm.SpoofSender = 1
	fm.Slot = 1
	w.K.At(5*sim.Second, "arm", func() {
		if err := fm.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Role() != message.RoleMember {
			t.Fatalf("member %d broken by signed-platoon fake split: %v", i, m.Role())
		}
		if m.Counters().VerifyDrops == 0 {
			t.Fatalf("member %d recorded no verify drops", i)
		}
	}
	if fm.Sent == 0 {
		t.Fatal("attack never fired")
	}
}

func TestPKIBlocksReplay(t *testing.T) {
	w := testworld.New(2)
	cfg := platoon.DefaultConfig()
	cfg.CruiseSpeed = 22
	_, _, members := buildSignedPlatoon(t, w, 5, cfg)
	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	rp := attack.NewReplay(w.K, radio)
	rp.RecordFor = 5 * sim.Second
	rp.ReplayPeriod = 50 * sim.Millisecond
	w.K.At(0, "arm", func() {
		if err := rp.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if rp.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	// Replayed envelopes verify as signatures but fail freshness: they
	// must be counted as verify drops and leave spacing tight.
	drops := uint64(0)
	for _, m := range members {
		drops += m.Counters().VerifyDrops
	}
	if drops == 0 {
		t.Fatal("no replay drops recorded")
	}
	if e := w.MaxSpacingError(cfg.DesiredGap); e > 1.5 {
		t.Fatalf("spacing error %v m under replay with PKI, want tight", e)
	}
}

func TestPKIDoesNotStopJamming(t *testing.T) {
	// Table III: keys mitigate FDI but NOT jamming — the availability
	// row needs hybrid communications.
	w := testworld.New(3)
	cfg := platoon.DefaultConfig()
	_, _, members := buildSignedPlatoon(t, w, 4, cfg)
	jam := attack.NewJamming(w.K, w.Bus, 1950, 40, mac.JamConstant)
	w.K.At(5*sim.Second, "arm", func() {
		if err := jam.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if !m.Disbanded() {
			t.Fatalf("member %d survived jamming with PKI alone — keys must not stop jamming", i)
		}
	}
}

func TestEncryptionDefeatsEavesdropping(t *testing.T) {
	w := testworld.New(4)
	cfg := platoon.DefaultConfig()
	ca, err := security.NewCA(w.K.Stream("ca"))
	if err != nil {
		t.Fatal(err)
	}
	session := security.NewSessionKey(1, w.K.Stream("session"))
	suite := func(vid uint32) []platoon.Option {
		id, err := ca.Issue(vid, 0, 10000*sim.Second, w.K.Stream("keys"))
		if err != nil {
			t.Fatal(err)
		}
		s := session
		return []platoon.Option{platoon.WithSecurity(defense.EncryptedSuite(ca, id, sim.Second, &s))}
	}
	_, members, err := w.BuildPlatoon(4, cfg,
		func(i int) []platoon.Option { return suite(uint32(i + 2)) }, suite(1)...)
	if err != nil {
		t.Fatal(err)
	}
	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	ev := attack.NewEavesdrop(radio)
	if err := ev.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.K.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if ev.FramesHeard == 0 {
		t.Fatal("eavesdropper heard nothing")
	}
	if y := ev.InfoYield(); y > 0.05 {
		t.Fatalf("info yield %v against encryption, want ~0", y)
	}
	if len(ev.Tracks()) != 0 {
		t.Fatalf("eavesdropper built %d tracks through encryption", len(ev.Tracks()))
	}
	// The platoon itself still works.
	for i, m := range members {
		if m.Counters().BeaconsAccepted == 0 {
			t.Fatalf("member %d decoded nothing", i)
		}
	}
}

func TestPKIPlusRateLimiterDefeatsDoSFlood(t *testing.T) {
	// §VI-A1: "private keys expressly can successfully prevent DoS" —
	// fabricated identities cannot sign join requests, so the verifier
	// drops the flood before it touches the pending-join table; the
	// rate limiter backstops the protocol path. A genuine (certified)
	// joiner is admitted while the flood runs.
	w := testworld.New(5)
	cfg := platoon.DefaultConfig()
	ca, err := security.NewCA(w.K.Stream("ca"))
	if err != nil {
		t.Fatal(err)
	}
	rl := defense.NewRateLimiter()
	suite := func(vid uint32) *platoon.SecurityOptions {
		id, err := ca.Issue(vid, 0, 10000*sim.Second, w.K.Stream("keys"))
		if err != nil {
			t.Fatal(err)
		}
		return defense.PKISuite(ca, id, sim.Second)
	}
	leader, _, err := w.BuildPlatoon(3, cfg,
		func(i int) []platoon.Option {
			return []platoon.Option{platoon.WithSecurity(suite(uint32(i + 2)))}
		},
		platoon.WithSecurity(suite(1)), platoon.WithFilters(rl))
	if err != nil {
		t.Fatal(err)
	}
	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	dos := attack.NewDoSFlood(w.K, radio, cfg.PlatoonID, 600)
	w.K.At(2*sim.Second, "arm", func() {
		if err := dos.Start(); err != nil {
			t.Error(err)
		}
	})
	joiner := w.AddVehicle(40, w.Vehs[len(w.Vehs)-1].State().Position-40, cfg.CruiseSpeed, message.RoleFree, cfg,
		platoon.WithSecurity(suite(40)))
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	w.K.Every(10*sim.Second, 5*sim.Second, "join-retry", joiner.RequestJoin)
	if err := w.K.Run(90 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if dos.Sent < 500 {
		t.Fatalf("flood sent only %d", dos.Sent)
	}
	if leader.Counters().VerifyDrops < 500 {
		t.Fatalf("leader verify drops = %d, want the whole unsigned flood", leader.Counters().VerifyDrops)
	}
	if joiner.Role() != message.RoleMember {
		t.Fatalf("genuine joiner role = %v, want member (admitted despite flood)", joiner.Role())
	}
}

func TestRateLimiterUnit(t *testing.T) {
	rl := defense.NewRateLimiter()
	// A sender bursting far beyond 15 msg/s is throttled.
	beacon := (&message.Beacon{VehicleID: 66}).Marshal()
	dropped := 0
	for i := 0; i < 100; i++ {
		env := &message.Envelope{SenderID: 66, Payload: beacon}
		if err := rl.Check(env, mac.Rx{}, sim.Time(i)*10*sim.Millisecond); err != nil {
			dropped++
		}
	}
	if dropped < 50 {
		t.Fatalf("dropped %d/100 of a 100 msg/s burst, want most", dropped)
	}
	// The global join budget exhausts across many distinct senders.
	joinDrops := 0
	for i := 0; i < 50; i++ {
		m := &message.Maneuver{Type: message.ManeuverJoinRequest, VehicleID: 1000 + uint32(i)}
		env := &message.Envelope{SenderID: 1000 + uint32(i), Payload: m.Marshal()}
		if err := rl.Check(env, mac.Rx{}, sim.Second+sim.Time(i)*20*sim.Millisecond); err != nil {
			joinDrops++
		}
	}
	if joinDrops < 40 {
		t.Fatalf("join flood drops = %d/50, want most", joinDrops)
	}
	if rl.Dropped == 0 {
		t.Fatal("counter not updated")
	}
	// A well-behaved 10 Hz sender passes.
	ok := 0
	for i := 0; i < 100; i++ {
		env := &message.Envelope{SenderID: 7, Payload: beacon}
		if err := rl.Check(env, mac.Rx{}, 10*sim.Second+sim.Time(i)*100*sim.Millisecond); err == nil {
			ok++
		}
	}
	if ok != 100 {
		t.Fatalf("10 Hz sender passed %d/100", ok)
	}
}

func TestRateLimiterPassesNormalBeaconing(t *testing.T) {
	w := testworld.New(6)
	cfg := platoon.DefaultConfig()
	rl := defense.NewRateLimiter()
	_, members, err := w.BuildPlatoon(4, cfg, func(i int) []platoon.Option {
		if i == 0 {
			return []platoon.Option{platoon.WithFilters(rl)}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	c := members[0].Counters()
	if c.FilterDrops["rate-limiter"] > c.BeaconsAccepted/50 {
		t.Fatalf("rate limiter dropped %d legitimate messages (accepted %d)",
			c.FilterDrops["rate-limiter"], c.BeaconsAccepted)
	}
	if e := w.MaxSpacingError(cfg.DesiredGap); e > 1.5 {
		t.Fatalf("spacing degraded under rate limiter: %v", e)
	}
}

func TestVPDADADetectsSybilGhosts(t *testing.T) {
	w := testworld.New(7)
	cfg := platoon.DefaultConfig()
	detectors := make([]*defense.VPDADA, 0, 4)
	memberOpts := func(i int) []platoon.Option {
		// Detector construction needs the vehicle, which does not exist
		// yet; wire below via a late-bound filter is impossible, so use
		// index-matched construction inside BuildPlatoon's callback by
		// deferring to a placeholder that we fill right after. Instead,
		// attach the detector to the tail member after build.
		return nil
	}
	leader, members, err := w.BuildPlatoon(4, cfg, memberOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = detectors
	// Rebuild-free approach: a separate observer member cannot be added
	// post-hoc, so run the detector standalone against the tail
	// member's sensors and feed it the attacker's beacons via a raw
	// listener node.
	tail := members[len(members)-1]
	det := defense.NewVPDADA(tail.Vehicle(), w.GapSensor(tail.Vehicle()), w.RearGapSensor(tail.Vehicle()))
	if err := w.Bus.Attach(800, func() float64 { return tail.Vehicle().State().Position }, 20, func(rx mac.Rx) {
		env := &message.Envelope{}
		if err := message.DecodeEnvelope(rx.Payload, env); err != nil {
			return
		}
		_ = det.Check(env, rx, w.K.Now())
	}); err != nil {
		t.Fatal(err)
	}

	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	sy := attack.NewSybil(w.K, radio, cfg.PlatoonID, 500, 3)
	w.K.At(2*sim.Second, "arm", func() {
		if err := sy.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if sy.Admitted == 0 {
		t.Fatal("no ghosts admitted (attack misconfigured)")
	}
	if det.Detections["ghost-rear"] == 0 {
		t.Fatalf("VPD-ADA missed rear ghosts: %v", det.Detections)
	}
	_ = leader
}

func TestVPDADADetectsReplayTimestamps(t *testing.T) {
	w := testworld.New(8)
	cfg := platoon.DefaultConfig()
	cfg.CruiseSpeed = 22
	var dets []*defense.VPDADA
	// Detectors attach as member filters at construction time: build
	// manually so each detector anchors to its own vehicle.
	pos := 2000.0
	leader := w.AddVehicle(1, pos, 22, message.RoleLeader, cfg)
	var members []*platoon.Agent
	var roster []uint32
	for i := 2; i <= 5; i++ {
		pos -= 24
		v := vehicle.New(vehicle.ID(i), vehicle.State{Position: pos, Speed: 22})
		w.Vehs = append(w.Vehs, v)
		det := defense.NewVPDADA(v, w.GapSensor(v), w.RearGapSensor(v))
		dets = append(dets, det)
		m := platoon.NewAgent(w.K, w.Bus, v, message.RoleMember, cfg,
			platoon.WithGapSensor(w.GapSensor(v)), platoon.WithFilters(det))
		w.Agents = append(w.Agents, m)
		members = append(members, m)
		roster = append(roster, uint32(i))
	}
	leader.Bootstrap(1, roster)
	for _, m := range members {
		m.Bootstrap(1, roster)
	}
	for _, a := range append([]*platoon.Agent{leader}, members...) {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.StartPhysics()

	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	rp := attack.NewReplay(w.K, radio)
	rp.RecordFor = 3 * sim.Second
	rp.ReplayPeriod = 100 * sim.Millisecond
	w.K.At(0, "arm", func() {
		if err := rp.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	stale := uint64(0)
	for _, d := range dets {
		stale += d.Detections["stale-timestamp"]
	}
	if stale == 0 {
		t.Fatal("VPD-ADA missed replayed (stale) beacons")
	}
	if e := w.MaxSpacingError(cfg.DesiredGap); e > 2 {
		t.Fatalf("spacing error %v under replay with VPD-ADA", e)
	}
}

func TestVPDADADetectsInsiderSpeedLie(t *testing.T) {
	w := testworld.New(9)
	cfg := platoon.DefaultConfig()
	mw := attack.NewMalware()
	// Manual build: member i=0 compromised; member i=1 runs the
	// detector and follows the liar.
	pos := 2000.0
	leader := w.AddVehicle(1, pos, 25, message.RoleLeader, cfg)
	pos -= 24
	liar := w.AddVehicle(2, pos, 25, message.RoleMember, cfg, platoon.WithBeaconMutator(mw.Lie))
	pos -= 24
	follower := vehicle.New(3, vehicle.State{Position: pos, Speed: 25})
	w.Vehs = append(w.Vehs, follower)
	det := defense.NewVPDADA(follower, w.GapSensor(follower), w.RearGapSensor(follower))
	fm := platoon.NewAgent(w.K, w.Bus, follower, message.RoleMember, cfg,
		platoon.WithGapSensor(w.GapSensor(follower)), platoon.WithFilters(det))
	w.Agents = append(w.Agents, fm)
	roster := []uint32{2, 3}
	leader.Bootstrap(1, roster)
	liar.Bootstrap(1, roster)
	fm.Bootstrap(1, roster)
	for _, a := range []*platoon.Agent{leader, liar, fm} {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.StartPhysics()
	w.K.At(5*sim.Second, "arm", func() {
		if err := mw.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if det.Detections["speed-mismatch"]+det.Detections["accel-jump"] == 0 {
		t.Fatalf("VPD-ADA missed the insider speed lie: %v", det.Detections)
	}
}

func TestTrustManagerBlacklistsAfterDetections(t *testing.T) {
	tm := defense.NewTrustManager()
	var blacklisted []uint32
	tm.OnBlacklist = func(s uint32) { blacklisted = append(blacklisted, s) }

	env := &message.Envelope{SenderID: 66, Payload: (&message.Beacon{VehicleID: 66}).Marshal()}
	if err := tm.Check(env, mac.Rx{}, 0); err != nil {
		t.Fatalf("fresh sender blocked: %v", err)
	}
	// Two or three detections push 0.5 below 0.2.
	tm.Penalize(66, "ghost-front")
	tm.Penalize(66, "ghost-front")
	if tm.Blacklisted(66) {
		t.Fatal("blacklisted too eagerly")
	}
	tm.Penalize(66, "teleport")
	if !tm.Blacklisted(66) {
		t.Fatalf("not blacklisted at score %v", tm.Score(66))
	}
	if len(blacklisted) != 1 || blacklisted[0] != 66 {
		t.Fatalf("OnBlacklist calls: %v", blacklisted)
	}
	if err := tm.Check(env, mac.Rx{}, sim.Second); err == nil {
		t.Fatal("blacklisted sender passed")
	}
	if tm.Blocked == 0 {
		t.Fatal("no blocks recorded")
	}
	if got := tm.BlacklistedSenders(); len(got) != 1 || got[0] != 66 {
		t.Fatalf("BlacklistedSenders = %v", got)
	}
}

func TestTrustRebuildIsSlow(t *testing.T) {
	tm := defense.NewTrustManager()
	env := &message.Envelope{SenderID: 7, Payload: (&message.Beacon{VehicleID: 7}).Marshal()}
	tm.Penalize(7, "x")
	after := tm.Score(7)
	for i := 0; i < 100; i++ {
		_ = tm.Check(env, mac.Rx{}, sim.Time(i)*sim.Millisecond)
	}
	rebuilt := tm.Score(7)
	if rebuilt-after > tm.Penalty/2 {
		t.Fatalf("trust rebuilt too fast: %v → %v", after, rebuilt)
	}
	if rebuilt <= after {
		t.Fatal("clean traffic earned nothing")
	}
}

func TestHybridChainSurvivesJamming(t *testing.T) {
	// E7: with SP-VLC, RF jamming no longer disbands the platoon.
	run := func(withVLC bool) (disbanded int, spacing float64) {
		w := testworld.New(10)
		cfg := platoon.DefaultConfig()
		leader, members, err := w.BuildPlatoon(5, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if withVLC {
			chain := defense.NewHybridChain(w.K, newQuietVLC(w.K))
			chain.Append(leader, nil)
			for _, m := range members {
				chain.Append(m, nil)
			}
			chain.Start()
		}
		jam := attack.NewJamming(w.K, w.Bus, 1950, 40, mac.JamConstant)
		w.K.At(5*sim.Second, "arm", func() {
			if err := jam.Start(); err != nil {
				t.Error(err)
			}
		})
		if err := w.K.Run(25 * sim.Second); err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			if m.Disbanded() {
				disbanded++
			}
		}
		return disbanded, w.MaxSpacingError(cfg.DesiredGap)
	}
	gone, _ := run(false)
	if gone == 0 {
		t.Fatal("baseline jamming did not disband anyone (jammer too weak?)")
	}
	kept, spacing := run(true)
	if kept != 0 {
		t.Fatalf("%d members disbanded despite SP-VLC", kept)
	}
	if spacing > 3 {
		t.Fatalf("spacing error %v under jamming with SP-VLC", spacing)
	}
}

func TestHybridFilterBlocksForgedSplitPassesGenuine(t *testing.T) {
	w := testworld.New(11)
	cfg := platoon.DefaultConfig()
	link := newQuietVLC(w.K)
	chain := defense.NewHybridChain(w.K, link)
	var filters []*defense.HybridFilter
	memberOpts := func(i int) []platoon.Option {
		f := defense.NewHybridFilter()
		filters = append(filters, f)
		return []platoon.Option{platoon.WithFilters(f), platoon.WithTxTap(chain.Mirror)}
	}
	leader, members, err := w.BuildPlatoon(5, cfg, memberOpts, platoon.WithTxTap(chain.Mirror))
	if err != nil {
		t.Fatal(err)
	}
	chain.Append(leader, nil)
	for i, m := range members {
		chain.Append(m, filters[i])
	}
	chain.Start()

	// Forged split from a roadside attacker: RF only, no optical copy.
	radio := attack.NewRadio(w.K, w.Bus, 900, attackerPos(w), 23)
	fm := attack.NewFakeManeuver(w.K, radio, attack.FakeSplit, cfg.PlatoonID)
	fm.SpoofSender = 1
	fm.Slot = 1
	w.K.At(5*sim.Second, "arm", func() {
		if err := fm.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Role() != message.RoleMember {
			t.Fatalf("member %d split by RF-only forgery despite SP-VLC", i)
		}
	}
	dropped := uint64(0)
	for _, f := range filters {
		dropped += f.Dropped
	}
	if dropped == 0 {
		t.Fatal("hybrid filter dropped nothing")
	}

	// A genuine split from the leader is mirrored and obeyed.
	w.K.At(w.K.Now()+sim.Second, "split", func() { leader.AnnounceSplit(2) })
	if err := w.K.Run(w.K.Now() + 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	free := 0
	for _, m := range members {
		if m.Role() == message.RoleFree {
			free++
		}
	}
	if free != 2 {
		t.Fatalf("genuine split detached %d members, want 2", free)
	}
}

func TestSensorFusionDetectsGPSSpoof(t *testing.T) {
	w := testworld.New(12)
	cfg := platoon.DefaultConfig()
	gps := vehicle.NewGPS(1.5, 0.2, w.K.Stream("gps"))
	var fusion *defense.SensorFusion
	memberOpts := func(i int) []platoon.Option {
		if i == 0 {
			return []platoon.Option{platoon.WithPositionSource(func() (float64, bool) {
				return fusion.Position()
			})}
		}
		return nil
	}
	leader, members, err := w.BuildPlatoon(3, cfg, memberOpts)
	if err != nil {
		t.Fatal(err)
	}
	fusion = defense.NewSensorFusion(w.K, members[0].Vehicle(), gps)
	fusion.Start()

	spoof := attack.NewGPSSpoof(w.K, gps, -5) // pull-back attack
	w.K.At(5*sim.Second, "arm", func() {
		if err := spoof.Start(); err != nil {
			t.Error(err)
		}
	})
	if err := w.K.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !fusion.SpoofDetected() {
		t.Fatal("fusion missed a 5 m/s GPS drift")
	}
	// The victim's broadcast position stayed honest: leader's record of
	// it is close to the truth even though the raw GPS is ~125 m off.
	rec, ok := leader.Neighbors()[members[0].ID()]
	if !ok {
		t.Fatal("leader lost track of victim")
	}
	truth := members[0].Vehicle().State().Position
	if off := math.Abs(rec.Beacon.Position - truth); off > 15 {
		t.Fatalf("victim beacon offset %v m with fusion, want bounded", off)
	}
	if raw := math.Abs(spoof.Offset()); raw < 100 {
		t.Fatalf("spoof never drifted far: %v", raw)
	}
}

func TestStandardFirewallBlocksMalwareCAN(t *testing.T) {
	bus := vehicle.NewCANBus()
	bus.SetFirewall(defense.StandardFirewall())
	mw := attack.NewMalware()
	mw.CANTarget = bus
	if err := mw.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mw.InjectCAN()
	}
	if mw.CANInjected != 0 {
		t.Fatalf("%d forged control frames passed the standard firewall", mw.CANInjected)
	}
	if mw.CANBlocked != 5 {
		t.Fatalf("blocked = %d, want 5", mw.CANBlocked)
	}
	// Legitimate ECUs still work.
	if !bus.Send(vehicle.Frame{ID: vehicle.FrameControlCmd, Source: "controller"}) {
		t.Fatal("legitimate controller frame blocked")
	}
}

// newQuietVLC returns a lossless VLC link for deterministic tests.
func newQuietVLC(k *sim.Kernel) *phy.VLCLink {
	link := phy.NewVLCLink(k.Stream("vlc"))
	link.AmbientOutageProb = 0
	link.BaseLossProb = 0
	return link
}
