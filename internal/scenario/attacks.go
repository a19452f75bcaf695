package scenario

import (
	"fmt"

	"platoonsec/internal/attack"
	"platoonsec/internal/mac"
	"platoonsec/internal/metrics"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
)

// attackKeys lists every attack a scenario arms, each marked with
// whether it transmits from the attacker radio (node attackerNodeID).
var attackKeys = map[string]bool{
	"": false, "eavesdropping": false, "malware": false, "sensor-spoofing": false, "jamming": false,
	"replay": true, "sybil": true, "fake-maneuver": true, "dos": true, "impersonation": true,
}

// fakeManeuverKinds maps Options.FakeManeuverVariant onto the forgery.
var fakeManeuverKinds = map[string]attack.FakeManeuverKind{
	"": attack.FakeSplit, "split": attack.FakeSplit, "entrance": attack.FakeEntrance,
	"leave": attack.FakeLeave, "dissolve": attack.FakeDissolve,
}

// armAttack constructs the attack selected by Options.AttackKey and
// schedules it at AttackStart. The eavesdropping row needs no arming
// here: the always-on confidentiality observer is the attack.
// Options.Validate has already refused a key outside attackKeys.
func (w *world) armAttack(cfg platoon.Config) {
	start := w.opts.AttackStart
	leaderVeh := w.vehs[0]
	// Attacker drives on the shoulder alongside the platoon.
	attackerPos := func() float64 { return leaderVeh.State().Position - 60 }

	newRadio := func() *attack.Radio {
		w.radio = attack.NewRadio(w.k, w.bus, attackerNodeID, attackerPos, 23)
		w.radio.SetRecorder(w.recorder())
		w.radio.SetSpans(w.spans)
		return w.radio
	}
	armAt := func(a attack.Attack) {
		w.atk = a
		w.k.At(start, "attack.arm", func() {
			//platoonvet:alloc-ok Start runs once, when the attack arms
			if err := a.Start(); err != nil {
				//platoonvet:alloc-ok the arm closure fires once; the Sprintf is on its panic path
				panic(fmt.Sprintf("scenario: arming %s: %v", a.Name(), err))
			}
			w.setAttackRoot()
		})
	}

	switch w.opts.AttackKey {
	case "replay":
		// Replayed frames claim the original (honest) senders, so the
		// precision target set is the whole genuine platoon.
		ids := make([]uint32, w.opts.Vehicles)
		for i := range ids {
			ids[i] = uint32(i + 1)
		}
		w.eval = metrics.NewDetectionEval(ids...)
		rp := attack.NewReplay(w.k, newRadio())
		rp.RecordFor = 8 * sim.Second
		rp.ReplayPeriod = 30 * sim.Millisecond
		w.atk = rp
		// The replay radio records from t=0; arm via its own schedule.
		w.k.At(0, "attack.arm", func() {
			if err := rp.Start(); err != nil {
				//platoonvet:alloc-ok the arm closure fires once; the Sprintf is on its panic path
				panic(fmt.Sprintf("scenario: arming replay: %v", err))
			}
			w.setAttackRoot()
		})

	case "sybil":
		n := w.opts.SybilGhosts
		if n <= 0 {
			n = 5
		}
		ghosts := make([]uint32, n)
		for i := range ghosts {
			ghosts[i] = ghostIDBase + uint32(i)
		}
		w.eval = metrics.NewDetectionEval(ghosts...)
		sy := attack.NewSybil(w.k, newRadio(), cfg.PlatoonID, ghostIDBase, n)
		armAt(sy)

	case "fake-maneuver":
		kind := fakeManeuverKinds[w.opts.FakeManeuverVariant]
		victim := uint32(0)
		switch kind {
		case attack.FakeEntrance:
			victim = w.agents[w.opts.Vehicles/2].ID()
		case attack.FakeLeave:
			victim = w.agents[1].ID()
		}
		// Forgeries claim the leader — except fake leave, which claims
		// the victim.
		claimed := uint32(1)
		if kind == attack.FakeLeave {
			claimed = victim
		}
		w.eval = metrics.NewDetectionEval(claimed)
		fm := attack.NewFakeManeuver(w.k, newRadio(), kind, cfg.PlatoonID)
		fm.SpoofSender = 1
		fm.VictimID = victim
		fm.Slot = uint16(w.opts.Vehicles / 2)
		fm.GapMetres = 30
		if w.opts.AttackOneShot {
			fm.MaxShots = 1
		}
		armAt(fm)

	case "jamming":
		power := w.opts.JammerPowerDBm
		if power == 0 {
			power = 40
		}
		w.eval = metrics.NewDetectionEval()
		jam := attack.NewJamming(w.k, w.bus, 0, power, mac.JamConstant)
		jam.SetRecorder(w.recorder())
		jam.SetSpans(w.spans)
		w.jam = jam
		// The jammer drives alongside: track the platoon centre.
		mid := w.opts.Vehicles / 2
		w.k.Every(0, 100*sim.Millisecond, "jammer.follow", func() {
			jam.Jammer.Position = w.vehs[mid].State().Position - 20
		})
		armAt(jam)

	case "dos":
		w.eval = metrics.NewDetectionEval() // flood IDs are transient
		dos := attack.NewDoSFlood(w.k, newRadio(), cfg.PlatoonID, dosIDBase)
		armAt(dos)

	case "impersonation":
		victim := w.agents[1].ID()
		w.eval = metrics.NewDetectionEval(victim)
		im := attack.NewImpersonation(w.k, newRadio(), cfg.PlatoonID, victim)
		armAt(im)

	case "sensor-spoofing":
		// Combined GPS pull-back plus forward-sensor blinding on the
		// first member (§V-G).
		victimIdx := 1
		w.eval = metrics.NewDetectionEval(w.agents[victimIdx].ID())
		spoof := attack.NewGPSSpoof(w.k, w.gpses[victimIdx], -5)
		blind := attack.NewSensorBlind(w.radars[victimIdx])
		armAt(attack.NewVPD(spoof, blind))

	default:
		panic("scenario: attackKeys lists " + w.opts.AttackKey + " but armAttack has no case for it")
	}
}
