package scenario

import (
	"reflect"
	"strings"
	"testing"

	"platoonsec/internal/sim"
)

func baseOpts() Options {
	o := DefaultOptions()
	o.Duration = 40 * sim.Second
	o.Vehicles = 6
	return o
}

func TestBaselineHealthy(t *testing.T) {
	r, err := Run(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Collisions != 0 {
		t.Fatalf("baseline collisions = %d", r.Collisions)
	}
	if r.MaxSpacingErr > 2.5 {
		t.Fatalf("baseline max spacing error = %v m", r.MaxSpacingErr)
	}
	if r.DisbandedFrac > 0.01 {
		t.Fatalf("baseline disbanded = %v", r.DisbandedFrac)
	}
	if r.PDR < 0.95 {
		t.Fatalf("baseline PDR = %v", r.PDR)
	}
	if r.GhostMembers != 0 || r.VictimsEjected != 0 {
		t.Fatalf("baseline ghosts/ejected = %d/%d", r.GhostMembers, r.VictimsEjected)
	}
	// Open platoon: the observer reads everything.
	if r.EavesdropYield < 0.99 {
		t.Fatalf("open-platoon eavesdrop yield = %v", r.EavesdropYield)
	}
	if r.EavesdropTracks < 6 {
		t.Fatalf("observer tracked %d vehicles", r.EavesdropTracks)
	}
	if r.FuelLitres <= 0 || r.DistanceKm <= 0 {
		t.Fatalf("fuel/distance not measured: %v / %v", r.FuelLitres, r.DistanceKm)
	}
}

func TestDeterminism(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "replay"
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options produced different results:\n%v\nvs\n%v", a, b)
	}
}

func TestUnknownAttackKey(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "quantum-woo"
	if _, err := Run(o); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	o := baseOpts()
	o.Vehicles = 1
	if _, err := Run(o); err == nil {
		t.Fatal("1-vehicle platoon accepted")
	}
	o = baseOpts()
	o.Duration = 0
	if _, err := Run(o); err == nil {
		t.Fatal("zero duration accepted")
	}
	// A platoon whose vehicle IDs would reach the observer's node ID is
	// refused by the ID plan. At the bound the plan passes, and the
	// zero duration stops the run before it builds 900 vehicles.
	o.Vehicles = observerNodeID
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "at most 900 vehicles") {
		t.Fatalf("%d vehicles: %v, want the ID-plan bound", o.Vehicles, err)
	}
	o.Vehicles = observerNodeID - 1
	if _, err := Run(o); err == nil || strings.Contains(err.Error(), "vehicle IDs") {
		t.Fatalf("%d vehicles: %v, want only the duration error", o.Vehicles, err)
	}
}

func TestReplayAttackDegradesIntegrity(t *testing.T) {
	o := baseOpts()
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.AttackKey = "replay"
	hit, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if hit.MaxSpacingErr < base.MaxSpacingErr*1.5 {
		t.Fatalf("replay spacing %v not clearly worse than baseline %v",
			hit.MaxSpacingErr, base.MaxSpacingErr)
	}
}

func TestSybilAttackDegradesAuthenticity(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "sybil"
	o.WithJoiner = true
	o.JoinerAt = 25 * sim.Second // after the ghosts flood in
	o.Cfg.MaxMembers = 10        // 5 members + 5 ghosts = full
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.GhostMembers != 5 {
		t.Fatalf("ghost members = %d, want 5", r.GhostMembers)
	}
	if r.JoinerAdmitted {
		t.Fatal("genuine joiner admitted into ghost-filled roster")
	}
	if r.JoinsDenied == 0 {
		t.Fatal("no join denials under Sybil")
	}
}

func TestFakeManeuverEjectsMembers(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "fake-maneuver"
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Split at slot 3 of 5 members → 2 ejected.
	if r.VictimsEjected != 2 {
		t.Fatalf("ejected = %d, want 2", r.VictimsEjected)
	}
}

func TestJammingDegradesAvailability(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "jamming"
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.DisbandedFrac < 0.3 {
		t.Fatalf("disbanded fraction = %v under constant jamming", r.DisbandedFrac)
	}
	// Under carrier-sense starvation, frames die at the MAC before
	// transmission rather than in flight.
	if r.MACStuckDrops < 500 {
		t.Fatalf("MAC stuck drops = %d under jamming, want massive starvation", r.MACStuckDrops)
	}
}

func TestDoSDeniesJoiner(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "dos"
	o.WithJoiner = true
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.JoinerAdmitted {
		t.Fatal("joiner admitted during DoS flood")
	}
	if r.JoinsDenied == 0 {
		t.Fatal("no denials under flood")
	}
}

func TestImpersonationEjectsVictim(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "impersonation"
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.VictimsEjected == 0 {
		t.Fatal("impersonation ejected nobody")
	}
}

func TestSensorSpoofingDegradesVictim(t *testing.T) {
	o := baseOpts()
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.AttackKey = "sensor-spoofing"
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxSpacingErr < base.MaxSpacingErr+1 {
		t.Fatalf("sensor spoofing spacing %v vs baseline %v", r.MaxSpacingErr, base.MaxSpacingErr)
	}
}

func TestMalwareDegradesIntegrity(t *testing.T) {
	o := baseOpts()
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.AttackKey = "malware"
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxSpacingErr < base.MaxSpacingErr*1.5 {
		t.Fatalf("malware spacing %v vs baseline %v", r.MaxSpacingErr, base.MaxSpacingErr)
	}
}

func TestKeysDefeatFakeManeuver(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "fake-maneuver"
	pack, err := PackForMechanism("keys")
	if err != nil {
		t.Fatal(err)
	}
	o.Defense = pack
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.VictimsEjected != 0 {
		t.Fatalf("ejected = %d with keys, want 0", r.VictimsEjected)
	}
	// The forgeries die either at decryption (plaintext against an
	// encrypted platoon) or at signature verification.
	if r.VerifyDrops+r.DecryptFailures == 0 {
		t.Fatal("no crypto drops recorded")
	}
}

func TestKeysDefeatEavesdropping(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "eavesdropping"
	pack, _ := PackForMechanism("keys")
	o.Defense = pack
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.EavesdropYield > 0.05 {
		t.Fatalf("eavesdrop yield = %v with encryption", r.EavesdropYield)
	}
	if r.EavesdropTracks != 0 {
		t.Fatalf("tracks = %d with encryption", r.EavesdropTracks)
	}
	// Members still communicate (spacing holds).
	if r.MaxSpacingErr > 2.5 {
		t.Fatalf("encryption broke the platoon: spacing %v", r.MaxSpacingErr)
	}
}

func TestHybridDefeatsJamming(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "jamming"
	pack, _ := PackForMechanism("hybrid-comms")
	o.Defense = pack
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.DisbandedFrac > 0.02 {
		t.Fatalf("disbanded %v despite SP-VLC", r.DisbandedFrac)
	}
	if r.Collisions != 0 {
		t.Fatalf("collisions = %d under jamming with SP-VLC", r.Collisions)
	}
}

func TestControlAlgorithmsDetectSybil(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "sybil"
	pack, _ := PackForMechanism("control-algorithms")
	o.Defense = pack
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.DetectionCoverage < 0.8 {
		t.Fatalf("detection coverage = %v, want ghosts detected", r.DetectionCoverage)
	}
	if r.DetectionPrecision < 0.9 {
		t.Fatalf("detection precision = %v (honest vehicles flagged)", r.DetectionPrecision)
	}
}

func TestOnboardDefenseLimitsSensorSpoofing(t *testing.T) {
	o := baseOpts()
	o.AttackKey = "sensor-spoofing"
	undefended, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	pack, _ := PackForMechanism("onboard")
	o.Defense = pack
	defended, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if defended.MaxSpacingErr > undefended.MaxSpacingErr*0.7 {
		t.Fatalf("onboard defense spacing %v not clearly better than %v",
			defended.MaxSpacingErr, undefended.MaxSpacingErr)
	}
}

func TestAllDefensesBaselineStillWorks(t *testing.T) {
	o := baseOpts()
	o.Defense = AllDefenses()
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Collisions != 0 {
		t.Fatalf("hardened baseline collisions = %d", r.Collisions)
	}
	if r.MaxSpacingErr > 3 {
		t.Fatalf("hardened baseline spacing = %v", r.MaxSpacingErr)
	}
	if r.DisbandedFrac > 0.02 {
		t.Fatalf("hardened baseline disbanded = %v", r.DisbandedFrac)
	}
}

func TestPackForMechanismUnknown(t *testing.T) {
	if _, err := PackForMechanism("astrology"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestResultString(t *testing.T) {
	r, err := Run(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s := r.String(); len(s) < 100 {
		t.Fatalf("report too short: %q", s)
	}
}
