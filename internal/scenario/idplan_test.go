package scenario

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"platoonsec/internal/attack"
	"platoonsec/internal/sim"
)

// idCollision is the brute-force form of checkIDPlan: it builds the run
// at 1 ms, attaches the attacker radio the way arming would, and looks
// for a collision among the identities the build actually holds. Bus
// nodes collide when Attach refuses a duplicate; sybil ghosts collide
// with a vehicle, the joiner or the RSU; DoS join requests, which claim
// every ID from the flood's first one upward, collide with a vehicle or
// the joiner.
func idCollision(t *testing.T, o Options) bool {
	t.Helper()
	o.Duration = sim.Millisecond
	w, err := build(o)
	if err == nil && w.radio != nil {
		err = w.radio.Start(nil)
	}
	if err != nil {
		if !strings.Contains(err.Error(), "duplicate node") {
			t.Fatalf("building %d vehicles, attack %q, joiner %v: %v", o.Vehicles, o.AttackKey, o.WithJoiner, err)
		}
		return true
	}
	var members []uint32
	for _, a := range w.agents {
		members = append(members, a.ID())
	}
	if w.joiner != nil {
		members = append(members, w.joiner.ID())
	}
	switch a := w.atk.(type) {
	case *attack.Sybil:
		genuine := append(slices.Clone(members), uint32(w.station.ID))
		for _, g := range a.GhostIDs {
			if slices.Contains(genuine, g) {
				return true
			}
		}
	case *attack.DoSFlood:
		for _, id := range members {
			if id >= a.FirstFakeID {
				return true
			}
		}
	}
	return false
}

// TestIDPlanMatchesBruteForce is the oracle for checkIDPlan: over
// random options around every block boundary, Validate accepts exactly
// the runs whose built identities do not collide, and every run it
// accepts builds.
func TestIDPlanMatchesBruteForce(t *testing.T) {
	var attacks []string
	for k := range attackKeys {
		attacks = append(attacks, k)
	}
	slices.Sort(attacks)
	vehicles := []int{2, 3, 8, 39, 40, 41, 499, 500, 501, 599, 600, 601, 899, 900, 901}
	ghosts := []int{0, 1, 5, 499, 500, 501}
	durations := []sim.Time{sim.Millisecond, 10 * sim.Second, 60 * sim.Second}
	rng := rand.New(rand.NewSource(7))
	cases := 80
	if testing.Short() {
		cases = 20
	}
	accepted := 0
	for i := 0; i < cases; i++ {
		o := DefaultOptions()
		o.AttackKey = attacks[rng.Intn(len(attacks))]
		o.WithJoiner = rng.Intn(2) == 0
		o.Vehicles = vehicles[rng.Intn(len(vehicles))]
		if rng.Intn(4) == 0 {
			o.Vehicles = 2 + rng.Intn(40)
		}
		o.SybilGhosts = ghosts[rng.Intn(len(ghosts))]
		o.Duration = durations[rng.Intn(len(durations))]
		err := o.Validate()
		if collide := idCollision(t, o); (err == nil) == collide {
			t.Errorf("%d vehicles, attack %q, joiner %v, %d ghosts: Validate says %v, brute force collision %v",
				o.Vehicles, o.AttackKey, o.WithJoiner, o.SybilGhosts, err, collide)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == cases {
		t.Fatalf("%d of %d cases accepted: the generator misses one side of the rule", accepted, cases)
	}
}

// TestIDPlanBoundaries pins the limits the ID plan gives: the largest
// accepted platoon for each kind of run, and the ghost count.
func TestIDPlanBoundaries(t *testing.T) {
	for _, c := range []struct {
		attack string
		joiner bool
		max    int
	}{
		{"", false, 900},
		{"jamming", false, 900},
		{"replay", false, 899},
		{"impersonation", false, 899},
		{"dos", false, 599},
		{"sybil", false, 499},
		{"", true, 39},
		{"dos", true, 39},
	} {
		o := DefaultOptions()
		o.AttackKey, o.WithJoiner, o.Vehicles = c.attack, c.joiner, c.max
		if err := o.Validate(); err != nil {
			t.Errorf("attack %q, joiner %v: %d vehicles rejected: %v", c.attack, c.joiner, c.max, err)
		}
		o.Vehicles++
		if err := o.Validate(); err == nil {
			t.Errorf("attack %q, joiner %v: %d vehicles accepted", c.attack, c.joiner, o.Vehicles)
		}
	}
	o := DefaultOptions()
	o.AttackKey, o.SybilGhosts = "sybil", 500
	if err := o.Validate(); err != nil {
		t.Errorf("500 ghosts rejected: %v", err)
	}
	o.SybilGhosts = 501
	if err := o.Validate(); err == nil {
		t.Error("501 ghosts accepted: ghost 1000 is the RSU")
	}
}

// TestValidateAllocatesNothing: Run calls Validate once per run, so an
// accepted run must not pay an allocation for it.
func TestValidateAllocatesNothing(t *testing.T) {
	o := DefaultOptions()
	o.AttackKey, o.Vehicles = "sybil", 32
	if n := testing.AllocsPerRun(100, func() {
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocated %v times per call", n)
	}
}

// TestAttackKeysArm ties attackKeys to the build: every key but the
// baseline and eavesdropping (whose attack is the always-on observer)
// arms an attack, and exactly the keys marked as radio attacks open
// the attacker radio.
func TestAttackKeysArm(t *testing.T) {
	for key, radio := range attackKeys {
		o := DefaultOptions()
		o.AttackKey, o.Duration = key, sim.Millisecond
		w, err := build(o)
		if err != nil {
			t.Fatalf("attack %q: %v", key, err)
		}
		if armed, want := w.atk != nil, key != "" && key != "eavesdropping"; armed != want {
			t.Errorf("attack %q: armed %v, want %v", key, armed, want)
		}
		if got := w.radio != nil; got != radio {
			t.Errorf("attack %q: attacker radio %v, attackKeys says %v", key, got, radio)
		}
	}
}
