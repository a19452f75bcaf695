// Bench harness regenerating the paper's evaluation artefacts (see
// DESIGN.md §3 for the experiment index):
//
//	E1 BenchmarkTableI             Table I   survey registry render
//	E2 BenchmarkTableII/*          Table II  one sub-bench per attack row
//	E3 BenchmarkTableIII/*         Table III one sub-bench per claimed cell
//	E4 BenchmarkReplayOscillation  §V-A1 oscillation claim
//	E5 BenchmarkJammingSweep       §V-B power sweep, PDR/disband shape
//	E6 BenchmarkFadingKeyAgreement §VI-A1 key agreement vs noise
//	E7 BenchmarkHybridUnderJamming §VI-A4 SP-VLC survival
//	E8 BenchmarkVPDADA             §VI-A3 combined-VPD detection
//	E9 BenchmarkRiskMatrix         §VI-B4 risk assessment
//
// Benches report the *measured observables* through b.ReportMetric, so
// `go test -bench .` prints the numbers EXPERIMENTS.md records. Shapes,
// not absolute values, are the reproduction target.
package platoonsec_test

import (
	"fmt"
	"testing"

	"platoonsec"
	"platoonsec/internal/attack"
	"platoonsec/internal/lab"
	"platoonsec/internal/mac"
	"platoonsec/internal/phy"
	"platoonsec/internal/privacy"
	"platoonsec/internal/risk"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
	"platoonsec/internal/vehicle"
)

func benchOpts(attack string, defense platoonsec.DefensePack) platoonsec.Options {
	o := platoonsec.DefaultOptions()
	o.Duration = 60 * platoonsec.Second
	o.Vehicles = 8
	o.AttackKey = attack
	o.Defense = defense
	return o
}

func mustRun(b *testing.B, o platoonsec.Options) *platoonsec.Result {
	b.Helper()
	r, err := platoonsec.Run(o)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTableI regenerates the related-surveys table (E1).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := taxonomy.RenderTableI()
		if len(out) < 500 {
			b.Fatal("table render truncated")
		}
	}
	b.ReportMetric(float64(len(taxonomy.Surveys())), "surveys")
}

// BenchmarkTableII regenerates every attack row of Table II (E2): run
// the attack against an undefended platoon and report the property the
// paper says it compromises.
func BenchmarkTableII(b *testing.B) {
	cfg := lab.DefaultConfig()
	base := mustRun(b, cfg.OptionsFor("", platoonsec.DefensePack{}))
	for _, a := range taxonomy.Attacks() {
		a := a
		b.Run(a.Key, func(b *testing.B) {
			var r *platoonsec.Result
			for i := 0; i < b.N; i++ {
				r = mustRun(b, cfg.OptionsFor(a.Key, platoonsec.DefensePack{}))
			}
			b.ReportMetric(r.MaxSpacingErr, "spacing_m")
			b.ReportMetric(r.DisbandedFrac*100, "disband_%")
			b.ReportMetric(float64(r.GhostMembers), "ghosts")
			b.ReportMetric(float64(r.VictimsEjected), "ejected")
			b.ReportMetric(r.EavesdropYield, "eaves_yield")
			b.ReportMetric(r.MaxSpacingErr/maxf(base.MaxSpacingErr, 1e-9), "impact_x")
		})
	}
}

// BenchmarkTableIII regenerates every claimed mechanism × attack cell
// of Table III (E3), reporting 1/0 mitigation verdicts.
func BenchmarkTableIII(b *testing.B) {
	cfg := lab.DefaultConfig()
	for _, pc := range lab.ClaimedCells() {
		pc := pc
		b.Run(pc.Mechanism+"/"+pc.Attack, func(b *testing.B) {
			var cell *lab.Cell
			for i := 0; i < b.N; i++ {
				t, err := lab.Measure(cfg, lab.Plan{Cells: []lab.Pair{pc}}, 0)
				if err != nil {
					b.Fatal(err)
				}
				cell = t.Cells[pc]
			}
			mit := 0.0
			if cell.Mitigated {
				mit = 1.0
			}
			b.ReportMetric(mit, "mitigated")
			b.ReportMetric(cell.Defended.MaxSpacingErr, "def_spacing_m")
			b.ReportMetric(cell.Undefended.MaxSpacingErr, "undef_spacing_m")
		})
	}
}

// BenchmarkReplayOscillation measures the §V-A1 claim (E4): replay
// makes the platoon oscillate; keys+timestamps stop it.
func BenchmarkReplayOscillation(b *testing.B) {
	var base, open, keys *platoonsec.Result
	pack, err := platoonsec.PackForMechanism("keys")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base = mustRun(b, benchOpts("", platoonsec.DefensePack{}))
		open = mustRun(b, benchOpts("replay", platoonsec.DefensePack{}))
		keys = mustRun(b, benchOpts("replay", pack))
	}
	b.ReportMetric(open.MaxSpacingErr/maxf(base.MaxSpacingErr, 1e-9), "oscillation_x")
	b.ReportMetric(keys.MaxSpacingErr/maxf(base.MaxSpacingErr, 1e-9), "defended_x")
}

// BenchmarkJammingSweep sweeps jammer power (E5): disband fraction and
// MAC starvation versus power, the paper's "impossible to maintain
// communications" claim as a dose-response curve.
func BenchmarkJammingSweep(b *testing.B) {
	cfg := lab.DefaultConfig()
	for _, power := range lab.JammingCurve() {
		power := power
		b.Run(fmt.Sprintf("power=%.0fdBm", power), func(b *testing.B) {
			var r *platoonsec.Result
			for i := 0; i < b.N; i++ {
				t, err := lab.Measure(cfg, lab.Plan{JammerPowers: []float64{power}}, 0)
				if err != nil {
					b.Fatal(err)
				}
				r = t.Jamming[0]
			}
			b.ReportMetric(r.DisbandedFrac*100, "disband_%")
			b.ReportMetric(float64(r.MACStuckDrops), "stuck_drops")
			b.ReportMetric(r.MaxSpacingErr, "spacing_m")
		})
	}
}

// BenchmarkFadingKeyAgreement sweeps measurement noise in the
// fading-channel key agreement of [5] (E6): legitimate agreement
// degrades gracefully, the eavesdropper stays at a coin flip.
func BenchmarkFadingKeyAgreement(b *testing.B) {
	for _, noise := range []float64{0.25, 0.5, 1, 2, 4} {
		noise := noise
		b.Run(fmt.Sprintf("noise=%.2f", noise), func(b *testing.B) {
			f := security.FadingKeyAgreement{
				Rounds: 4096, ChannelSigma: 4, NoiseSigma: noise, GuardBand: 0.5,
			}
			var res security.AgreementResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = f.Run(sim.NewStream(int64(i)+1, "bench-fading"))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MatchAB, "match_ab")
			b.ReportMetric(res.MatchAE, "match_eve")
			b.ReportMetric(res.KeyRate, "key_rate")
		})
	}
}

// BenchmarkHybridUnderJamming is the §VI-A4 second-channel experiment
// (E7): RF-only vs the SP-VLC optical chain vs the C-V2X sidelink the
// paper names as the alternative.
func BenchmarkHybridUnderJamming(b *testing.B) {
	cases := []struct {
		name string
		pack platoonsec.DefensePack
	}{
		{"rf-only", platoonsec.DefensePack{}},
		{"sp-vlc", platoonsec.DefensePack{Hybrid: true}},
		{"cv2x", platoonsec.DefensePack{CV2X: true}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var r *platoonsec.Result
			for i := 0; i < b.N; i++ {
				r = mustRun(b, benchOpts("jamming", tc.pack))
			}
			b.ReportMetric(r.DisbandedFrac*100, "disband_%")
			b.ReportMetric(r.MaxSpacingErr, "spacing_m")
		})
	}
}

// BenchmarkVPDADA runs the combined VPD attack against the
// control-algorithm defense stack (E8) and reports detector quality.
func BenchmarkVPDADA(b *testing.B) {
	pack, err := platoonsec.PackForMechanism("control-algorithms")
	if err != nil {
		b.Fatal(err)
	}
	cfg := lab.DefaultConfig()
	for _, attackKey := range []string{"sensor-spoofing", "malware", "sybil"} {
		attackKey := attackKey
		b.Run(attackKey, func(b *testing.B) {
			var r *platoonsec.Result
			for i := 0; i < b.N; i++ {
				r = mustRun(b, cfg.OptionsFor(attackKey, pack))
			}
			b.ReportMetric(r.DetectionCoverage, "coverage")
			b.ReportMetric(r.DetectionPrecision, "precision")
			b.ReportMetric(r.MaxSpacingErr, "spacing_m")
		})
	}
}

// BenchmarkRiskMatrix builds the §VI-B4 risk matrix from measured
// Table II evidence (E9).
func BenchmarkRiskMatrix(b *testing.B) {
	t, err := lab.Measure(lab.DefaultConfig(), lab.Plan{TableII: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	ev := lab.RiskEvidence(t.Outcomes)
	b.ResetTimer()
	var matrix []risk.Assessment
	for i := 0; i < b.N; i++ {
		matrix = risk.Matrix(ev)
	}
	b.ReportMetric(float64(matrix[0].Score()), "top_score")
	measured := 0
	for _, a := range matrix {
		if a.Measured {
			measured++
		}
	}
	b.ReportMetric(float64(measured), "measured_rows")
}

// BenchmarkPseudonymPrivacy sweeps the pseudonym rotation period (E10,
// §VI-B2 open challenge): tracking-chain span and same-vehicle
// linkability versus rotation cadence, with mix-window silence.
func BenchmarkPseudonymPrivacy(b *testing.B) {
	for _, rotate := range []sim.Time{0, 20 * sim.Second, 10 * sim.Second, 5 * sim.Second} {
		rotate := rotate
		name := "never"
		if rotate > 0 {
			name = rotate.String()
		}
		b.Run("rotate="+name, func(b *testing.B) {
			var tracks, rotations int
			var linkability float64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(int64(i) + 1)
				env := phy.DefaultEnvironment()
				env.RayleighFading = false
				env.ShadowSigmaDB = 0
				bus := mac.NewBus(k, phy.NewChannel(env, k.Stream("phy")), mac.DefaultConfig())
				var anchor *vehicle.Vehicle
				radio := attack.NewRadio(k, bus, 900, func() float64 {
					if anchor == nil {
						return 0
					}
					return anchor.State().Position - 80
				}, 23)
				ev := attack.NewEavesdrop(radio)
				if err := ev.Start(); err != nil {
					b.Fatal(err)
				}
				truth := make(map[uint32]int)
				totalRot := 0
				for v := 0; v < 3; v++ {
					veh := vehicle.New(vehicle.ID(10+v), vehicle.State{Position: 1000 + float64(v)*2, Speed: 25})
					if anchor == nil {
						anchor = veh
					}
					k.Every(0, 10*sim.Millisecond, "phys", func() { veh.Dyn.Step(0.01) })
					ps := make([]uint32, 12)
					for j := range ps {
						ps[j] = uint32(100*(v+1)) + uint32(j)
					}
					for _, p := range ps {
						truth[p] = v + 1
					}
					bc, err := privacy.NewBeaconer(k, bus, veh, mac.NodeID(10+v), ps)
					if err != nil {
						b.Fatal(err)
					}
					bc.RotateEvery = rotate
					bc.SilentGap = 2 * sim.Second
					if err := bc.Start(); err != nil {
						b.Fatal(err)
					}
					defer func() { totalRot += int(bc.Rotations) }()
				}
				if err := k.Run(55 * sim.Second); err != nil {
					b.Fatal(err)
				}
				trs := ev.Tracks()
				tracks = len(trs)
				chains := privacy.NewLinker().Link(trs)
				rot := 0
				// Rotations counted post-run via deferred closures is
				// awkward inside the loop; recompute from track count.
				if rotate > 0 {
					rot = tracks - 3
				}
				rotations = rot
				linkability = privacy.Linkability(chains, truth, rot)
			}
			b.ReportMetric(float64(tracks), "tracks")
			b.ReportMetric(float64(rotations), "rotations")
			b.ReportMetric(linkability, "linkability")
		})
	}
}

// BenchmarkReformAfterSplit measures the §V-A3 reconnection cost: a
// single forged split detaches the rear half; auto-rejoin reforms the
// platoon and the bench reports how long that took and the fuel premium
// paid meanwhile.
func BenchmarkReformAfterSplit(b *testing.B) {
	var hit, base *platoonsec.Result
	for i := 0; i < b.N; i++ {
		o := benchOpts("fake-maneuver", platoonsec.DefensePack{})
		o.Duration = 90 * platoonsec.Second
		o.AttackOneShot = true
		o.AutoRejoin = true
		hit = mustRun(b, o)
		ob := benchOpts("", platoonsec.DefensePack{})
		ob.Duration = 90 * platoonsec.Second
		base = mustRun(b, ob)
	}
	b.ReportMetric(hit.ReformSeconds, "reform_s")
	b.ReportMetric(hit.LitresPer100-base.LitresPer100, "fuel_premium_l100")
}

// BenchmarkBeaconRateAblation sweeps the CAM rate (DESIGN.md §4): lower
// rates save airtime but loosen control; the spacing error shows the
// trade-off.
func BenchmarkBeaconRateAblation(b *testing.B) {
	for _, period := range []sim.Time{50 * sim.Millisecond, 100 * sim.Millisecond,
		200 * sim.Millisecond, 400 * sim.Millisecond} {
		period := period
		b.Run(fmt.Sprintf("beacon=%v", period), func(b *testing.B) {
			var r *platoonsec.Result
			for i := 0; i < b.N; i++ {
				o := benchOpts("", platoonsec.DefensePack{})
				o.Cfg.BeaconPeriod = period
				o.Cfg.BeaconStale = 5 * period
				r = mustRun(b, o)
			}
			b.ReportMetric(r.MaxSpacingErr, "spacing_m")
			b.ReportMetric(r.BusyRatio*1000, "busy_permille")
		})
	}
}

// BenchmarkDefenseStackAblation measures each defense layer's overhead
// and residual protection on the baseline (no attack): the cost side of
// Table III.
func BenchmarkDefenseStackAblation(b *testing.B) {
	packs := map[string]platoonsec.DefensePack{
		"none":      {},
		"pki":       {PKI: true},
		"pki+enc":   {PKI: true, Encrypt: true},
		"vpd+trust": {VPDADA: true, Trust: true},
		"full":      platoonsec.AllDefenses(),
	}
	for name, pack := range packs {
		name, pack := name, pack
		b.Run(name, func(b *testing.B) {
			var r *platoonsec.Result
			for i := 0; i < b.N; i++ {
				r = mustRun(b, benchOpts("", pack))
			}
			b.ReportMetric(r.MaxSpacingErr, "spacing_m")
			b.ReportMetric(float64(r.Collisions), "collisions")
		})
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
