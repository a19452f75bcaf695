// Package taxonomy is the machine-readable registry behind the paper's
// survey tables: the security properties (§IV's cryptography-derived
// classification), the platoon assets, the nine attack classes of
// Table II, the seven related surveys of Table I, and the five defense
// mechanism families of Table III. cmd/docsgen and the bench harness
// render and cross-check these structures against simulation results.
package taxonomy

import "fmt"

// Property is a security attribute from the classification the paper
// adopts (§IV, following [11], [22]).
type Property int

// Security properties.
const (
	Authenticity Property = iota + 1
	Integrity
	Availability
	Confidentiality
)

func (p Property) String() string {
	switch p {
	case Authenticity:
		return "authenticity"
	case Integrity:
		return "integrity"
	case Availability:
		return "availability"
	case Confidentiality:
		return "confidentiality"
	default:
		return fmt.Sprintf("property(%d)", int(p))
	}
}

// Asset is a platoon network component an attack targets (§IV).
type Asset string

// Platoon assets.
const (
	AssetLeader    Asset = "leader"
	AssetMember    Asset = "member"
	AssetJoinLeave Asset = "join/leave"
	AssetRSU       Asset = "rsu"
	AssetTA        Asset = "trusted-authority"
	AssetSensors   Asset = "sensors"
	AssetVehicle   Asset = "platoon-enabled-vehicle"
)

// AttackClass is one Table II row.
type AttackClass struct {
	// Key is the stable identifier used across the codebase (matches
	// attack.Attack Name prefixes and bench names).
	Key string
	// Title is the Table II row name.
	Title string
	// Properties lists the security attributes compromised.
	Properties []Property
	// Assets lists the targeted components.
	Assets []Asset
	// Summary is the paper's short description of the compromise.
	Summary string
	// Section is where the paper details the attack.
	Section string
	// Feasibility estimates attacker effort on a 1 (nation-state) to
	// 5 (script kiddie with a radio) scale; it feeds the §VI-B4 risk
	// assessment.
	Feasibility int
	// Insider marks attacks requiring a foothold inside the platoon.
	Insider bool
	// Injects lists the internal/attack functions (Type.Method) that
	// put this attack's data into the world. Each carries a
	// //platoonvet:taint-source directive — the taint analyzer seeds
	// there, and internal/attack's coverage test fails if a listed
	// site exists without the annotation (or injects outside the
	// list). Empty means the attack is purely passive.
	Injects []string
	// GatedBy lists the sanitizer functions
	// (//platoonvet:sanitizer) standing between this attack's
	// injected fields and the trusted sinks. Empty means the attack
	// acts below the message boundary, where no payload sanitizer
	// applies and only physical-layer defenses help.
	GatedBy []string
}

// Attacks returns the Table II rows in paper order.
func Attacks() []AttackClass {
	return []AttackClass{
		{
			Key: "sybil", Title: "Sybil attack",
			Properties: []Property{Authenticity},
			Assets:     []Asset{AssetLeader, AssetMember, AssetRSU},
			Summary: "attacker within the platoon creates ghost vehicles that get " +
				"accepted, destabilising the platoon and preventing members from joining",
			Section: "V-A2", Feasibility: 3, Insider: true,
			Injects: []string{"Sybil.onRx", "Sybil.pumpJoins", "Sybil.beaconGhosts"},
			GatedBy: []string{"security.Verifier.Verify", "defense.JoinGate.Check", "defense.TrustManager.Check", "defense.VPDADA.Check"},
		},
		{
			Key: "fake-maneuver", Title: "Fake maneuver attack",
			Properties: []Property{Integrity},
			Assets:     []Asset{AssetMember, AssetRSU},
			Summary: "forged entrance/leave/split requests break the platoon into " +
				"smaller platoons or open gaps for nonexistent vehicles; members can be removed",
			Section: "V-A3", Feasibility: 4,
			Injects: []string{"FakeManeuver.inject"},
			GatedBy: []string{"security.Verifier.Verify", "defense.VPDADA.Check"},
		},
		{
			Key: "replay", Title: "Replay",
			Properties: []Property{Integrity},
			Assets:     []Asset{AssetLeader, AssetMember, AssetJoinLeave, AssetRSU},
			Summary: "old messages re-injected make members act on conflicting " +
				"information, causing oscillation",
			Section: "V-A1", Feasibility: 5,
			Injects: []string{"Replay.injectOne"},
			GatedBy: []string{"security.Verifier.Verify", "security.ReplayGuard.Check"},
		},
		{
			Key: "jamming", Title: "Jamming",
			Properties: []Property{Availability},
			Assets:     []Asset{AssetLeader, AssetMember},
			Summary: "noise on platoon frequencies prevents all communication; the " +
				"platoon disbands until it can reform",
			Section: "V-B", Feasibility: 5,
			Injects: []string{"Jamming.Start"},
			GatedBy: nil,
		},
		{
			Key: "eavesdropping", Title: "Eavesdropping",
			Properties: []Property{Confidentiality},
			Assets:     []Asset{AssetLeader, AssetMember, AssetVehicle},
			Summary: "attacker understands transmitted information, enabling data " +
				"theft, tracking and follow-on attacks",
			Section: "V-C", Feasibility: 5,
			Injects: nil,
			GatedBy: nil,
		},
		{
			Key: "dos", Title: "Denial of Service",
			Properties: []Property{Availability},
			Assets:     []Asset{AssetJoinLeave, AssetRSU, AssetLeader},
			Summary: "join-request flooding prevents users from joining or creating " +
				"a platoon",
			Section: "V-D", Feasibility: 4,
			Injects: []string{"DoSFlood.inject"},
			GatedBy: []string{"security.Verifier.Verify", "defense.RateLimiter.Check", "defense.JoinGate.Check"},
		},
		{
			Key: "impersonation", Title: "Impersonation",
			Properties: []Property{Integrity, Confidentiality},
			Assets:     []Asset{AssetLeader, AssetMember, AssetRSU, AssetTA, AssetVehicle},
			Summary: "attacker poses as another network participant using a stolen " +
				"or forged ID; the innocent user bears the consequences",
			Section: "V-F", Feasibility: 3,
			Injects: []string{"Impersonation.send"},
			GatedBy: []string{"security.Verifier.Verify", "defense.TrustManager.Check"},
		},
		{
			Key: "sensor-spoofing", Title: "Jamming and spoofing sensors",
			Properties: []Property{Authenticity, Availability},
			Assets:     []Asset{AssetSensors, AssetVehicle},
			Summary: "GPS spoofing and blinded/forged sensors lead to false sensing " +
				"and unsafe control decisions",
			Section: "V-G", Feasibility: 3,
			Injects: []string{"GPSSpoof.Start", "SensorBlind.Start", "GPSJam.Start"},
			GatedBy: []string{"defense.VPDADA.Check", "defense.HybridFilter.Check"},
		},
		{
			Key: "malware", Title: "Malware",
			Properties: []Property{Availability, Integrity},
			Assets:     []Asset{AssetVehicle, AssetRSU, AssetTA},
			Summary: "compromised on-board software prevents platooning or carries " +
				"out data theft, sensor spoofing and insider FDI",
			Section: "V-H", Feasibility: 2, Insider: true,
			Injects: []string{"Malware.Lie", "Malware.InjectCAN"},
			GatedBy: []string{"defense.VPDADA.Check", "defense.TrustManager.Check"},
		},
	}
}

// AttackByKey returns the attack class with the given key.
func AttackByKey(key string) (AttackClass, bool) {
	for _, a := range Attacks() {
		if a.Key == key {
			return a, true
		}
	}
	return AttackClass{}, false
}

// Survey is one Table I row.
type Survey struct {
	Key       string
	Citation  string
	Year      int
	KeyPoints string
	// Attacks lists the attack families the survey discusses.
	Attacks []string
}

// Surveys returns the Table I rows in paper order.
func Surveys() []Survey {
	return []Survey{
		{
			Key: "isaac2010", Citation: "Isaac et al., 2010 [18]", Year: 2010,
			KeyPoints: "structures attacks and mechanisms via cryptography-related classification: " +
				"anonymity, key management, privacy, reputation and location",
			Attacks: []string{
				"brute force", "misbehaving & malicious vehicles", "traffic analysis",
				"illusion", "forging positions", "sybil false position disseminating",
			},
		},
		{
			Key: "checkoway2011", Citation: "Checkoway et al., 2011 [21]", Year: 2011,
			KeyPoints: "classifies attack surfaces by required attacker range: indirect physical, " +
				"short-range wireless, long-range wireless",
			Attacks: []string{
				"CD-based remote access", "bluetooth", "remote keyless entry",
				"infrared ID", "cellular", "tyre pressure sensors",
			},
		},
		{
			Key: "alkahtani2012", Citation: "AL-Kahtani et al., 2012 [12]", Year: 2012,
			KeyPoints: "describes attacks with the security requirement they break: data integrity, " +
				"authentication, availability, confidentiality",
			Attacks: []string{
				"bogus information", "dos", "masquerading", "blackhole", "malware",
				"spamming", "timing", "gps spoofing", "man-in-the-middle", "sybil",
				"wormhole", "illusion", "impersonation",
			},
		},
		{
			Key: "mejri2014", Citation: "Mejri et al., 2014 [22]", Year: 2014,
			KeyPoints: "outlines VANET privacy/security challenges grouped by broken attribute: " +
				"availability, authenticity, confidentiality, integrity, non-repudiation",
			Attacks: []string{
				"dos", "jamming", "greedy behaviour", "malware", "broadcast tampering",
				"blackhole", "spamming", "eavesdrop", "sybil", "gps spoofing",
				"masquerade", "replay", "tunneling", "key/certificate replication",
				"position faking", "message alteration", "information gathering",
				"traffic analysis", "loss of event traceability",
			},
		},
		{
			Key: "parkinson2017", Citation: "Parkinson et al., 2017 [13]", Year: 2017,
			KeyPoints: "wide-ranging CAV and platoon threats structured as threats to vehicles, " +
				"human aspects and infrastructure",
			Attacks: []string{
				"sensor spoofing", "jamming and dos", "malware", "fdi on can",
				"tpms attacks", "information theft", "location tracking", "bad driver",
				"communication jamming", "password and key attacks", "phishing",
				"rogue updates",
			},
		},
		{
			Key: "zhaojun2018", Citation: "Zhaojun et al., 2018 [11]", Year: 2018,
			KeyPoints: "in-depth VANET security and privacy; attacks grouped by broken attribute " +
				"including non-repudiation",
			Attacks: []string{
				"dos", "jamming", "malware", "broadcast tampering", "blackhole/greyhole",
				"greedy behaviour", "spamming", "eavesdrop", "traffic analysis", "sybil",
				"tunneling", "gps spoofing", "freeriding", "message falsification",
				"masquerade", "replay", "repudiation",
			},
		},
		{
			Key: "harkness2020", Citation: "Harkness et al., 2020 [19]", Year: 2020,
			KeyPoints: "ITS security investigation with risk-based recommendations for securing " +
				"test-beds",
			Attacks: []string{
				"sensor spoofing and jamming", "information theft", "eavesdropping",
				"malware on vehicles and infrastructure",
			},
		},
		{
			Key: "hussain2020", Citation: "Hussain et al., 2020 [20]", Year: 2020,
			KeyPoints: "VANET trust management survey; identifies open research questions and " +
				"discusses the REPLACE platoon trust scheme [6]",
			Attacks: []string{},
		},
	}
}

// Mechanism is one Table III row.
type Mechanism struct {
	Key   string
	Title string
	// Mitigates lists attack keys the mechanism addresses per Table III.
	Mitigates []string
	// OpenChallenge is the paper's stated open problem.
	OpenChallenge string
	// Section is where the paper details the mechanism.
	Section string
}

// Mechanisms returns the Table III rows in paper order.
func Mechanisms() []Mechanism {
	return []Mechanism{
		{
			Key: "keys", Title: "Secret and Public Keys",
			Mitigates: []string{"eavesdropping", "fake-maneuver", "replay", "dos", "sybil", "impersonation"},
			OpenChallenge: "large-scale testing of key creation and distribution methods to compare " +
				"effectiveness against cost",
			Section: "VI-A1",
		},
		{
			Key: "rsu", Title: "Roadside Units (RSU)",
			Mitigates: []string{"impersonation", "fake-maneuver"},
			OpenChallenge: "RSU network security and identification of rogue RSUs; handling " +
				"low-RSU-density stretches",
			Section: "VI-A2",
		},
		{
			Key: "control-algorithms", Title: "Control Algorithms",
			Mitigates: []string{"dos", "sybil", "replay", "fake-maneuver"},
			OpenChallenge: "where in the network the algorithms are most efficiently deployed " +
				"without hurting control latency",
			Section: "VI-A3",
		},
		{
			Key: "hybrid-comms", Title: "Hybrid Communications",
			Mitigates:     []string{"jamming", "sybil", "replay", "fake-maneuver"},
			OpenChallenge: "use of VLC and wireless radio between V2I is lacking",
			Section:       "VI-A4",
		},
		{
			Key: "onboard", Title: "Securing Onboard Systems",
			Mitigates: []string{"malware", "sensor-spoofing"},
			OpenChallenge: "most effective means to deploy such security measures without " +
				"affecting response",
			Section: "VI-A5",
		},
	}
}

// MechanismByKey returns the mechanism with the given key.
func MechanismByKey(key string) (Mechanism, bool) {
	for _, m := range Mechanisms() {
		if m.Key == key {
			return m, true
		}
	}
	return Mechanism{}, false
}
