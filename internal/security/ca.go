// Package security implements the cryptographic mechanisms the paper's
// defense section (§VI-A1, §VI-A2) surveys: a certificate authority with
// Ed25519 vehicle certificates, envelope signing and verification,
// timestamp/nonce replay protection, platoon session keys with epochs and
// AES-CTR payload sealing, and a simulation of quantized fading-channel
// key agreement (Li et al. [5]).
//
// Everything uses the Go standard library (crypto/ed25519, crypto/aes,
// crypto/hmac); key material is generated from deterministic simulation
// streams so runs are reproducible.
package security

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"platoonsec/internal/obs"
	"platoonsec/internal/sim"
)

// Errors returned by certificate operations.
var (
	ErrBadCertSignature = errors.New("security: certificate signature invalid")
	ErrCertExpired      = errors.New("security: certificate outside validity window")
	ErrCertRevoked      = errors.New("security: certificate revoked")
	ErrUnknownSerial    = errors.New("security: unknown certificate serial")
)

// Certificate binds a vehicle identity to a public key for a validity
// window, signed by the CA. This is the paper's PKI building block
// (§VI-A1).
type Certificate struct {
	Serial    uint32
	VehicleID uint32
	PublicKey ed25519.PublicKey
	NotBefore sim.Time
	NotAfter  sim.Time
	CASig     []byte
}

// appendTBS appends the to-be-signed encoding of the certificate to
// buf. Certificate checks append into the CA's scratch, so a check
// allocates nothing once that scratch has grown.
func (c *Certificate) appendTBS(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, c.Serial)
	buf = binary.LittleEndian.AppendUint32(buf, c.VehicleID)
	buf = append(buf, c.PublicKey...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NotBefore))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NotAfter))
	return buf
}

// CA is the trusted authority issuing and revoking vehicle certificates.
//
// A run builds one CA and hands it to every Verifier, so the CA also
// carries the run's verify memos: the certificate memo (one entry per
// serial whose CA signature checked out) and the verdict memo (a fixed
// table of positive frame-signature results). Both hold only positive
// results keyed on the exact bytes checked, so they change how often
// ed25519 runs, never what a check returns. Like everything inside a
// run, a CA is single-goroutine.
type CA struct {
	pub        ed25519.PublicKey
	priv       ed25519.PrivateKey
	nextSerial uint32
	issued     map[uint32]*Certificate
	revoked    map[uint32]bool
	byVehicle  map[uint32][]uint32 // vehicleID → serials

	certMemo map[uint32]certEntry
	verdicts verdictMemo
	tbsBuf   []byte // scratch for the to-be-signed image of each check
	ctr      counters
}

// NewCA creates a CA whose root key derives deterministically from rng.
func NewCA(rng *sim.Stream) (*CA, error) {
	seed := make([]byte, ed25519.SeedSize)
	rng.Bytes(seed)
	priv := ed25519.NewKeyFromSeed(seed)
	return &CA{
		pub:        priv.Public().(ed25519.PublicKey),
		priv:       priv,
		nextSerial: 1,
		issued:     make(map[uint32]*Certificate),
		revoked:    make(map[uint32]bool),
		byVehicle:  make(map[uint32][]uint32),
		certMemo:   make(map[uint32]certEntry),
	}, nil
}

// SetRecorder attaches an observability recorder; nil detaches it.
// Counters are resolved once here, so with no recorder every count is
// a nil-receiver no-op. Counting changes no verdict.
func (ca *CA) SetRecorder(rec obs.Recorder) {
	if rec == nil {
		ca.ctr = counters{}
		return
	}
	ca.ctr = newCounters(rec.Metrics())
}

// PublicKey returns the CA root public key vehicles pin.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.pub }

// Issue creates an identity (keypair + certificate) for a vehicle. The
// keypair derives from rng so simulations are reproducible.
func (ca *CA) Issue(vehicleID uint32, notBefore, notAfter sim.Time, rng *sim.Stream) (*Identity, error) {
	if notAfter <= notBefore {
		return nil, fmt.Errorf("security: Issue(%d): empty validity window", vehicleID)
	}
	seed := make([]byte, ed25519.SeedSize)
	rng.Bytes(seed)
	priv := ed25519.NewKeyFromSeed(seed)
	cert := &Certificate{
		Serial:    ca.nextSerial,
		VehicleID: vehicleID,
		PublicKey: priv.Public().(ed25519.PublicKey),
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	ca.nextSerial++
	cert.CASig = ed25519.Sign(ca.priv, cert.appendTBS(nil))
	ca.issued[cert.Serial] = cert
	ca.byVehicle[vehicleID] = append(ca.byVehicle[vehicleID], cert.Serial)
	return &Identity{Cert: cert, priv: priv}, nil
}

// RevokeVehicle revokes every certificate issued to a vehicle — the
// TA's response to confirmed misbehaviour (§VI-A2: "anomalous users can
// be screened out"). It returns how many serials were revoked.
func (ca *CA) RevokeVehicle(vehicleID uint32) int {
	n := 0
	for _, serial := range ca.byVehicle[vehicleID] {
		if !ca.revoked[serial] {
			ca.revoked[serial] = true
			n++
		}
	}
	return n
}

// Revoke adds a serial to the revocation list (how the TA screens out
// anomalous users, §VI-A2).
func (ca *CA) Revoke(serial uint32) { ca.revoked[serial] = true }

// Revoked reports whether a serial is revoked.
func (ca *CA) Revoked(serial uint32) bool { return ca.revoked[serial] }

// Lookup returns the issued certificate with the given serial.
func (ca *CA) Lookup(serial uint32) (*Certificate, error) {
	c, ok := ca.issued[serial]
	if !ok {
		//platoonvet:alloc-ok error path: unknown serials occur only for forged or unprovisioned senders
		return nil, fmt.Errorf("%w: %d", ErrUnknownSerial, serial)
	}
	return c, nil
}

// Verify checks a certificate chain: CA signature, validity at time now,
// and revocation status. The CA signature check is memoised per serial
// (see certSigOK); validity and revocation are checked on every call.
func (ca *CA) Verify(c *Certificate, now sim.Time) error {
	if !ca.certSigOK(c) {
		return ErrBadCertSignature
	}
	if now < c.NotBefore || now > c.NotAfter {
		//platoonvet:alloc-ok error path: expiry rejections are the exception, not steady state
		return fmt.Errorf("%w: now=%v window=[%v,%v]", ErrCertExpired, now, c.NotBefore, c.NotAfter)
	}
	if ca.revoked[c.Serial] {
		//platoonvet:alloc-ok error path: revocation rejections are the exception, not steady state
		return fmt.Errorf("%w: serial %d", ErrCertRevoked, c.Serial)
	}
	return nil
}

// Identity is a vehicle's key material: certificate plus private key.
// Stealing an Identity is exactly the impersonation precondition the
// paper describes (§V-F: "obtain the identification of an innocent
// user").
type Identity struct {
	Cert *Certificate
	priv ed25519.PrivateKey
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// Clone returns a copy of the identity — the attacker's stolen-ID
// operation. It exists so attack code states its intent explicitly.
func (id *Identity) Clone() *Identity {
	privCopy := make(ed25519.PrivateKey, len(id.priv))
	copy(privCopy, id.priv)
	certCopy := *id.Cert
	return &Identity{Cert: &certCopy, priv: privCopy}
}
