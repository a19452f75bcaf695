package rsu

import (
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/platoon"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
)

// Client is the vehicle-side key-management endpoint. It rides on a
// platoon.Agent: install its Handle method with platoon.WithMessageHook
// and Bind the agent afterwards.
//
//	session := security.SessionKey{}            // empty until served
//	client := rsu.NewClient(vehicleID, pairwise, &session)
//	agent := platoon.NewAgent(..., platoon.WithMessageHook(client.Handle),
//	    platoon.WithSecurity(&platoon.SecurityOptions{Session: &session, ...}))
//	client.Bind(agent)
type Client struct {
	vehicleID uint32
	pairwise  [32]byte
	session   *security.SessionKey
	agent     *platoon.Agent

	nonce     uint64
	keysRecvd uint64
}

// NewClient creates a key client updating *session in place whenever a
// key arrives.
func NewClient(vehicleID uint32, pairwise [32]byte, session *security.SessionKey) *Client {
	return &Client{vehicleID: vehicleID, pairwise: pairwise, session: session}
}

// Bind attaches the agent the client transmits through.
func (c *Client) Bind(a *platoon.Agent) { c.agent = a }

// KeysReceived returns how many key responses the client has installed.
func (c *Client) KeysReceived() uint64 { return c.keysRecvd }

// Epoch returns the current installed key epoch (0 = none).
func (c *Client) Epoch() uint32 {
	if c.session == nil {
		return 0
	}
	return c.session.Epoch
}

// RequestKey asks the RSU for the platoon session key.
func (c *Client) RequestKey(platoonID uint32) {
	if c.agent == nil {
		return
	}
	c.nonce++
	req := &message.KeyRequest{
		VehicleID:  c.vehicleID,
		PlatoonID:  platoonID,
		Nonce:      c.nonce,
		TimestampN: int64(c.agent.Now()),
	}
	c.agent.SendPlain(req.Marshal())
}

// Handle is the platoon.WithMessageHook callback.
func (c *Client) Handle(kind message.Kind, env *message.Envelope, _ mac.Rx, _ sim.Time) {
	if kind != message.KindKeyResponse {
		return
	}
	var resp message.KeyResponse
	if err := message.DecodeKeyResponse(env.Payload, &resp); err != nil || resp.VehicleID != c.vehicleID {
		return
	}
	// Solicited responses must echo our latest nonce; nonce 0 marks an
	// unsolicited rotation push.
	if resp.Nonce != 0 && resp.Nonce != c.nonce {
		return
	}
	key, err := security.OpenFromRSU(resp.SealedKey, c.pairwise, c.vehicleID, resp.KeyEpoch)
	if err != nil {
		return
	}
	if c.session != nil && key.Epoch >= c.session.Epoch {
		*c.session = key
		c.keysRecvd++
	}
}
