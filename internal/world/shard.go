package world

// A shard owns one arc of the ring: its own deterministic sim.Kernel,
// a phy.Channel for propagation math, the shared mac radio config and
// jammer, and the units currently inside the arc. During an epoch a
// shard touches only its own state plus the immutable global air
// slice from the previous barrier, so shards run in parallel with no
// synchronisation; everything they want to say to the rest of the
// world (frames, lifecycle proposals, span/event intents) is queued
// locally and drained by the coordinator at the barrier in canonical
// order.

import (
	"cmp"
	"slices"
	"sort"

	"platoonsec/internal/mac"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/phy"
	"platoonsec/internal/sim"
)

// txFrame is an outbound frame plus its provenance threading: cause
// is a concrete span (typically the received frame that triggered
// this one); causeRef references an intent emitted by the same unit
// in the same epoch (the join-denial span, threaded into the deny
// response exactly like the platoon layer's one-shot txCause).
type txFrame struct {
	Frame
	cause    span.ID
	causeRef uint64 // unit<<32 | intentSeq; 0 = none
}

// intent is a shard-local observation drained at the barrier: a span
// and/or JSONL event to be recorded in canonical (atNS, unit,
// intentSeq) order by the coordinator.
type intent struct {
	atNS   int64
	unit   uint32
	seq    uint64 // per-unit intent sequence
	kind   string
	other  uint32
	value  float64
	parent span.ID
	cause  span.ID
}

// proposal asks the manager for a lifecycle mutation at the barrier.
type proposal struct {
	atNS     int64
	kind     uint8
	unit     uint32 // proposing / affected unit
	seq      uint64 // per-unit sequence (shared with intents)
	other    uint32 // counterpart unit
	idx      int    // split index
	targetMS float64
	cause    span.ID
}

// Proposal kinds.
const (
	propJoin uint8 = iota + 1
	propAdmitGhost
	propMerge
	propSplit
	propLeave
	propEjectGhost
	propJunction
)

type shard struct {
	w   *World
	idx int
	k   *sim.Kernel
	ch  *phy.Channel
	cfg mac.Config
	jam *mac.Jammer // nil unless the jamming attack is configured

	// units are the owned units in ID order. byPos holds the same
	// units in (PosM, ID) order: the index windowed delivery
	// binary-searches. It is refilled when membership changed
	// (byPosStale) and otherwise re-sorted in place, since units move
	// a few metres per epoch and leave it nearly sorted.
	units      []*Unit
	byPos      []*Unit
	byPosStale bool

	// onEpoch is the tick event, bound once so that scheduling it
	// allocates nothing.
	onEpoch func()

	// Per-epoch outputs, drained and reset at each barrier. leaving
	// lists the units whose move took them out of this shard's arc;
	// the barrier migrates them.
	outbox    []txFrame
	intents   []intent
	proposals []proposal
	leaving   []*Unit

	// Frame accounting, summed into the world totals at each barrier.
	// Per-(frame, receiver) work is identical at any sharding, so the
	// sums are invariant even though the per-shard split is not. So is
	// rangeChecks: a window holds the same units whichever shard owns
	// them.
	delivered, lost, jammed uint64
	nearTx, nearOK          uint64
	farTx, farOK            uint64
	denials, gapRestores    uint64
	airtimeNS               int64
	unitTicks               uint64
	rangeChecks             uint64

	// wallNS is the shard's own wall-clock step duration for the last
	// epoch, measured only when Options.WallClock is injected. Written
	// by the worker stepping this shard, read at the barrier — never
	// shared mid-epoch.
	wallNS int64
}

// unitIndex returns id's position in the ID-ordered units slice and
// whether the shard owns it.
func (s *shard) unitIndex(id uint32) (int, bool) {
	return slices.BinarySearchFunc(s.units, id, func(u *Unit, id uint32) int { return cmp.Compare(u.ID, id) })
}

// addUnit takes ownership of u, keeping units in ID order.
func (s *shard) addUnit(u *Unit) {
	i, _ := s.unitIndex(u.ID)
	s.units = slices.Insert(s.units, i, u)
	s.byPosStale = true
}

// removeUnit releases ownership of id, reporting whether the shard
// owned it.
func (s *shard) removeUnit(id uint32) bool {
	i, ok := s.unitIndex(id)
	if ok {
		s.units = slices.Delete(s.units, i, i+1)
		s.byPosStale = true
	}
	return ok
}

// step advances the shard kernel through the world's current epoch:
// a single tick event at the epoch start processes the global air,
// moves the owned units and emits their frames. Called from the
// engine's fork/join; shards share nothing mid-epoch.
func (s *shard) step() {
	s.k.At(s.w.epochStart, "world.epoch", s.onEpoch)
	// Run to just short of the next epoch boundary so the next
	// epoch's tick fires in the next step call, not this one.
	if err := s.k.Run(s.w.epochEnd - 1); err != nil {
		panic(err) // kernel Stop is never used by the world
	}
}

// tick is the per-epoch unit update. It runs on the shard kernel
// goroutine and must only touch shard-owned state and the immutable
// w.air slice.
func (s *shard) tick() {
	w := s.w
	nowNS, endNS := int64(w.epochStart), int64(w.epochEnd)
	// Phase 1 — reception of every frame on the air last epoch.
	s.receptions(func(u *Unit, f *Frame, distM float64) { s.receive(u, f, distM, nowNS) })
	// Phase 2 — mobility and lifecycle initiative, in unit ID order.
	dt := float64(endNS-nowNS) / 1e9
	for _, u := range s.units {
		s.unitTicks++
		s.move(u, dt, nowNS)
		s.act(u, nowNS)
		// Beacons last: the CAM reflects this tick's state.
		if nowNS >= u.BeaconAtNS {
			s.sendBeacon(u, nowNS)
		}
		if w.shardIdx(u.PosM) != s.idx {
			s.leaving = append(s.leaving, u)
		}
	}
}

// receptions calls rx for every (frame, owned unit) pair within
// radio range, the sender excluded. Frames are the outer loop and
// their order is globally canonical (sorted at the barrier), so each
// receiving unit consumes its loss draws in the same order at any
// shard count. Each frame's candidates come from a binary search of
// the position index; the window only narrows them, and the exact
// range predicate still decides who receives.
func (s *shard) receptions(rx func(u *Unit, f *Frame, distM float64)) {
	s.sortByPos()
	for fi := range s.w.air {
		f := &s.w.air[fi]
		a0, a1, b0, b1 := s.window(f.PosM)
		s.rangeChecks += uint64(a1 - a0 + b1 - b0)
		for _, cands := range [2][]*Unit{s.byPos[a0:a1], s.byPos[b0:b1]} {
			for _, u := range cands {
				if u.ID == f.Src {
					continue
				}
				if d := s.w.ring.dist(u.PosM, f.PosM); d <= s.w.opts.RadioRangeM {
					rx(u, f, d)
				}
			}
		}
	}
}

// window returns the byPos index ranges [a0,a1) and [b0,b1) holding
// every unit within radio range of pos, widened by roundingSlack. The
// window wraps at the ring seam, so it covers at most two ranges;
// when it spans the whole ring it covers every unit.
func (s *shard) window(pos float64) (a0, a1, b0, b1 int) {
	l := s.w.ring.lengthM
	reach := s.w.opts.RadioRangeM + roundingSlack*l
	if 2*reach >= l {
		return 0, len(s.byPos), 0, 0
	}
	lo, hi := pos-reach, pos+reach
	switch {
	case lo < 0:
		a0, a1 = s.between(lo+l, l)
		b0, b1 = s.between(0, hi)
	case hi >= l:
		a0, a1 = s.between(lo, l)
		b0, b1 = s.between(0, hi-l)
	default:
		a0, a1 = s.between(lo, hi)
	}
	return a0, a1, b0, b1
}

// between returns the byPos index range of the units with PosM in
// [lo, hi]. Most windows miss a shard's arc entirely, which the
// bounds test settles without a search.
func (s *shard) between(lo, hi float64) (int, int) {
	p := s.byPos
	if len(p) == 0 || hi < p[0].PosM || lo > p[len(p)-1].PosM {
		return 0, 0
	}
	i := sort.Search(len(p), func(i int) bool { return p[i].PosM >= lo })
	return i, i + sort.Search(len(p)-i, func(k int) bool { return p[i+k].PosM > hi })
}

// sortByPos brings byPos into (PosM, ID) order for this epoch's
// positions: a full refill and sort after a membership change, an
// in-place insertion sort otherwise.
func (s *shard) sortByPos() {
	if s.byPosStale {
		s.byPos = append(s.byPos[:0], s.units...)
		slices.SortFunc(s.byPos, cmpPos)
		s.byPosStale = false
		return
	}
	p := s.byPos
	for i := 1; i < len(p); i++ {
		u, j := p[i], i
		for ; j > 0 && posLess(u, p[j-1]); j-- {
			p[j] = p[j-1]
		}
		p[j] = u
	}
}

// posLess reports whether a precedes b in (PosM, ID) order.
func posLess(a, b *Unit) bool {
	return a.PosM < b.PosM || a.PosM == b.PosM && a.ID < b.ID
}

// cmpPos is posLess as a three-way comparison, for slices.SortFunc.
func cmpPos(a, b *Unit) int {
	switch {
	case posLess(a, b):
		return -1
	case posLess(b, a):
		return 1
	}
	return 0
}

// receive runs one (frame, receiver) delivery attempt: deterministic
// propagation, jammer interference, a counter-keyed loss draw, then
// the protocol handler.
func (s *shard) receive(u *Unit, f *Frame, distM float64, nowNS int64) {
	near := s.w.nearJammer(u.PosM)
	if near {
		s.nearTx++
	} else {
		s.farTx++
	}
	signal := s.ch.MeanRxPowerDBm(s.w.opts.TxPowerDBm, distM)
	interference := phy.NoPower
	jammed := false
	if s.jam != nil && s.jam.OverlapsWindow(sim.Time(f.AtNS), sim.Time(f.AtNS)+s.airtime()) {
		jd := s.w.ring.dist(u.PosM, s.jam.Position)
		jp := s.ch.MeanRxPowerDBm(s.jam.PowerDBm, jd)
		interference = phy.AddDBm(interference, jp)
		jammed = true
	}
	sinr := phy.SINRdB(signal, interference, s.ch.Env.NoiseFloorDBm)
	per := phy.PER(sinr, s.w.opts.FrameBytes)
	if u.draw(s.w.opts.Seed) < per {
		s.lost++
		if jammed {
			s.jammed++
		}
		if s.w.spansOn && (f.Span != 0 || jammed) {
			var cause span.ID
			if jammed {
				cause = s.w.jamSpan
			}
			s.intents = append(s.intents, intent{
				atNS: nowNS, unit: u.ID, seq: u.nextIntent(),
				kind: "world.frame_loss", other: f.Src, value: sinr,
				parent: f.Span, cause: cause,
			})
		}
		return
	}
	s.delivered++
	if near {
		s.nearOK++
	} else {
		s.farOK++
	}
	switch f.Kind {
	case FrameBeacon:
		s.handleBeacon(u, f, nowNS)
	case FrameJoinReq:
		if f.Dst == u.ID {
			s.handleJoinReq(u, f, nowNS)
		}
	case FrameJoinResp:
		if f.Dst == u.ID {
			s.handleJoinResp(u, f)
		}
	}
}

// handleBeacon refreshes the receiver's nearest-platoon-ahead cache.
func (s *shard) handleBeacon(u *Unit, f *Frame, nowNS int64) {
	fwd := s.w.ring.forward(u.PosM, f.PosM)
	if fwd <= 0 || fwd > s.w.opts.RadioRangeM {
		return
	}
	if u.AheadID == f.Src || u.AheadAtNS < nowNS-int64(s.w.staleNS) || fwd < u.AheadDistM {
		u.AheadID = f.Src
		u.AheadSize = f.Size
		u.AheadDistM = fwd
		u.AheadSpeedMS = f.SpeedMS
		u.AheadAtNS = nowNS
	}
}

// handleJoinReq is the leader-side admission decision. Accepts turn
// into manager proposals applied at the barrier; denials emit the
// join_denied intent and thread its span into the deny response —
// the same one-shot cause threading the platoon layer uses.
func (s *shard) handleJoinReq(u *Unit, f *Frame, nowNS int64) {
	if u.Ghost {
		return
	}
	if u.Size() >= s.w.opts.MaxPlatoonSize {
		s.denials++
		seq := u.nextIntent()
		if s.w.spansOn {
			s.intents = append(s.intents, intent{
				atNS: nowNS, unit: u.ID, seq: seq,
				kind: "world.join_denied", other: f.Src, parent: f.Span,
			})
		}
		s.send(u, txFrame{
			Frame:    Frame{Kind: FrameJoinResp, Dst: f.Src, Accept: false},
			causeRef: uint64(u.ID)<<32 | seq&0xffffffff,
		}, nowNS)
		return
	}
	kind := propJoin
	if f.SrcVeh >= ghostVehBase {
		kind = propAdmitGhost
	}
	s.proposals = append(s.proposals, proposal{
		atNS: nowNS, kind: kind, unit: u.ID, seq: u.nextIntent(),
		other: f.Src, cause: f.Span,
	})
	s.send(u, txFrame{
		Frame: Frame{Kind: FrameJoinResp, Dst: f.Src, Accept: true},
		cause: f.Span,
	}, nowNS)
}

// handleJoinResp settles the requester side. Accepted real joiners
// were already absorbed at the barrier (the unit is gone, so the
// frame finds no receiver); what arrives here is denials and ghost
// bookkeeping.
func (s *shard) handleJoinResp(u *Unit, f *Frame) {
	if f.Src != u.PendingJoin {
		return
	}
	if !f.Accept {
		u.PendingJoin = 0
		u.Avoid = f.Src
	}
	// Accepted ghosts were admitted at the barrier; nothing to do.
}

// move integrates mobility: speed relaxation, position advance,
// min-gap restore decay, junction crossings.
func (s *shard) move(u *Unit, dt float64, nowNS int64) {
	o := &s.w.opts
	dv := u.TargetMS - u.SpeedMS
	if max := o.MaxAccelMS2 * dt; dv > max {
		dv = max
	} else if dv < -max {
		dv = -max
	}
	u.SpeedMS += dv
	oldPos := u.PosM
	u.PosM = s.w.ring.wrap(u.PosM + u.SpeedMS*dt)
	if u.ExtraGapM > 0 {
		u.ExtraGapM -= o.GapCloseMS * dt
		if u.ExtraGapM <= 0 {
			u.ExtraGapM = 0
			s.gapRestores++
			s.intents = append(s.intents, intent{
				atNS: nowNS, unit: u.ID, seq: u.nextIntent(), kind: "world.gap_restored",
			})
		}
	}
	if u.Ghost {
		return
	}
	if j := s.w.ring.crossedJunction(oldPos, u.PosM); j >= 0 {
		s.proposals = append(s.proposals, proposal{
			atNS: nowNS, kind: propJunction, unit: u.ID, seq: u.nextIntent(), other: uint32(j),
		})
		if len(u.Members) > 0 && u.draw(o.Seed) < o.JunctionExitProb {
			// A tail slice takes the exit: the draw picks the split
			// index; a split at the last index is a single leaver.
			idx := 1 + int(u.draw(o.Seed)*float64(len(u.Members)))
			if idx > len(u.Members) {
				idx = len(u.Members)
			}
			kind := propSplit
			if idx == len(u.Members) {
				kind = propLeave
			}
			s.proposals = append(s.proposals, proposal{
				atNS: nowNS, kind: kind, unit: u.ID, seq: u.nextIntent(),
				idx:      idx - 1,
				targetMS: o.CruiseMS * (0.85 + 0.1*u.draw(o.Seed)),
			})
		}
	}
	// Keep station behind a close platoon ahead; otherwise chase the
	// cruise target.
	if u.AheadAtNS != 0 && nowNS-u.AheadAtNS <= int64(s.w.staleNS) {
		clear := u.AheadDistM - u.LengthM(o.VehicleLenM)
		if clear < o.SafeGapM {
			u.TargetMS = u.AheadSpeedMS
			return
		}
	}
	u.TargetMS = s.w.cruiseFor(u)
}

// act drives lifecycle initiative: free vehicles and ghosts chase
// admission; platoon leaders propose merges.
func (s *shard) act(u *Unit, nowNS int64) {
	o := &s.w.opts
	if u.PendingJoin != 0 && nowNS-u.PendingAtNS > int64(s.w.joinTimeoutNS) {
		u.PendingJoin = 0 // request or response lost on the air
	}
	if nowNS < u.NextActAtNS {
		return
	}
	stale := u.AheadAtNS == 0 || nowNS-u.AheadAtNS > int64(s.w.staleNS)
	switch {
	case u.Ghost && u.HostID == 0:
		if stale || u.PendingJoin != 0 || u.AheadID == u.Avoid {
			return
		}
		s.requestJoin(u, nowNS, s.w.attackSpanFor(u))
	case !u.Ghost && len(u.Members) == 0:
		// Free vehicle: ask the platoon ahead for admission.
		if stale || u.PendingJoin != 0 || u.AheadDistM > o.JoinRangeM || u.AheadSize == 0 {
			return
		}
		s.requestJoin(u, nowNS, u.LastSpan)
	case !u.Ghost && len(u.Members) > 0:
		// Platoon leader: propose merging into a close, similarly
		// paced platoon ahead when the combined roster fits.
		if stale || u.AheadSize == 0 {
			return
		}
		clear := u.AheadDistM - u.LengthM(o.VehicleLenM)
		if clear > o.MergeGapM || clear < 0 {
			return
		}
		if u.Size()+int(u.AheadSize) > o.MaxPlatoonSize {
			return
		}
		if diff := u.SpeedMS - u.AheadSpeedMS; diff > 3 || diff < -3 {
			return
		}
		s.proposals = append(s.proposals, proposal{
			atNS: nowNS, kind: propMerge, unit: u.AheadID, seq: u.nextIntent(), other: u.ID,
		})
		u.NextActAtNS = nowNS + int64(s.w.actCooldownNS)
	}
}

// requestJoin transmits a join request to the platoon ahead.
func (s *shard) requestJoin(u *Unit, nowNS int64, cause span.ID) {
	u.PendingJoin = u.AheadID
	u.PendingAtNS = nowNS
	u.NextActAtNS = nowNS + int64(s.w.actCooldownNS)
	s.send(u, txFrame{
		Frame: Frame{Kind: FrameJoinReq, Dst: u.AheadID},
		cause: cause,
	}, nowNS)
}

// sendBeacon transmits the unit's periodic CAM and schedules the
// next one with a counter-keyed jitter.
func (s *shard) sendBeacon(u *Unit, nowNS int64) {
	s.send(u, txFrame{Frame: Frame{Kind: FrameBeacon}}, nowNS)
	period := int64(s.w.beaconPeriodNS)
	jitter := int64((u.draw(s.w.opts.Seed) - 0.5) * float64(period) / 10)
	u.BeaconAtNS = nowNS + period + jitter
}

// send stamps the frame with the unit's identity and state and queues
// it for the barrier.
func (s *shard) send(u *Unit, tx txFrame, nowNS int64) {
	tx.Src = u.ID
	tx.SrcVeh = u.LeaderVeh
	tx.Seq = u.nextSeq()
	tx.AtNS = nowNS
	tx.PosM = u.PosM
	tx.SpeedMS = u.SpeedMS
	tx.Frame.Size = uint16(u.Size())
	if u.Ghost {
		tx.Frame.Size = 1
	}
	s.outbox = append(s.outbox, tx)
	s.airtimeNS += int64(s.airtime())
}

// airtime returns one world frame's airtime at the shard's MAC
// bitrate.
func (s *shard) airtime() sim.Time {
	return phy.AirtimeNS(s.w.opts.FrameBytes, s.cfg.Bitrate)
}
