package world

// The world timeline's contract has two halves, both metamorphic:
// enabling it cannot change any other observable (same Result bytes,
// same event stream), and — without a WallClock — the timeline
// itself is partition-invariant, because it samples only the sums
// the shard-invariance suite already pins.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"platoonsec/internal/sim"
)

// TestTimelineDoesNotChangeResults is the observability-off/on
// metamorphic proof: a run with the timeline enabled reproduces the
// plain run exactly once the Timeline field is stripped.
func TestTimelineDoesNotChangeResults(t *testing.T) {
	o := small()
	o.Duration = 20 * sim.Second
	o.AttackKey = "sybil"

	ref, refEvents, _ := capture(t, o, variant{shards: 2, workers: 2})

	o.Timeline = true
	got, gotEvents, _ := capture(t, o, variant{shards: 2, workers: 2})
	if got.Timeline == nil {
		t.Fatal("timeline enabled but Result.Timeline is nil")
	}
	got.Timeline = nil
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("enabling the timeline changed the Result:\nref: %+v\ngot: %+v", ref, got)
	}
	if !bytes.Equal(refEvents, gotEvents) {
		t.Errorf("enabling the timeline changed the event stream (%d vs %d bytes)",
			len(refEvents), len(gotEvents))
	}
}

// TestTimelineShardInvariance pins the second half: without a
// WallClock, the timeline JSON itself is byte-identical at any shard
// and worker count — per-epoch deltas of partition-invariant sums
// are partition-invariant too.
func TestTimelineShardInvariance(t *testing.T) {
	o := small()
	o.Duration = 20 * sim.Second
	o.Timeline = true

	marshal := func(v variant) []byte {
		o.Shards, o.Workers = v.shards, v.workers
		r, err := Run(o)
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", v.shards, v.workers, err)
		}
		b, err := json.Marshal(r.Timeline)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := marshal(variant{shards: 1, workers: 1})
	for _, v := range []variant{{shards: 2, workers: 2}, {shards: 4, workers: 1}} {
		if got := marshal(v); !bytes.Equal(ref, got) {
			t.Errorf("shards=%d workers=%d: timeline diverged from 1-shard reference:\nref: %s\ngot: %s",
				v.shards, v.workers, ref, got)
		}
	}
}

// TestTimelineEpochIndexing checks the sampling cadence: one sample
// per barrier at the simulated epoch end, frame deltas summing back
// to the run totals.
func TestTimelineEpochIndexing(t *testing.T) {
	o := small()
	o.Duration = 5 * sim.Second
	o.Timeline = true
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	tl := r.Timeline
	if tl == nil {
		t.Fatal("no timeline")
	}
	if tl.Recorded != r.Epochs {
		t.Errorf("recorded %d samples over %d epochs", tl.Recorded, r.Epochs)
	}
	var framesTx, ticks, rangeChecks uint64
	for i, s := range tl.Samples {
		want := int64(o.Epoch) * int64(i+1)
		if s.AtNS != want {
			t.Errorf("sample %d at %d ns, want epoch end %d", i, s.AtNS, want)
		}
		framesTx += s.Counters["world.frames_tx"]
		ticks += s.Counters["world.unit_ticks"]
		rangeChecks += s.Counters["world.range_checks"]
		if _, leaked := s.Counters["world.migrations"]; leaked {
			t.Fatalf("sample %d carries the partition-dependent migrations counter", i)
		}
	}
	if framesTx != r.FramesTx {
		t.Errorf("timeline frame deltas sum to %d, run transmitted %d", framesTx, r.FramesTx)
	}
	if ticks != r.UnitTicks {
		t.Errorf("timeline tick deltas sum to %d, run counted %d", ticks, r.UnitTicks)
	}
	// Every delivery attempt was a window candidate first.
	if rangeChecks < r.Delivered+r.Lost {
		t.Errorf("%d range checks for %d delivery attempts", rangeChecks, r.Delivered+r.Lost)
	}
}

// TestTimelineDisabledAllocFree pins the cost of the disabled path: a
// world without a timeline has nil instruments and a nil ring, so the
// per-epoch hooks the barrier calls unconditionally must not allocate
// (the bench gate would catch a regression as E18 allocs/run drift;
// this pins it exactly).
func TestTimelineDisabledAllocFree(t *testing.T) {
	var w World
	allocs := testing.AllocsPerRun(200, func() {
		w.tlFramesTx.Add(3)
		w.tlDelivered.Add(2)
		w.tlLost.Add(1)
		w.tlJammed.Add(1)
		w.tlUnitTicks.Add(7)
		w.sampleTimeline(42, 0)
	})
	if allocs != 0 {
		t.Errorf("disabled timeline hooks allocate %v per epoch, want 0", allocs)
	}
}

// TestTimelineWallClock checks the opt-in timing gauges: with an
// injected clock every sample carries epoch, shard-step and barrier
// wall milliseconds, and stripping the timeline still recovers the
// plain run's Result.
func TestTimelineWallClock(t *testing.T) {
	o := small()
	o.Duration = 5 * sim.Second
	ref, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	// Shard workers read the clock concurrently, so the fake is atomic.
	var fake atomic.Int64
	o.Timeline = true
	o.WallClock = func() int64 { return fake.Add(1e6) } // 1 ms per reading
	got, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got.Timeline.Samples {
		if _, ok := s.Gauges["world.epoch_wall_ms"]; !ok {
			t.Fatalf("sample %d missing epoch_wall_ms: %v", i, s.Gauges)
		}
		if _, ok := s.Gauges["world.shard_step_ms_max"]; !ok {
			t.Fatalf("sample %d missing shard_step_ms_max: %v", i, s.Gauges)
		}
		if ms, ok := s.Gauges["world.barrier_wall_ms"]; !ok || ms <= 0 {
			t.Fatalf("sample %d missing barrier_wall_ms or not timed: %v", i, s.Gauges)
		}
	}
	got.Timeline = nil
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("wall-clocked timeline changed the Result:\nref: %+v\ngot: %+v", ref, got)
	}
}
