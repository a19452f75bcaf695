package scenario

import (
	"cmp"
	"fmt"

	worldpkg "platoonsec/internal/world"
)

// RunWorld executes the sharded multi-platoon highway world of
// worldOptions. Like Run, the result is deterministic in the options
// alone — and additionally invariant in the world's Shards and Workers.
func RunWorld(opts Options) (*worldpkg.Result, error) {
	if opts.World == nil {
		return nil, fmt.Errorf("scenario: RunWorld needs Options.World")
	}
	return worldpkg.Run(opts.worldOptions())
}

// worldOptions returns o.World with the shared experiment knobs
// (Seed, Duration, AttackKey, AttackStart, Spans, SpanCapacity,
// EventsJSONL, Timeline, TimelineCapacity) inherited from o wherever
// the world options leave them zero.
func (o *Options) worldOptions() worldpkg.Options {
	w := *o.World
	w.Seed = cmp.Or(w.Seed, o.Seed)
	w.Duration = cmp.Or(w.Duration, o.Duration)
	w.AttackKey = cmp.Or(w.AttackKey, o.AttackKey)
	w.AttackStart = cmp.Or(w.AttackStart, o.AttackStart)
	w.Spans = w.Spans || o.Spans
	w.SpanCapacity = cmp.Or(w.SpanCapacity, o.SpanCapacity)
	if w.EventsJSONL == nil {
		w.EventsJSONL = o.EventsJSONL
	}
	w.Timeline = w.Timeline || o.Timeline
	w.TimelineCapacity = cmp.Or(w.TimelineCapacity, o.TimelineCapacity)
	return w
}
