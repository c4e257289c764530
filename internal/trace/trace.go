// Package trace is the pipeline's span-level tracer: where internal/obs
// answers "how much time went into each named region in aggregate",
// trace answers "which block, which QSearch expansion, which GRAPE
// probe ate the wall clock" — it records a hierarchy of timed spans
// with typed attributes (stage, block id, cache status, nodes
// expanded, probe slots, final infidelity, degrade reasons) and
// exports them as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, plus a compact aggregated Summary for the run
// manifest (internal/report).
//
// Design constraints, in the order they shaped the API:
//
//   - Nil safety and zero cost when disabled. Every method is safe on
//     a nil *Tracer or nil *Span and does nothing; the disabled path
//     is a single nil check with zero allocations (see
//     TestNilTracerNoAllocs), so the pipeline threads spans
//     unconditionally.
//   - Goroutine safety across pools. Spans are started from worker
//     goroutines against a shared parent (stage 3's synthesis pool,
//     stage 5's QOC prefill pool); the tracer serializes span
//     registration, and each span's fields are owned by the goroutine
//     that started it until End.
//   - Determinism under an injected clock. Time is read through the
//     Clock interface (satisfied by faultclock.Real() and
//     faultclock.Fake), and the exporter orders spans canonically by
//     (start, name, attributes) rather than by creation order — so a
//     compile under a fake clock exports byte-identical traces at any
//     worker count, which is what the golden tests pin.
//   - One instrument per region. A span bound to a Timer (Span.Time;
//     children inherit the binding) records its own duration into
//     that Timer when it ends, under the span's name. Core binds the
//     compile's *obs.Recorder to the compile root, so the obs timers,
//     the trace and the stage log records all read one interval.
//
// The package is an import leaf (like internal/obs and
// internal/faultclock): it defines its own Clock and Timer interfaces
// rather than importing faultclock or obs, whose types satisfy them.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Clock is an injectable time source; faultclock.Clock implementations
// (Real and Fake) satisfy it. Implementations must be goroutine-safe.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Timer receives the duration of every ended span bound to it, under
// the span's name; *obs.Recorder implements it. Implementations must
// be goroutine-safe.
type Timer interface {
	RecordDuration(name string, d time.Duration)
}

// Tracer collects spans for one or more compilations. All methods are
// goroutine-safe and no-ops on a nil receiver.
type Tracer struct {
	clock Clock

	mu    sync.Mutex
	epoch time.Time // first instant observed; export timestamps are relative to it
	spans []*Span   // registration order (not canonical; export re-sorts)
}

// New returns an empty tracer reading time from clock; a nil clock
// means the real time.Now. Inject a faultclock.Fake to make exported
// timestamps (and therefore the exported bytes) deterministic.
func New(clock Clock) *Tracer {
	if clock == nil {
		clock = realClock{}
	}
	return &Tracer{clock: clock}
}

// AttrKind discriminates the typed attribute union.
type AttrKind int

// Attribute kinds.
const (
	AttrStr AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// Attr is one typed span attribute. Exactly one value field is
// meaningful, selected by Kind.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
	Bool  bool
}

// Span is one timed region in the trace hierarchy. A span is owned by
// the goroutine that started it: SetX and End must not race with each
// other, but children may be started from any goroutine. All methods
// are no-ops on a nil *Span.
type Span struct {
	tr     *Tracer
	parent *Span
	name   string
	start  time.Time
	end    time.Time
	ended  bool
	attrs  []Attr
	seq    int   // per-tracer registration sequence (stable-sort fallback)
	timer  Timer // inherited from the parent; fed by End

	// children is populated only during export (single goroutine),
	// holding the canonically ordered child list for the emit walk.
	children []*childList
}

// Start begins a root span. Returns nil (and allocates nothing) on a
// nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.register(nil, name)
}

// Child begins a span under s. Child is safe to call from any
// goroutine — stage worker pools start block spans against the shared
// stage span — and returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.register(s, name)
}

func (t *Tracer) register(parent *Span, name string) *Span {
	now := t.clock.Now()
	t.mu.Lock()
	if t.epoch.IsZero() {
		t.epoch = now
	}
	sp := &Span{tr: t, parent: parent, name: name, start: now, seq: len(t.spans)}
	if parent != nil {
		sp.timer = parent.timer
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Time binds t to the span and to every child started from it
// afterwards, and returns the span. Bind before starting children.
func (s *Span) Time(t Timer) *Span {
	if s == nil {
		return nil
	}
	s.timer = t
	return s
}

// End closes the span at the tracer's current clock reading and, when
// the span is bound to a Timer, records its duration there. A second
// End is a no-op, so `defer sp.End()` composes with an earlier
// explicit End on the happy path.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = s.tr.clock.Now()
	if s.timer != nil {
		s.timer.RecordDuration(s.name, s.end.Sub(s.start))
	}
}

// Duration returns the span's length once it has ended, else 0.
func (s *Span) Duration() time.Duration {
	if s == nil || !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// ID returns the span's stable identifier within its tracer,
// "s<seq>", where seq is the registration sequence number. It is
// assigned under the tracer lock at Start/Child time and never
// changes, so it is safe to read from any goroutine and cheap enough
// for log records — the logx integration stamps it on every
// stage-boundary line so a log line and a Chrome trace join on it.
// Nil spans return the empty string.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return "s" + strconv.Itoa(s.seq)
}

// SetStr attaches a string attribute and returns the span for
// chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrStr, Str: v})
	return s
}

// SetInt attaches an integer attribute and returns the span.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: v})
	return s
}

// SetFloat attaches a float attribute and returns the span.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrFloat, Float: v})
	return s
}

// SetBool attaches a boolean attribute and returns the span.
func (s *Span) SetBool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrBool, Bool: v})
	return s
}

// Len reports how many spans have been started.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the span list under the lock. The span structs
// themselves are read without synchronization, which is safe once
// their owning goroutines have ended them and joined (the pipeline
// always joins its pools before export).
func (t *Tracer) snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}
