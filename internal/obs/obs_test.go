package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCountersTimersDists(t *testing.T) {
	r := New()
	r.Add("a", 1)
	r.Add("a", 4)
	r.Add("b", -2)
	r.Observe("d", 3)
	r.Observe("d", 1)
	r.Observe("d", 8)
	sp := r.Span("t")
	time.Sleep(time.Millisecond)
	sp.End()
	r.Span("t").End()

	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Counters["b"] != -2 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	d := s.Dists["d"]
	if d.Count != 3 || d.Sum != 12 || d.Min != 1 || d.Max != 8 || d.Mean() != 4 {
		t.Fatalf("dist: %+v", d)
	}
	tm := s.Timers["t"]
	if tm.Count != 2 || tm.Total < time.Millisecond || tm.Max < tm.Min {
		t.Fatalf("timer: %+v", tm)
	}
}

func TestBoundedSeriesAndEvents(t *testing.T) {
	r := NewWithLimits(2, 3)
	for i := 0; i < 5; i++ {
		r.Sample("s", float64(i))
		r.Eventf("stage", "event %d", i)
	}
	s := r.Snapshot()
	if got := s.Series["s"]; len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("series: %v", got)
	}
	if s.SamplesDropped != 2 {
		t.Fatalf("samples dropped: %d", s.SamplesDropped)
	}
	if len(s.Events) != 2 || s.Events[1].Msg != "event 1" {
		t.Fatalf("events: %+v", s.Events)
	}
	if s.EventsDropped != 3 {
		t.Fatalf("events dropped: %d", s.EventsDropped)
	}
}

// TestNilRecorderNoAllocs pins the disabled-path contract: with
// Options.Obs unset the stage-timer and counter paths must add zero
// allocations (the overhead budget DESIGN.md documents).
func TestNilRecorderNoAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Span("stage/zx")
		r.Add("synth/nodes", 1)
		r.Observe("qoc/grape/iterations", 42)
		r.Sample("qoc/grape/fidelity", 0.5)
		r.Event("stage", "msg")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f times per op, want 0", allocs)
	}
}

// TestWarmRecorderNoAllocs extends the zero-alloc contract to the
// enabled steady state: once a counter, distribution, or timer key
// exists, further recording — including histogram bucket folding —
// must not allocate. The histogram is a fixed array inside the stats
// struct precisely so this holds.
func TestWarmRecorderNoAllocs(t *testing.T) {
	r := New()
	r.Add("synth/nodes", 1)
	r.Observe("qoc/grape/iterations", 42)
	r.Span("stage/zx").End()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add("synth/nodes", 1)
		r.Observe("qoc/grape/iterations", 42)
		sp := r.Span("stage/zx")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("warm recorder allocated %.1f times per op, want 0", allocs)
	}
}

func TestBucketBounds(t *testing.T) {
	b := BucketBounds()
	if len(b) != NumBuckets {
		t.Fatalf("len(BucketBounds()) = %d, want %d", len(b), NumBuckets)
	}
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %g, want 1e-6", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != b[i-1]*4 {
			t.Fatalf("bound %d = %g, want 4x previous %g", i, b[i], b[i-1])
		}
	}
	// Mutating the returned slice must not corrupt the shared bounds.
	b[0] = -1
	if BucketBounds()[0] != 1e-6 {
		t.Fatal("BucketBounds returned shared backing array")
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := New()
	bounds := BucketBounds()
	r.Observe("v", 0)             // below first bound -> bucket 0
	r.Observe("v", bounds[0])     // exactly on a bound is <= -> bucket 0
	r.Observe("v", bounds[3]*1.5) // between bounds 3 and 4 -> bucket 4
	r.Observe("v", 1e12)          // beyond last bound -> overflow
	r.Observe("v", math.NaN())    // NaN -> overflow, never dropped
	d := r.Snapshot().Dists["v"]
	if d.Buckets[0] != 2 || d.Buckets[4] != 1 || d.Buckets[NumBuckets] != 2 {
		t.Fatalf("bucket placement: %v", d.Buckets)
	}
	if got := d.Buckets.Total(); got != d.Count {
		t.Fatalf("bucket total %d != count %d", got, d.Count)
	}

	r.RecordDuration("t", 3*time.Millisecond) // 3e-3 s -> first bound >= is 4.096e-3 (bucket 6)
	tm := r.Snapshot().Timers["t"]
	if tm.Buckets[6] != 1 {
		t.Fatalf("timer bucket placement: %v", tm.Buckets)
	}
	if got := tm.Buckets.Total(); got != tm.Count {
		t.Fatalf("timer bucket total %d != count %d", got, tm.Count)
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.Add("c", 2)
	a.Observe("d", 1)
	a.RecordDuration("t", time.Millisecond)

	b := New()
	b.Add("c", 3)
	b.Add("only-b", 1)
	b.Observe("d", 100)
	b.Observe("only-b-dist", 7)
	b.RecordDuration("t", time.Second)
	b.RecordDuration("only-b-timer", time.Microsecond)

	a.Merge(b.Snapshot())
	s := a.Snapshot()
	if s.Counters["c"] != 5 || s.Counters["only-b"] != 1 {
		t.Fatalf("merged counters: %+v", s.Counters)
	}
	d := s.Dists["d"]
	if d.Count != 2 || d.Sum != 101 || d.Min != 1 || d.Max != 100 {
		t.Fatalf("merged dist: %+v", d)
	}
	if got := d.Buckets.Total(); got != 2 {
		t.Fatalf("merged dist buckets total %d, want 2", got)
	}
	tm := s.Timers["t"]
	if tm.Count != 2 || tm.Total != time.Second+time.Millisecond ||
		tm.Min != time.Millisecond || tm.Max != time.Second {
		t.Fatalf("merged timer: %+v", tm)
	}
	if got := tm.Buckets.Total(); got != 2 {
		t.Fatalf("merged timer buckets total %d, want 2", got)
	}
	if s.Timers["only-b-timer"].Count != 1 || s.Dists["only-b-dist"].Count != 1 {
		t.Fatal("merge dropped keys absent from the receiver")
	}

	// Merging into or from nil is a no-op, not a panic.
	var nilRec *Recorder
	nilRec.Merge(b.Snapshot())
	a.Merge(nil)

	// Merge must fold a copy: later recording on b must not leak into a.
	before := a.Snapshot().Counters["c"]
	b.Add("c", 50)
	if a.Snapshot().Counters["c"] != before {
		t.Fatal("merge aliased the source snapshot")
	}
}

func TestNilRecorderSnapshot(t *testing.T) {
	var r *Recorder
	if r.Snapshot() != nil {
		t.Fatal("nil recorder must snapshot to nil")
	}
	var s *Snapshot
	if s.CounterNames() != nil || s.TimerNames() != nil || s.DistNames() != nil || s.SeriesNames() != nil {
		t.Fatal("nil snapshot accessors must return nil")
	}
}

// TestConcurrentRecorder hammers every primitive from many goroutines;
// run under -race it proves the Recorder is goroutine-safe.
func TestConcurrentRecorder(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("n", 1)
				r.Observe("v", float64(i))
				r.Sample("s", float64(i))
				sp := r.Span("t")
				sp.End()
				r.Eventf("stage", "w%d i%d", w, i)
			}
		}(w)
	}
	// Snapshot concurrently with the writers.
	for i := 0; i < 10; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != workers*perWorker {
		t.Fatalf("lost counter updates: %d", s.Counters["n"])
	}
	if s.Timers["t"].Count != workers*perWorker {
		t.Fatalf("lost timer updates: %d", s.Timers["t"].Count)
	}
	if got := int64(len(s.Series["s"])) + s.SamplesDropped; got != workers*perWorker {
		t.Fatalf("lost samples: kept+dropped=%d", got)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := New()
	r.Add("c", 1)
	r.Sample("s", 1)
	s := r.Snapshot()
	r.Add("c", 10)
	r.Sample("s", 2)
	if s.Counters["c"] != 1 || len(s.Series["s"]) != 1 {
		t.Fatal("snapshot shares state with recorder")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add("library/hits", 7)
	r.Observe("qoc/grape/iterations", 120)
	r.Span("stage/synth").End()
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["library/hits"] != 7 || back.Dists["qoc/grape/iterations"].Count != 1 {
		t.Fatalf("round trip lost data: %s", data)
	}
}

func TestTimerNamesHottestFirst(t *testing.T) {
	r := New()
	r.RecordDuration("cold", time.Millisecond)
	r.RecordDuration("hot", time.Second)
	r.RecordDuration("warm", 10*time.Millisecond)
	got := r.Snapshot().TimerNames()
	want := []string{"hot", "warm", "cold"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: %v", got)
		}
	}
}
