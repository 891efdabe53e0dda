package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// fill records a representative mix of spans, samples and observations.
func fill(r *Recorder) {
	r.Span(SpanRun, TrackEngine, 0, 3, 0, 3)
	r.Span(SpanRound, TrackEngine, 1, 0, 0, 1)
	r.Span(SpanRound, TrackEngine, 2, 0, 1, 2)
	r.Span(SpanBatch, TrackDES, 0, 4, 0.5, 1.5)
	r.Span(SpanSlot, TrackService, 1, 2, 0.1, 1.2)
	r.Sample(SeriesDataMsgs, 1, 6)
	r.Sample(SeriesDataMsgs, 2, 4)
	r.Sample(SeriesHeapSize, 1.5, 8)
	r.Sample(SeriesSlotRounds, 1.2, 1)
	r.Sample(SeriesThroughput, 1.2, 2/1.2)
	r.Observe(1.1)
	r.Observe(0.25)
	r.Observe(1e9) // overflow bucket
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil Recorder reports enabled")
	}
	// Every method must be a no-op, not a panic.
	r.Span(SpanRun, TrackEngine, 0, 0, 0, 1)
	r.Sample(SeriesDataMsgs, 1, 1)
	r.Observe(1)
	r.Reset()
	if got := r.Spans(); got != nil {
		t.Errorf("nil Spans() = %v, want nil", got)
	}
	if got := r.Samples(SeriesDataMsgs); got != nil {
		t.Errorf("nil Samples() = %v, want nil", got)
	}
	if got := string(r.ChromeTrace()); got != "[]" {
		t.Errorf("nil ChromeTrace() = %q, want []", got)
	}
	if got := string(r.MetricsJSON()); got != `{"series":[]}` {
		t.Errorf("nil MetricsJSON() = %q", got)
	}
	if got := string(r.SlotTimelineJSON()); got != `{"slots":[]}` {
		t.Errorf("nil SlotTimelineJSON() = %q", got)
	}
	if got := r.HistogramTable(); got != "" {
		t.Errorf("nil HistogramTable() = %q, want empty", got)
	}
	if got := r.Timeline(); got != "" {
		t.Errorf("nil Timeline() = %q, want empty", got)
	}
}

func TestRecorderCollects(t *testing.T) {
	r := New()
	if !r.Enabled() {
		t.Fatal("fresh Recorder reports disabled")
	}
	fill(r)
	if got := len(r.Spans()); got != 5 {
		t.Errorf("got %d spans, want 5", got)
	}
	if got := len(r.Samples(SeriesDataMsgs)); got != 2 {
		t.Errorf("got %d data-msgs samples, want 2", got)
	}
	if got := r.histN; got != 3 {
		t.Errorf("histogram count = %d, want 3", got)
	}
	// Out-of-range series neither panic nor record.
	r.Sample(NumSeries, 1, 1)
	if got := r.Samples(NumSeries); got != nil {
		t.Errorf("out-of-range Samples() = %v, want nil", got)
	}
}

func TestRecorderReset(t *testing.T) {
	r := New()
	fill(r)
	r.Reset()
	if got := len(r.Spans()); got != 0 {
		t.Errorf("spans after Reset = %d, want 0", got)
	}
	for id := SeriesID(0); id < NumSeries; id++ {
		if got := len(r.Samples(id)); got != 0 {
			t.Errorf("series %s after Reset has %d samples, want 0", id, got)
		}
	}
	if got := r.histN; got != 0 {
		t.Errorf("histogram count after Reset = %d, want 0", got)
	}
	if got := string(r.MetricsJSON()); got != `{"series":[]}` {
		t.Errorf("MetricsJSON after Reset = %q", got)
	}
	// Refilling after Reset reproduces the original export byte-for-byte.
	fresh := New()
	fill(fresh)
	fill(r)
	if !bytes.Equal(r.MetricsJSON(), fresh.MetricsJSON()) {
		t.Error("refilled Recorder exports different metrics JSON than a fresh one")
	}
	if !bytes.Equal(r.ChromeTrace(), fresh.ChromeTrace()) {
		t.Error("refilled Recorder exports a different Chrome trace than a fresh one")
	}
}

func TestHistogramBuckets(t *testing.T) {
	if histUpper(10) != 1 {
		t.Errorf("histUpper(10) = %g, want 1 (2^0)", histUpper(10))
	}
	if histUpper(0) != math.Pow(2, -10) {
		t.Errorf("histUpper(0) = %g, want 2^-10", histUpper(0))
	}
	if !math.IsInf(histUpper(histBuckets-1), 1) {
		t.Errorf("last bucket bound = %g, want +Inf", histUpper(histBuckets-1))
	}
	r := New()
	r.Observe(0.5)  // (0.25, 0.5] -> bucket 9
	r.Observe(1)    // (0.5, 1]    -> bucket 10
	r.Observe(1.5)  // (1, 2]      -> bucket 11
	r.Observe(1e30) // overflow   -> last bucket
	for i, want := range map[int]int64{9: 1, 10: 1, 11: 1, histBuckets - 1: 1} {
		if r.hist[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, r.hist[i], want)
		}
	}
	if r.histMax != 1e30 {
		t.Errorf("histMax = %g, want 1e30", r.histMax)
	}
}

func TestMetricsJSONShape(t *testing.T) {
	r := New()
	fill(r)
	var doc struct {
		Series []struct {
			Name    string       `json:"name"`
			Samples [][2]float64 `json:"samples"`
		} `json:"series"`
		Latency *struct {
			Count   int64   `json:"count"`
			Max     float64 `json:"max"`
			Buckets []struct {
				LE    any   `json:"le"`
				Count int64 `json:"count"`
			} `json:"buckets"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(r.MetricsJSON(), &doc); err != nil {
		t.Fatalf("MetricsJSON is not valid JSON: %v\n%s", err, r.MetricsJSON())
	}
	// Series appear in SeriesID declaration order, empty series omitted.
	want := []string{"data-msgs", "des-heap", "slot-rounds", "throughput"}
	if len(doc.Series) != len(want) {
		t.Fatalf("got %d series, want %d: %s", len(doc.Series), len(want), r.MetricsJSON())
	}
	for i, name := range want {
		if doc.Series[i].Name != name {
			t.Errorf("series[%d] = %q, want %q", i, doc.Series[i].Name, name)
		}
	}
	if doc.Series[0].Samples[0] != [2]float64{1, 6} {
		t.Errorf("data-msgs sample 0 = %v, want [1,6]", doc.Series[0].Samples[0])
	}
	if doc.Latency == nil || doc.Latency.Count != 3 {
		t.Fatalf("latency histogram missing or wrong count: %s", r.MetricsJSON())
	}
	var n int64
	for _, b := range doc.Latency.Buckets {
		n += b.Count
	}
	if n != doc.Latency.Count {
		t.Errorf("bucket counts sum to %d, want %d", n, doc.Latency.Count)
	}
}

func TestSlotTimelineJSON(t *testing.T) {
	r := New()
	fill(r)
	var doc struct {
		Slots []struct {
			Slot       int     `json:"slot"`
			Start      float64 `json:"start"`
			Commit     float64 `json:"commit"`
			Latency    float64 `json:"latency"`
			Batch      int     `json:"batch"`
			Rounds     float64 `json:"rounds"`
			Throughput float64 `json:"throughput"`
		} `json:"slots"`
	}
	if err := json.Unmarshal(r.SlotTimelineJSON(), &doc); err != nil {
		t.Fatalf("SlotTimelineJSON is not valid JSON: %v\n%s", err, r.SlotTimelineJSON())
	}
	if len(doc.Slots) != 1 {
		t.Fatalf("got %d slots, want 1", len(doc.Slots))
	}
	s := doc.Slots[0]
	if s.Slot != 1 || s.Batch != 2 || s.Rounds != 1 {
		t.Errorf("slot record = %+v", s)
	}
	if math.Abs(s.Latency-1.1) > 1e-12 {
		t.Errorf("latency = %g, want 1.1", s.Latency)
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := New()
	fill(r)
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	if err := json.Unmarshal(r.ChromeTrace(), &events); err != nil {
		t.Fatalf("ChromeTrace is not valid JSON: %v\n%s", err, r.ChromeTrace())
	}
	lastTS := map[int]float64{}
	var meta, complete int
	for _, e := range events {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Dur < 0 {
				t.Errorf("event %q has negative duration %g", e.Name, e.Dur)
			}
			if prev, ok := lastTS[e.TID]; ok && e.TS < prev {
				t.Errorf("event %q ts %g before previous ts %g on tid %d", e.Name, e.TS, prev, e.TID)
			}
			lastTS[e.TID] = e.TS
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if complete != 5 {
		t.Errorf("got %d complete events, want 5", complete)
	}
	if meta != 3 { // engine, des, service tracks all used
		t.Errorf("got %d thread_name metadata events, want 3", meta)
	}
}

func TestExportDeterminism(t *testing.T) {
	a, b := New(), New()
	fill(a)
	fill(b)
	if !bytes.Equal(a.MetricsJSON(), b.MetricsJSON()) {
		t.Error("two identical recorders export different metrics JSON")
	}
	if !bytes.Equal(a.ChromeTrace(), b.ChromeTrace()) {
		t.Error("two identical recorders export different Chrome traces")
	}
	if !bytes.Equal(a.SlotTimelineJSON(), b.SlotTimelineJSON()) {
		t.Error("two identical recorders export different slot timelines")
	}
	if a.Timeline() != b.Timeline() {
		t.Error("two identical recorders render different timelines")
	}
}

func TestEnumStrings(t *testing.T) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if k.String() == "span(?)" {
			t.Errorf("SpanKind %d has no name", k)
		}
	}
	if SpanKind(200).String() != "span(?)" {
		t.Error("out-of-range SpanKind not flagged")
	}
	for tr := Track(0); tr < numTracks; tr++ {
		if tr.String() == "track(?)" {
			t.Errorf("Track %d has no name", tr)
		}
	}
	if Track(-1).String() != "track(?)" {
		t.Error("negative Track not flagged")
	}
	for s := SeriesID(0); s < NumSeries; s++ {
		if s.String() == "series(?)" {
			t.Errorf("SeriesID %d has no name", s)
		}
	}
	if NumSeries.String() != "series(?)" {
		t.Error("out-of-range SeriesID not flagged")
	}
}

func TestProfile(t *testing.T) {
	var nilProf *Profile
	if nilProf.Enabled() {
		t.Fatal("nil Profile reports enabled")
	}
	nilProf.Add(PhaseRun, time.Second) // must not panic
	if nilProf.Get(PhaseRun) != 0 {
		t.Error("nil Profile accumulated time")
	}

	p := NewProfile()
	if !p.Enabled() {
		t.Fatal("fresh Profile reports disabled")
	}
	p.Add(PhaseRun, 2*time.Millisecond)
	p.Add(PhaseRun, 3*time.Millisecond)
	p.Add(PhaseQueueWait, -time.Millisecond)
	p.Add(PhaseQueueWait, 2*time.Millisecond)
	if got := p.Get(PhaseRun); got != 5*time.Millisecond {
		t.Errorf("PhaseRun = %v, want 5ms", got)
	}
	if got := p.Get(PhaseQueueWait); got != time.Millisecond {
		t.Errorf("PhaseQueueWait = %v, want 1ms (negative adds must net out)", got)
	}
	if got := p.Get(NumPhases); got != 0 {
		t.Errorf("out-of-range Get = %v, want 0", got)
	}
}

func TestRecorderMethodsAllocFreeWhenNil(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span(SpanRound, TrackEngine, 1, 0, 0, 1)
		r.Sample(SeriesDataMsgs, 1, 6)
		r.Observe(1.1)
		if r.Enabled() {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Errorf("nil Recorder methods allocate %g/op, want 0", allocs)
	}
}
