// Package telemetry records spans and metric timelines over simulated time.
//
// A Recorder collects three kinds of telemetry from a running engine:
//
//   - spans: intervals of simulated time (a whole run, one round, one service
//     slot, one DES event batch), exportable as a Chrome trace_event JSON
//     that loads in Perfetto / chrome://tracing, and as a text timeline;
//   - series: per-round / per-slot time-series samples (messages by kind,
//     omissions, DES heap depth, pool hit rate, service throughput, ...),
//     keyed by a fixed SeriesID enum so the export order is deterministic;
//   - a commit-latency histogram with fixed power-of-two buckets (Serve).
//
// Everything a Recorder stores is a pure function of the simulated execution
// — sample timestamps are simulated time, rates are computed over simulated
// time — so two runs of one configuration produce byte-identical exports,
// extending the determinism law to telemetry. Wall-clock measurements live
// in the separate Profile type and are never mixed into Recorder exports.
//
// A nil *Recorder is the disabled state: every method is nil-receiver safe
// and takes only value parameters, so the disabled path performs no
// allocation and no locking — engines call it unconditionally on their hot
// paths, and the exact allocation pins of agree's TestRunAllocs prove the
// cost is zero.
package telemetry

// SpanKind classifies a span.
type SpanKind uint8

// Span kinds.
const (
	// SpanRun covers one whole engine run.
	SpanRun SpanKind = iota
	// SpanRound covers one protocol round.
	SpanRound
	// SpanSlot covers one replicated-log slot (launch to commit).
	SpanSlot
	// SpanBatch covers one DES event batch (all events at one timestamp).
	SpanBatch
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"run", "round", "slot", "batch"}

// String returns the lower-case name of the kind.
func (k SpanKind) String() string {
	if k < numSpanKinds {
		return spanKindNames[k]
	}
	return "span(?)"
}

// Track identifies the horizontal lane a span or sample belongs to. Tracks
// become threads in the Chrome trace export, so spans within one track must
// not interleave arbitrarily — each recording site owns its track.
type Track int32

// Tracks.
const (
	// TrackEngine carries run and round spans of the consensus engine.
	TrackEngine Track = iota
	// TrackDES carries event-batch spans and heap/pool samples of the
	// discrete-event core under the timed engine.
	TrackDES
	// TrackService carries slot spans and throughput samples of the
	// replicated-log service.
	TrackService
	numTracks
)

var trackNames = [numTracks]string{"engine", "des", "service"}

// String returns the lower-case name of the track.
func (t Track) String() string {
	if t >= 0 && t < numTracks {
		return trackNames[t]
	}
	return "track(?)"
}

// Span is one interval of simulated time.
type Span struct {
	// Kind classifies the span.
	Kind SpanKind
	// Track is the lane the span renders on.
	Track Track
	// ID is the ordinal within the kind: round number, slot index, batch
	// index. Zero for run spans.
	ID int32
	// Count is a kind-specific magnitude: rounds in a run, events in a
	// batch, commands in a slot. Zero when not meaningful.
	Count int32
	// Start and End are the simulated-time bounds (End >= Start; a round
	// engine uses one time unit per round).
	Start, End float64
}

// SeriesID keys a metric time series. The enum is fixed so exports walk the
// series in declaration order — no map iteration anywhere near an export.
type SeriesID uint8

// Series.
const (
	// SeriesDataMsgs is data messages transmitted per round.
	SeriesDataMsgs SeriesID = iota
	// SeriesCtrlMsgs is control messages transmitted per round.
	SeriesCtrlMsgs
	// SeriesDelivered is messages delivered to inboxes per round (the
	// engine-side view of inbox depth).
	SeriesDelivered
	// SeriesDropped is crash-suppressed messages per round.
	SeriesDropped
	// SeriesOmitted is send- plus receive-omitted messages per round.
	SeriesOmitted
	// SeriesLate is timing-faulted (late) messages per round.
	SeriesLate
	// SeriesHeapSize is the DES pending-event count, sampled at each
	// time-advance boundary.
	SeriesHeapSize
	// SeriesPoolHitRate is the DES event-pool hit rate (hits / allocations)
	// sampled at each time-advance boundary.
	SeriesPoolHitRate
	// SeriesRoundsPerSec is protocol rounds per simulated second, sampled
	// once at the end of a run.
	SeriesRoundsPerSec
	// SeriesSlotRounds is consensus rounds consumed per service slot.
	SeriesSlotRounds
	// SeriesSlotBatch is commands batched per service slot.
	SeriesSlotBatch
	// SeriesThroughput is cumulative committed commands per simulated
	// second, sampled at each slot commit.
	SeriesThroughput
	// NumSeries bounds the enum.
	NumSeries
)

var seriesNames = [NumSeries]string{
	"data-msgs", "ctrl-msgs", "delivered", "dropped", "omitted", "late",
	"des-heap", "des-pool-hit-rate", "rounds-per-sec",
	"slot-rounds", "slot-batch", "throughput",
}

// String returns the export name of the series.
func (s SeriesID) String() string {
	if s < NumSeries {
		return seriesNames[s]
	}
	return "series(?)"
}

// Sample is one (simulated time, value) point of a series.
type Sample struct {
	T, V float64
}

// histBuckets is the number of commit-latency histogram buckets: bucket i
// counts observations in (2^(i-11), 2^(i-10)] simulated-time units — bucket 0
// collects everything at or below 2^-10, the last bucket is the +Inf
// overflow. Fixed bounds keep two runs' histograms structurally identical.
const histBuckets = 32

// histUpper returns the inclusive upper bound of bucket i.
func histUpper(i int) float64 {
	if i >= histBuckets-1 {
		return inf()
	}
	// 2^(i-10): bucket 0 tops out at ~0.001, bucket 30 at 2^20.
	return pow2(i - 10)
}

// pow2 computes 2^e for small integer exponents without importing math.
func pow2(e int) float64 {
	v := 1.0
	for ; e > 0; e-- {
		v *= 2
	}
	for ; e < 0; e++ {
		v /= 2
	}
	return v
}

// inf returns +Inf without importing math.
func inf() float64 { return 1 / zero }

var zero = 0.0

// Recorder collects spans, series samples and the latency histogram of one
// run. It is not safe for concurrent use: one Recorder belongs to one run on
// one goroutine (the worker-pool determinism tests attach one recorder to
// exactly one job).
type Recorder struct {
	spans   []Span
	samples [NumSeries][]Sample
	hist    [histBuckets]int64
	histN   int64
	histMax float64
}

// New returns an enabled, empty Recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether telemetry is being recorded. A nil *Recorder
// reports false; engines use it to skip snapshotting state for deltas.
func (r *Recorder) Enabled() bool { return r != nil }

// Span records one simulated-time interval. No-op on a nil Recorder.
func (r *Recorder) Span(kind SpanKind, track Track, id, count int32, start, end float64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, Span{Kind: kind, Track: track, ID: id, Count: count, Start: start, End: end})
}

// Sample records one (time, value) point of a series. No-op on a nil
// Recorder or an out-of-range series.
func (r *Recorder) Sample(s SeriesID, t, v float64) {
	if r == nil || s >= NumSeries {
		return
	}
	r.samples[s] = append(r.samples[s], Sample{T: t, V: v})
}

// Observe adds one commit-latency observation to the histogram. No-op on a
// nil Recorder.
func (r *Recorder) Observe(v float64) {
	if r == nil {
		return
	}
	i := 0
	for i < histBuckets-1 && v > histUpper(i) {
		i++
	}
	r.hist[i]++
	r.histN++
	if v > r.histMax {
		r.histMax = v
	}
}

// Reset empties the Recorder for reuse, keeping the allocated capacity.
// No-op on a nil Recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
	for i := range r.samples {
		r.samples[i] = r.samples[i][:0]
	}
	r.hist = [histBuckets]int64{}
	r.histN = 0
	r.histMax = 0
}

// Spans returns the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Samples returns the recorded samples of one series in recording order.
func (r *Recorder) Samples(s SeriesID) []Sample {
	if r == nil || s >= NumSeries {
		return nil
	}
	return r.samples[s]
}
