package telemetry

import (
	"commintent/internal/simnet"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// Telemetry bundles the metrics registry and the span tracer for one
// simulated world. A nil *Telemetry is the disabled state: every accessor
// returns nil handles and every handle no-ops, so instrumented code paths
// cost a nil check when telemetry is off.
type Telemetry struct {
	reg *Registry
	tr  *Tracer
}

// New creates a Telemetry for n ranks with the given per-rank span
// capacity (DefaultSpanCap if perRankSpanCap <= 0).
func New(n, perRankSpanCap int) *Telemetry {
	t := &Telemetry{reg: NewRegistry(), tr: NewTracer(n, perRankSpanCap)}
	// Surface overwritten spans as a pull counter so truncated Chrome
	// exports are detectable from the metrics plane alone.
	for r := 0; r < n; r++ {
		r := r
		t.reg.CounterFunc("telemetry_spans_dropped_total",
			func() int64 { return t.tr.Dropped(r) }, Rank(r))
	}
	return t
}

// NewMetrics creates a Telemetry with the metrics registry and no span
// tracer. A tracer records a span per directive, so the directive layer
// takes its per-directive path under one (a bound region runs no plan);
// metrics alone leave every path as it runs untraced.
func NewMetrics() *Telemetry { return &Telemetry{reg: NewRegistry()} }

// Registry returns the metrics registry (nil when disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the span tracer (nil when disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// fabricMeters holds the pre-resolved per-rank, per-kind counter handles
// the fabric observer updates, so the hot path does no map lookups.
type fabricMeters struct {
	events [][]*Counter // [rank][kind]
	bytes  []*Counter   // [kind], payload bytes for data-moving kinds
}

// eventKinds is the number of simnet event kinds metered. Kinds are dense
// small ints starting at EvSend.
const eventKinds = int(simnet.EvFault) + 1

// BindFabric subscribes the telemetry to all events of the fabric,
// populating the per-rank operation counters and byte totals, and
// registers pull gauges for each endpoint's unexpected-queue
// high-watermark. A tracer then writes its spans into the fabric's
// recorder, which keeps at least the tracer's capacity per rank (see
// simnet.Fabric.SpanRecorder). Call before ranks start
// (spmd.World.SetTelemetry does).
func (t *Telemetry) BindFabric(f *simnet.Fabric) {
	if t == nil || f == nil {
		return
	}
	if t.tr != nil {
		t.tr.rec.Store(f.SpanRecorder(t.tr.cap))
	}
	n := f.Size()
	m := &fabricMeters{
		events: make([][]*Counter, n),
		bytes:  make([]*Counter, eventKinds),
	}
	for k := 0; k < eventKinds; k++ {
		kind := simnet.EventKind(k)
		switch kind {
		case simnet.EvSend, simnet.EvPut, simnet.EvGet, simnet.EvRecvComplete:
			m.bytes[k] = t.reg.Counter("simnet_bytes_total", L("kind", kind.String()))
		}
	}
	for r := 0; r < n; r++ {
		m.events[r] = make([]*Counter, eventKinds)
		for k := 0; k < eventKinds; k++ {
			m.events[r][k] = t.reg.Counter("simnet_events_total",
				L("kind", simnet.EventKind(k).String()), Rank(r))
		}
		ep := f.Endpoint(r)
		t.reg.GaugeFunc("simnet_unexpected_queue_hwm",
			func() int64 { return int64(ep.UnexpectedHighWatermark()) }, Rank(r))
	}
	f.Observe(func(e simnet.Event) {
		k := int(e.Kind)
		if e.Rank < 0 || e.Rank >= n || k < 0 || k >= eventKinds {
			return
		}
		m.events[e.Rank][k].Inc()
		if c := m.bytes[k]; c != nil {
			c.Add(int64(e.Bytes))
		}
	})
	t.bindDataPlane()
}

// bindDataPlane registers pull gauges over the data plane's process-global
// counters: the payload pool's hit/miss totals, the barrier's completed
// generations and parked waits, the waits parked on a transport gate, and
// the pack/unpack path split (zero-copy fast path vs reflection walk). They
// are process-wide — the pool, the wait counters and the typemap dispatch
// are shared across worlds — so the series carry no rank label.
func (t *Telemetry) bindDataPlane() {
	t.reg.GaugeFunc("simnet_barrier_ops_total",
		func() int64 { g, _ := simnet.BarrierStats(); return g }, L("event", "generation"))
	t.reg.GaugeFunc("simnet_barrier_ops_total",
		func() int64 { _, p := simnet.BarrierStats(); return p }, L("event", "park"))
	t.reg.GaugeFunc("transport_wait_parks_total", transport.GateParks)
	t.reg.GaugeFunc("simnet_payload_pool_ops_total",
		func() int64 { h, _ := transport.PoolStats(); return h }, L("result", "hit"))
	t.reg.GaugeFunc("simnet_payload_pool_ops_total",
		func() int64 { _, m := transport.PoolStats(); return m }, L("result", "miss"))
	t.reg.GaugeFunc("typemap_pack_ops_total",
		func() int64 { fe, _, _, _ := typemap.PathStats(); return fe }, L("op", "encode"), L("path", "fast"))
	t.reg.GaugeFunc("typemap_pack_ops_total",
		func() int64 { _, fd, _, _ := typemap.PathStats(); return fd }, L("op", "decode"), L("path", "fast"))
	t.reg.GaugeFunc("typemap_pack_ops_total",
		func() int64 { _, _, re, _ := typemap.PathStats(); return re }, L("op", "encode"), L("path", "reflect"))
	t.reg.GaugeFunc("typemap_pack_ops_total",
		func() int64 { _, _, _, rd := typemap.PathStats(); return rd }, L("op", "decode"), L("path", "reflect"))
}
