//! Structured tracing and metrics for the Aroma/LPC stack.
//!
//! The LPC analysis engine classifies issues layer by layer; this module is
//! the measurement substrate that gives those classifications *evidence*.
//! It provides, behind a single [`Telemetry`] handle:
//!
//! * a bounded **ring-buffer trace sink** — fixed capacity allocated up
//!   front, no allocation on the hot path, drop-oldest overwrite with a
//!   dropped-events counter ([`Snapshot::trace_dropped`]),
//! * a **metrics registry** — named counters, gauges and streaming
//!   [`Summary`] / [`Histogram`] instruments, registered on first use,
//! * **event-loop self-profiling** — wall-time per handler type, so perf
//!   work has a baseline ([`Snapshot::profile`], sorted hottest-first).
//!
//! Disabled mode is the [`Telemetry::Off`] enum variant: every recording
//! method is `#[inline]` and hits a no-op match arm, so an uninstrumented
//! run pays nothing (verified by `lpc-bench`'s `telemetry` Criterion bench).
//!
//! **Determinism contract:** trace events and metrics carry *simulated* time
//! only (`t_nanos`), so for a fixed seed the trace and metric sections of a
//! [`Snapshot`] are bit-identical across runs. Wall-clock measurements are
//! confined to the profile section, which [`Snapshot::deterministic_eq`]
//! deliberately excludes. [`snapshot_json`] renders a snapshot as the same
//! [`Json`] tree the experiment harnesses already emit.

use std::collections::HashMap;

use crate::report::Json;
use crate::stats::{Histogram, Summary};

/// The five layers of the LPC model, used to tag trace events so a snapshot
/// can be sliced the same way the analysis engine slices issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Everything outside the system boundary (spectrum, rooms, people).
    Environment,
    /// Hardware and physical I/O (radio, display).
    Physical,
    /// System resources and protocols (MAC, transport, pipelines).
    Resource,
    /// Services and abstract state (leases, sessions).
    Abstract,
    /// User intent and experience (surprise, frustration).
    Intentional,
}

impl Layer {
    /// Stable lowercase label, used as the JSON value.
    pub fn label(&self) -> &'static str {
        match self {
            Layer::Environment => "environment",
            Layer::Physical => "physical",
            Layer::Resource => "resource",
            Layer::Abstract => "abstract",
            Layer::Intentional => "intentional",
        }
    }
}

/// One structured trace event. Plain data, `Copy`, fixed size — the ring
/// buffer stores these inline so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds (or a step index for substrates without
    /// a simulated clock, e.g. the user simulator).
    pub t_nanos: u64,
    /// LPC layer the event belongs to.
    pub layer: Layer,
    /// Static event name, dot-separated by convention (`"mac.retry"`).
    pub name: &'static str,
    /// Node / entity id, 0 when not applicable.
    pub node: u32,
    /// First event-specific argument (meaning depends on `name`).
    pub a: i64,
    /// Second event-specific argument.
    pub b: i64,
}

/// Fixed-capacity drop-oldest ring of [`TraceEvent`]s.
#[derive(Clone, Debug)]
struct Ring {
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            return; // tracing disabled, metrics-only recorder
        }
        if self.slots.len() < self.capacity {
            self.slots.push(ev);
        } else {
            // Overwrite the oldest event and count it as dropped.
            self.slots[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events oldest → newest.
    fn in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }
}

/// Name → slot registry for one instrument kind. Registration order is
/// first-touch order, which is deterministic for a deterministic run and is
/// preserved in snapshots.
#[derive(Clone, Debug)]
struct Slots<T> {
    names: Vec<&'static str>,
    values: Vec<T>,
    index: HashMap<&'static str, usize>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            names: Vec::new(),
            values: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The slot for `name`, registered with `init()` on first use.
    #[inline]
    fn slot(&mut self, name: &'static str, init: impl FnOnce() -> T) -> &mut T {
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.values.len();
                self.names.push(name);
                self.values.push(init());
                self.index.insert(name, i);
                i
            }
        };
        &mut self.values[i]
    }

    /// `(name, value)` pairs in registration order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.names.iter().copied().zip(&self.values)
    }
}

/// The live recorder state behind [`Telemetry::On`]. Boxed so the `Off`
/// variant stays one machine word.
#[derive(Clone, Debug)]
pub struct Active {
    ring: Ring,
    counters: Slots<u64>,
    gauges: Slots<f64>,
    summaries: Slots<Summary>,
    hists: Slots<Histogram>,
    profile: Slots<(u64, u64)>, // (calls, total wall nanos)
}

impl Active {
    fn new(cfg: &TelemetryConfig) -> Self {
        Active {
            ring: Ring::new(cfg.ring_capacity),
            counters: Slots::new(),
            gauges: Slots::new(),
            summaries: Slots::new(),
            hists: Slots::new(),
            profile: Slots::new(),
        }
    }
}

/// Recorder configuration.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Trace ring capacity in events; `0` disables tracing (metrics-only).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Metrics only, no trace ring.
    pub fn metrics_only() -> Self {
        TelemetryConfig { ring_capacity: 0 }
    }
}

/// A recorder that is either absent (`Off`, the default — every call inlines
/// to a no-op) or live (`On`). The instrumented substrates program against
/// its methods directly.
#[derive(Clone, Debug, Default)]
pub enum Telemetry {
    /// No recording; all methods are no-ops.
    #[default]
    Off,
    /// Live recording into the boxed [`Active`] state.
    On(Box<Active>),
}

impl Telemetry {
    /// Disabled recorder (same as `Telemetry::default()`).
    pub fn off() -> Self {
        Telemetry::Off
    }

    /// Live recorder with the given configuration.
    pub fn enabled(cfg: TelemetryConfig) -> Self {
        Telemetry::On(Box::new(Active::new(&cfg)))
    }

    /// Whether this recorder is live (lets callers skip expensive argument
    /// construction when disabled). Recorders are per-subsystem and never
    /// merged directly; combine their [`Snapshot`]s with [`Snapshot::absorb`].
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Telemetry::On(_))
    }

    /// Append a structured trace event.
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        if let Telemetry::On(act) = self {
            act.ring.push(ev);
        }
    }

    /// Convenience: build and append a trace event in one call.
    #[inline]
    pub fn event(
        &mut self,
        t_nanos: u64,
        layer: Layer,
        name: &'static str,
        node: u32,
        a: i64,
        b: i64,
    ) {
        self.trace(TraceEvent {
            t_nanos,
            layer,
            name,
            node,
            a,
            b,
        });
    }

    /// Add `delta` to the named counter (registering it on first use).
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if let Telemetry::On(act) = self {
            *act.counters.slot(name, || 0) += delta;
        }
    }

    /// Set the named gauge (registering it on first use).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if let Telemetry::On(act) = self {
            *act.gauges.slot(name, || 0.0) = value;
        }
    }

    /// Record one observation into the named summary.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if let Telemetry::On(act) = self {
            act.summaries.slot(name, Summary::new).record(value);
        }
    }

    /// Record one observation into the named histogram over `[lo, hi)` with
    /// `nbins` bins; the geometry is fixed by whoever registers first.
    #[inline]
    pub fn observe_hist(&mut self, name: &'static str, lo: f64, hi: f64, nbins: usize, value: f64) {
        if let Telemetry::On(act) = self {
            act.hists
                .slot(name, || Histogram::new(lo, hi, nbins))
                .record(value);
        }
    }

    /// Charge `wall_nanos` of wall-clock time to `handler` (self-profiling).
    #[inline]
    pub fn profile(&mut self, handler: &'static str, wall_nanos: u64) {
        if let Telemetry::On(act) = self {
            let (calls, nanos) = act.profile.slot(handler, || (0, 0));
            *calls += 1;
            *nanos += wall_nanos;
        }
    }

    /// Snapshot the recorder; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(act) => Some(Snapshot::of(act)),
        }
    }
}

/// Snapshot of one summary instrument.
#[derive(Clone, Debug, PartialEq)]
pub struct SummarySnap {
    /// Instrument name.
    pub name: &'static str,
    /// Observation count.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (n−1; 0 below two samples).
    pub std_dev: f64,
    /// Smallest observation, `None` when empty.
    pub min: Option<f64>,
    /// Largest observation, `None` when empty.
    pub max: Option<f64>,
}

/// Snapshot of one histogram instrument.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnap {
    /// Instrument name.
    pub name: &'static str,
    /// Lower range bound (inclusive).
    pub lo: f64,
    /// Upper range bound (exclusive).
    pub hi: f64,
    /// Per-bin counts.
    pub bins: Vec<u64>,
    /// Observations below `lo`.
    pub underflow: u64,
    /// Observations at or above `hi`.
    pub overflow: u64,
    /// NaN observations (excluded from quantiles) — nonzero means a
    /// measurement bug upstream.
    pub nan: u64,
    /// Total observations.
    pub count: u64,
    /// Median estimate, `None` when empty.
    pub p50: Option<f64>,
    /// 99th-percentile estimate, `None` when empty.
    pub p99: Option<f64>,
}

/// Wall-clock profile of one event-handler type.
#[derive(Clone, Debug, PartialEq)]
pub struct HandlerStat {
    /// Handler name (event kind).
    pub name: &'static str,
    /// Invocations.
    pub calls: u64,
    /// Total wall-clock nanoseconds across invocations.
    pub total_nanos: u64,
    /// Mean wall-clock nanoseconds per invocation.
    pub mean_nanos: f64,
}

/// Immutable snapshot of a recorder: the trace ring, every metric and the
/// handler profile (sorted hottest first).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counters in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges in registration order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Summary instruments in registration order.
    pub summaries: Vec<SummarySnap>,
    /// Histogram instruments in registration order.
    pub histograms: Vec<HistSnap>,
    /// Trace ring contents, oldest → newest.
    pub trace: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub trace_dropped: u64,
    /// Handler wall-time profile, sorted by total time descending.
    pub profile: Vec<HandlerStat>,
}

impl Snapshot {
    fn of(act: &Active) -> Snapshot {
        let summaries = act
            .summaries
            .iter()
            .map(|(name, s)| SummarySnap {
                name,
                count: s.count(),
                mean: s.mean(),
                std_dev: s.std_dev(),
                min: s.min(),
                max: s.max(),
            })
            .collect();
        let histograms = act
            .hists
            .iter()
            .map(|(name, h)| HistSnap {
                name,
                lo: h.lo(),
                hi: h.hi(),
                bins: h.bins().to_vec(),
                underflow: h.underflow(),
                overflow: h.overflow(),
                nan: h.nan(),
                count: h.count(),
                p50: h.quantile(0.5),
                p99: h.quantile(0.99),
            })
            .collect();
        let mut profile: Vec<HandlerStat> = act
            .profile
            .iter()
            .map(|(name, &(calls, nanos))| HandlerStat {
                name,
                calls,
                total_nanos: nanos,
                mean_nanos: if calls == 0 {
                    0.0
                } else {
                    nanos as f64 / calls as f64
                },
            })
            .collect();
        profile.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(b.name)));
        Snapshot {
            counters: act.counters.iter().map(|(n, &v)| (n, v)).collect(),
            gauges: act.gauges.iter().map(|(n, &v)| (n, v)).collect(),
            summaries,
            histograms,
            trace: act.ring.in_order(),
            trace_dropped: act.ring.dropped,
            profile,
        }
    }

    /// Value of a counter, 0 when never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge, `None` when never registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Summary instrument by name.
    pub fn summary(&self, name: &str) -> Option<&SummarySnap> {
        self.summaries.iter().find(|s| s.name == name)
    }

    /// Histogram instrument by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The `k` hottest handlers by total wall time.
    pub fn top_handlers(&self, k: usize) -> &[HandlerStat] {
        &self.profile[..k.min(self.profile.len())]
    }

    /// Equality over the deterministic sections only: trace and metrics are
    /// pure functions of the seed, the wall-clock profile is not.
    pub fn deterministic_eq(&self, other: &Snapshot) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.summaries == other.summaries
            && self.histograms == other.histograms
            && self.trace == other.trace
            && self.trace_dropped == other.trace_dropped
    }

    /// Fold another snapshot into this one: its metrics are appended (names
    /// kept, sections concatenated) and its trace events merged in
    /// timestamp order. Used to combine per-subsystem recorders
    /// (network, sessions, user-sim) into one experiment-level snapshot.
    pub fn absorb(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.summaries.extend(other.summaries);
        self.histograms.extend(other.histograms);
        self.trace.extend(other.trace);
        // Stable sort keeps same-timestamp events in concatenation order,
        // which is deterministic because absorb order is code-defined.
        self.trace.sort_by_key(|ev| ev.t_nanos);
        self.trace_dropped += other.trace_dropped;
        self.profile.extend(other.profile);
        self.profile
            .sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(b.name)));
    }
}

/// Render a snapshot as JSON. `include_trace` controls whether the (possibly
/// large) trace ring is embedded; metrics, the dropped-events counter and
/// the handler profile are always included.
pub fn snapshot_json(snap: &Snapshot, include_trace: bool) -> Json {
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::from(v)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::from(v)))
            .collect(),
    );
    let summaries = Json::Obj(
        snap.summaries
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    Json::obj(vec![
                        ("count", Json::from(s.count)),
                        ("mean", Json::from(s.mean)),
                        ("std_dev", Json::from(s.std_dev)),
                        ("min", opt_num(s.min)),
                        ("max", opt_num(s.max)),
                    ]),
                )
            })
            .collect(),
    );
    let histograms = Json::Obj(
        snap.histograms
            .iter()
            .map(|h| {
                (
                    h.name.to_string(),
                    Json::obj(vec![
                        ("lo", Json::from(h.lo)),
                        ("hi", Json::from(h.hi)),
                        (
                            "bins",
                            Json::Arr(h.bins.iter().map(|&b| Json::from(b)).collect()),
                        ),
                        ("underflow", Json::from(h.underflow)),
                        ("overflow", Json::from(h.overflow)),
                        ("nan", Json::from(h.nan)),
                        ("count", Json::from(h.count)),
                        ("p50", opt_num(h.p50)),
                        ("p99", opt_num(h.p99)),
                    ]),
                )
            })
            .collect(),
    );
    let profile = Json::Arr(
        snap.profile
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("handler", Json::from(p.name)),
                    ("calls", Json::from(p.calls)),
                    ("total_us", Json::from(p.total_nanos as f64 / 1e3)),
                    ("mean_ns", Json::from(p.mean_nanos)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("counters", counters),
        ("gauges", gauges),
        ("summaries", summaries),
        ("histograms", histograms),
        ("profile", profile),
        ("trace_dropped", Json::from(snap.trace_dropped)),
    ];
    if include_trace {
        fields.push((
            "trace",
            Json::Arr(snap.trace.iter().map(trace_event_json).collect()),
        ));
    } else {
        fields.push(("trace_len", Json::from(snap.trace.len())));
    }
    Json::obj(fields)
}

fn trace_event_json(ev: &TraceEvent) -> Json {
    Json::obj(vec![
        ("t_ns", Json::from(ev.t_nanos)),
        ("layer", Json::from(ev.layer.label())),
        ("name", Json::from(ev.name)),
        ("node", Json::from(ev.node as u64)),
        ("a", Json::Num(ev.a as f64)),
        ("b", Json::Num(ev.b as f64)),
    ])
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_to_json() {
        let mut t = Telemetry::enabled(TelemetryConfig::default());
        t.count("mac.retries", 3);
        t.observe("svc", 2.0);
        t.event(10, Layer::Resource, "mac.tx", 4, 1, 0);
        t.profile("MacTick", 500);
        let snap = t.snapshot().unwrap();

        let without = snapshot_json(&snap, false).render();
        assert!(without.contains("\"mac.retries\":3"));
        assert!(without.contains("\"trace_len\":1"));
        assert!(!without.contains("\"mac.tx\""));

        let with = snapshot_json(&snap, true).render();
        assert!(with.contains("\"mac.tx\""));
        assert!(with.contains("\"resource\""));
        assert!(with.contains("\"MacTick\""));
    }
}
