//! Per-layer figures of the traced run, read from outside every crate: the
//! network recorder switched on with `Network::attach_telemetry`, the apps'
//! public counters, the replicas' public `RepStats`, and the benchmark's
//! own spans. Counts are per traced round; a layer a workload does not
//! exercise reads 0 (the predicted "no change").

use crate::harness::{Report, SpanTotals};
use aroma_net::Network;
use aroma_sim::telemetry::Snapshot;
use aroma_vnc::{VncServerApp, VncViewerApp};

/// Totals over the traced rounds of one run.
#[derive(Default)]
pub struct Layers {
    // sim
    events: u64,
    event_ns: u64,
    sim_s: f64,
    // net
    mactick: (u64, u64),
    txend: (u64, u64),
    wired: (u64, u64),
    tx_attempts: u64,
    tx_completed: u64,
    retries: u64,
    drops_queue: u64,
    drops_retry: u64,
    service_s: f64,
    service_n: u64,
    // vnc
    render: (u64, u64),
    encode: (u64, u64),
    chunk: (u64, u64),
    content_frames: u64,
    encodes: u64,
    encode_hits: u64,
    updates_sent: u64,
    stream_bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
    // discovery
    pub registrar_ns: u64,
    pub repl_appends: u64,
    pub repl_applied: u64,
    pub snapshots_taken: u64,
    pub snapshot_installs: u64,
    pub lookups: u64,
    pub lease_renewals: u64,
    stale_window_hits: u64,
    // projector
    pub acquires: u64,
    pub denials: u64,
    pub hijacks: u64,
    pub presenter_ns: u64,
    // check
    pub check_model_s: [f64; 4],
    pub check_states: u64,
    pub check_transitions: u64,
    pub check_s: f64,
    pub check_undetermined: u64,
}

/// Names of the four checked models, in report order.
pub const MODELS: [&str; 4] = ["session_manual", "session_auto", "lease", "replication"];

fn profile(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.profile
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0), |h| (h.calls, h.total_nanos))
}

fn add(acc: &mut (u64, u64), x: (u64, u64)) {
    acc.0 += x.0;
    acc.1 += x.1;
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    /// Fold in one traced network at the end of its case.
    pub fn absorb_net(&mut self, net: &Network) {
        let snap = net
            .telemetry_snapshot()
            .expect("traced cases attach the recorder");
        for h in snap.profile.iter().filter(|h| !h.name.starts_with("vnc.")) {
            self.events += h.calls;
            self.event_ns += h.total_nanos;
        }
        self.sim_s += net.now().as_secs_f64();
        add(&mut self.mactick, profile(&snap, "MacTick"));
        add(&mut self.txend, profile(&snap, "TxEnd"));
        add(&mut self.wired, profile(&snap, "WiredDeliver"));
        add(&mut self.render, profile(&snap, "vnc.render"));
        add(&mut self.encode, profile(&snap, "vnc.encode"));
        add(&mut self.chunk, profile(&snap, "vnc.chunk"));
        let stats = net.stats();
        self.tx_attempts += stats.total_tx_attempts();
        self.tx_completed += stats.node.iter().map(|n| n.tx_completed).sum::<u64>();
        self.drops_queue += stats.node.iter().map(|n| n.drops_queue).sum::<u64>();
        self.drops_retry += stats.total_retry_drops();
        self.retries += snap.counter("net.mac.retries");
        self.service_s += stats.service_time.sum();
        self.service_n += stats.service_time.count();
        self.stale_window_hits += snap.counter("disc.lease.stale_window_hits");
    }

    /// The stale-window hits the recorder counted so far.
    pub fn stale_window_hits(&self) -> u64 {
        self.stale_window_hits
    }

    pub fn absorb_server(&mut self, s: &VncServerApp) {
        self.encodes += s.encodes;
        self.encode_hits += s.encode_cache_hits;
        self.updates_sent += s.updates_sent;
        self.stream_bytes += s.stream_bytes_sent;
        let (hits, misses) = s.pool_stats();
        self.pool_hits += hits;
        self.pool_misses += misses;
    }

    pub fn absorb_viewer(&mut self, v: &VncViewerApp) {
        self.content_frames += v.frames_with_content;
    }

    /// Every per-layer metric, per traced round, plus the span split and
    /// the tracing overhead.
    pub fn report(
        &self,
        rounds: u64,
        spans: &SpanTotals,
        overhead_ratio: f64,
        report: &mut Report,
    ) {
        let r = rounds.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / r;
        let per = |n: u64| n as f64 / r;
        let us_mean = |x: (u64, u64)| {
            if x.0 == 0 {
                0.0
            } else {
                x.1 as f64 / 1e3 / x.0 as f64
            }
        };

        report.push("sim.events", per(self.events), "count");
        let events_per_sim_s = if self.sim_s > 0.0 {
            self.events as f64 / self.sim_s
        } else {
            0.0
        };
        report.push("sim.events_per_sim_s", events_per_sim_s, "1/s");
        report.push("sim.ns_per_event", ratio(self.event_ns, self.events), "ns");

        report.push("net.mactick.events", per(self.mactick.0), "count");
        report.push("net.mactick.ms", ms(self.mactick.1), "ms");
        report.push("net.txend.events", per(self.txend.0), "count");
        report.push("net.txend.us_mean", us_mean(self.txend), "us");
        report.push("net.wired.events", per(self.wired.0), "count");
        report.push("net.wired.us_mean", us_mean(self.wired), "us");
        report.push("net.tx_attempts", per(self.tx_attempts), "count");
        report.push(
            "net.tx_success_ratio",
            ratio(self.tx_completed, self.tx_attempts),
            "ratio",
        );
        report.push("net.retries", per(self.retries), "count");
        report.push("net.drops_queue", per(self.drops_queue), "count");
        report.push("net.drops_retry", per(self.drops_retry), "count");
        let service_ms = if self.service_n == 0 {
            0.0
        } else {
            self.service_s * 1e3 / self.service_n as f64
        };
        report.push("net.mac_service_ms", service_ms, "ms");

        report.push("vnc.render.calls", per(self.render.0), "count");
        report.push("vnc.render.ms", ms(self.render.1), "ms");
        report.push(
            "vnc.renders_per_content_frame",
            ratio(self.render.0, self.content_frames),
            "ratio",
        );
        report.push("vnc.encode.calls", per(self.encode.0), "count");
        report.push("vnc.encode.ms", ms(self.encode.1), "ms");
        report.push(
            "vnc.encode_cache_hit_ratio",
            ratio(self.encode_hits, self.encodes + self.encode_hits),
            "ratio",
        );
        report.push("vnc.chunk.ms", ms(self.chunk.1), "ms");
        report.push(
            "vnc.bytes_per_update",
            ratio(self.stream_bytes, self.updates_sent),
            "B",
        );
        report.push(
            "vnc.pool_miss_ratio",
            ratio(self.pool_misses, self.pool_hits + self.pool_misses),
            "ratio",
        );

        report.push("discovery.registrar.ms", ms(self.registrar_ns), "ms");
        report.push("discovery.repl.appends", per(self.repl_appends), "count");
        report.push("discovery.repl.applied", per(self.repl_applied), "count");
        report.push(
            "discovery.snapshots_taken",
            per(self.snapshots_taken),
            "count",
        );
        report.push(
            "discovery.snapshot_installs",
            per(self.snapshot_installs),
            "count",
        );
        report.push("discovery.lookups", per(self.lookups), "count");
        report.push(
            "discovery.lease_renewals",
            per(self.lease_renewals),
            "count",
        );
        report.push(
            "discovery.stale_window_hits",
            per(self.stale_window_hits),
            "count",
        );

        report.push("projector.session.acquires", per(self.acquires), "count");
        report.push("projector.session.denials", per(self.denials), "count");
        report.push("projector.session.hijacks", per(self.hijacks), "count");
        report.push("projector.presenter.ms", ms(self.presenter_ns), "ms");

        for (name, s) in MODELS.iter().zip(self.check_model_s) {
            report.push(&format!("check.{name}.s"), s / r, "s");
        }
        report.push("check.states", per(self.check_states), "count");
        report.push("check.transitions", per(self.check_transitions), "count");
        let tps = if self.check_s > 0.0 {
            self.check_transitions as f64 / self.check_s
        } else {
            0.0
        };
        report.push("check.transitions_per_s", tps, "1/s");
        report.push("check.undetermined", per(self.check_undetermined), "count");

        let span = |name: &str| spans.get(name).copied().unwrap_or((0, 0, 0));
        report.push("bench.setup.ms", ms(span("setup").1), "ms");
        report.push("bench.op.ms", ms(span("op").1), "ms");
        report.push("bench.op.self_ms", ms(span("op").2), "ms");
        report.push("bench.check.ms", ms(span("check").1), "ms");
        report.push("trace.overhead_ratio", overhead_ratio, "ratio");
    }
}
