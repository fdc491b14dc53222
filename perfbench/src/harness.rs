//! Measurement plumbing shared by every workload: the run configuration,
//! the benchmark-side span recorder, quantiles, the determinism digest, and
//! the report each workload hands back to `main`.

use crate::layers::Layers;
use aroma_sim::rng::fnv1a;
use aroma_sim::SimRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one invocation of the benchmark binary was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Host seconds to keep measuring (whole rounds are always completed).
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Ops attempted (simulation steps, or `check()` calls).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Deterministic simulated outputs, for the detail line only.
    pub sim: Vec<Metric>,
    /// Digest of the simulated outputs of one round.
    pub digest: u64,
    /// Rounds measured.
    pub rounds: u64,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The determinism digest of simulated outputs: the program's own FNV-1a
/// (`aroma_sim::rng::fnv1a`) over the little-endian bytes of every word.
#[derive(Clone, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn new() -> Self {
        Digest::default()
    }

    pub fn word(&mut self, w: u64) {
        self.0.extend_from_slice(&w.to_le_bytes());
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        fnv1a(&self.0)
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample: the mean of the middle two when even.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An independent sub-seed per purpose, forked from the workload seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    SimRng::new(seed).fork(purpose).next_u64_raw()
}

/// The host's wall clock: the one place the benchmark reads it.
pub fn host_now() -> Instant {
    // lint:allow(sim-wall-clock): benchmark host timing, never fed into simulated outputs or the digest
    Instant::now()
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// Benchmark-side spans: set-up, each op, and each public call the
/// benchmark makes into a layer. Spans live in memory and are summarised
/// when the run ends; an off tracer records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals: `(count, inclusive ns, self ns)`.
pub type SpanTotals = BTreeMap<&'static str, (u64, u64, u64)>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: host_now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Inclusive and self time per span name. Self time is a span's
    /// duration minus the time its child spans cover.
    pub fn totals(&self) -> SpanTotals {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = SpanTotals::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end - s.start;
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child[i]);
        }
        out
    }
}

/// The round schedule every workload follows.
///
/// A round replays the same seeded ops. Rounds repeat until the run's
/// seconds are spent and the untraced rounds fill whole blocks of a fixed
/// size per workload. An op's host time is the median over blocks of its
/// fastest replay in each block: the fastest of a fixed number of replays
/// filters the drift of a shared host's speed, and the median over blocks
/// does not fall as more rounds fit in the run. Each workload sizes its
/// block to take longer than a run's seconds on a 2-vCPU x86-64 host, so a
/// run normally measures one block; a host (or program) fast enough to fit
/// two blocks gets the median of both. The traced run alternates untraced
/// and traced rounds and ends on a traced one.
pub struct Rounds {
    trace: bool,
    seconds: f64,
    /// Untraced rounds per block.
    block: usize,
    start: Instant,
    /// Rounds closed so far.
    pub count: u64,
    /// Traced rounds closed so far.
    pub traced: u64,
    /// Host ms of each op, per untraced round.
    replays: Vec<Vec<f64>>,
    /// Host seconds of each round's ops, in order.
    round_s: Vec<f64>,
}

impl Rounds {
    pub fn new(cfg: &RunCfg, block: usize) -> Self {
        Rounds {
            trace: cfg.trace,
            seconds: cfg.seconds,
            block,
            start: host_now(),
            count: 0,
            traced: 0,
            replays: Vec::new(),
            round_s: Vec::new(),
        }
    }

    /// Is the round about to run a traced one?
    pub fn tracing(&self) -> bool {
        self.trace && self.count % 2 == 1
    }

    /// Close a round with the host ms of its ops; true once the run is done.
    pub fn close(&mut self, op_ms: Vec<f64>) -> bool {
        self.round_s.push(op_ms.iter().sum::<f64>() / 1e3);
        if self.tracing() {
            self.traced += 1;
        } else {
            self.replays.push(op_ms);
        }
        self.count += 1;
        let complete = if self.trace {
            self.count.is_multiple_of(2)
        } else {
            self.replays.len().is_multiple_of(self.block)
        };
        complete && self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// The run's metrics: per-layer ones for a traced run, else the
    /// end-to-end ones every workload reports.
    pub fn report(&self, setup_s: &[f64], layers: &Layers, tr: &Tracer, report: &mut Report) {
        report.rounds = self.count;
        if self.trace {
            // Each traced round over the untraced round just before it.
            let ratios: Vec<f64> = self.round_s.chunks(2).map(|p| p[1] / p[0]).collect();
            layers.report(self.traced, &tr.totals(), median(&ratios), report);
            return;
        }
        let n = self.replays[0].len();
        let op_ms: Vec<f64> = (0..n)
            .map(|i| {
                let fastest: Vec<f64> = self
                    .replays
                    .chunks(self.block)
                    .map(|block| block.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
                    .collect();
                median(&fastest)
            })
            .collect();
        let total_s = op_ms.iter().sum::<f64>() / 1e3;
        report.push("setup_s", median(setup_s), "s");
        report.push("step_ms_p50", median(&op_ms), "ms");
        report.push("step_ms_p95", quantile(&op_ms, 0.95), "ms");
        report.push("ops_per_s", n as f64 / total_s.max(1e-12), "1/s");
        report.push("peak_rss_mb", peak_rss_mb(), "MiB");
        let ok = report.attempted.saturating_sub(report.failed) as f64;
        report.push("success_rate", ok / report.attempted.max(1) as f64, "ratio");
    }
}
