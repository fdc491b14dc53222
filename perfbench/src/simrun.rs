//! The closed loop shared by the three simulation workloads.
//!
//! A round builds every case of the workload in turn, warms it up (set-up),
//! then times a fixed number of ops, each advancing every case with
//! `Network::run_for(step)`, the next starting when the previous returns
//! (see `Rounds` for how rounds repeat). Every round replays the same
//! seeded inputs: its simulated outputs must hash to the first round's
//! digest, or the whole round counts as failed.

use crate::harness::{host_now, Digest, Report, Rounds, RunCfg, Tracer};
use crate::layers::Layers;
use aroma_net::Network;
use aroma_sim::SimDuration;

/// Warm-ups and end-of-case checks advance the simulation in slices this
/// long.
const SLICE: SimDuration = SimDuration::from_millis(50);
/// Longest simulated wait for a warm-up or an end-of-case condition.
const PATIENCE: SimDuration = SimDuration::from_secs(30);

/// Run in slices until `done` holds; false when `PATIENCE` ran out first.
pub fn run_until(net: &mut Network, mut done: impl FnMut(&Network) -> bool) -> bool {
    let deadline = net.now() + PATIENCE;
    while !done(net) {
        if net.now() >= deadline {
            return false;
        }
        net.run_for(SLICE);
    }
    true
}

/// One warmed-up scenario instance.
pub trait Case {
    fn net(&mut self) -> &mut Network;
    /// Cheap output check after every op.
    fn op_ok(&mut self) -> bool {
        true
    }
}

/// A simulation workload: its cases, their construction and their checks.
pub trait SimWorkload {
    type Case: Case;
    /// Simulated-output accumulator of one round.
    type Sim: Default;
    /// Simulated time one op advances.
    const STEP: SimDuration;
    /// Ops timed per round; each advances every case by `STEP`.
    const STEPS: usize;
    /// Untraced rounds per block (see `Rounds`).
    const BLOCK: usize;
    /// Cases per round.
    fn cases(&self) -> usize;
    /// Build and warm up case `i`; `None` when the warm-up condition was
    /// never reached. `traced` attaches the recorder and the app wrappers.
    fn build(&self, i: usize, traced: bool, tr: &mut Tracer) -> Option<Self::Case>;
    /// Check the case's outputs at the end, fold its simulated outputs into
    /// `sim` and `digest`, and (traced) its per-layer figures into `layers`.
    fn finish(
        &self,
        case: &mut Self::Case,
        sim: &mut Self::Sim,
        digest: &mut Digest,
        layers: Option<&mut Layers>,
    ) -> bool;
    /// The deterministic simulated figures of one round.
    fn sim_metrics(&self, sim: &Self::Sim, report: &mut Report);
}

pub fn run<W: SimWorkload>(w: &W, cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut rounds = Rounds::new(cfg, W::BLOCK);
    let mut setup_s = Vec::new();
    let mut tr = Tracer::new(false);
    let mut layers = Layers::default();
    let mut first: Option<(u64, W::Sim)> = None;
    loop {
        let traced = rounds.tracing();
        tr.set_on(traced);
        let mut sim = W::Sim::default();
        let mut digest = Digest::new();
        let mut round_ok = true;
        // Set-up: build and warm up every case, up to the first timed op.
        let t0 = host_now();
        let mut cases = Vec::with_capacity(w.cases());
        for i in 0..w.cases() {
            let built = tr.span("setup", |tr| w.build(i, traced, tr));
            round_ok &= built.is_some();
            cases.extend(built);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        // One op advances every case of the round by one step, so each op
        // carries the same mix of cases.
        let mut op_ms = Vec::with_capacity(W::STEPS);
        for _ in 0..W::STEPS {
            let t = host_now();
            tr.enter("op");
            for case in &mut cases {
                tr.span("Network::run_for", |_| case.net().run_for(W::STEP));
                round_ok &= case.op_ok();
            }
            tr.exit();
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for case in &mut cases {
            let layer_acc = traced.then_some(&mut layers);
            round_ok &= tr.span("check", |_| {
                w.finish(case, &mut sim, &mut digest, layer_acc)
            });
        }
        let digest = digest.finish();
        match &first {
            None => first = Some((digest, sim)),
            Some((d, _)) => round_ok &= *d == digest,
        }
        report.attempted += W::STEPS as u64;
        if !round_ok {
            report.failed += W::STEPS as u64;
        }
        if rounds.close(op_ms) {
            break;
        }
    }
    let (digest, sim) = first.expect("at least one round ran");
    report.digest = digest;
    let mut sim_report = Report::default();
    w.sim_metrics(&sim, &mut sim_report);
    report.sim = sim_report.metrics;
    rounds.report(&setup_s, &layers, &tr, &mut report);
    report
}
