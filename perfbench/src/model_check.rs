//! `model_check`: bounded checker sweeps of the session (manual-release and
//! auto-expire), lease and replication models, with no simulation at all.
//! One op is one `aroma_check::check` call on one model at one state bound;
//! a round checks every model at every bound, in a seeded order. The checker
//! keeps its default worker count.

use crate::harness::{host_now, sub_seed, Digest, Metric, Report, Rounds, RunCfg, Tracer};
use crate::layers::{Layers, MODELS};
use aroma_check::{
    check, CheckerConfig, LeaseConfig, LeaseModel, Model, ReplConfig, ReplModel, SessionConfig,
    SessionModel,
};
use aroma_sim::SimDuration;
use smart_projector::SessionPolicy;

/// Every model is checked at each of these distinct-state bounds, so a
/// round holds 4 × 4 ops. Even the smallest takes tens of milliseconds, so
/// exploring states, not starting the checker's workers, dominates an op.
/// The manual-release session model has 2,109 states in all and the lease
/// model 16,464, so the larger bounds check the former completely.
const BOUNDS: [usize; 4] = [1_000, 2_000, 4_000, 8_000];
/// Untraced rounds per block (see `Rounds`).
const BLOCK: usize = 6;

struct Models {
    manual: SessionModel,
    auto: SessionModel,
    lease: LeaseModel,
    repl: ReplModel,
}

/// What one check established, compared across rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    states: usize,
    transitions: u64,
    undetermined: usize,
    passed: bool,
}

fn run_check<M>(model: &M, cfg: &CheckerConfig) -> Outcome
where
    M: Model + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
    M::Key: Send,
{
    let r = check(model, cfg);
    Outcome {
        states: r.distinct_states,
        transitions: r.transitions,
        undetermined: r.undetermined,
        passed: r.passed(),
    }
}

impl Models {
    fn new(seed: u64) -> Self {
        let token_seed = sub_seed(seed, 1);
        Models {
            manual: SessionModel::new(SessionConfig {
                token_seed,
                ..SessionConfig::default()
            }),
            auto: SessionModel::new(SessionConfig {
                policy: SessionPolicy::AutoExpire {
                    idle: SimDuration::from_secs(2),
                },
                allow_depart: true,
                token_seed,
                ..SessionConfig::default()
            }),
            lease: LeaseModel::new(LeaseConfig::default()),
            repl: ReplModel::new(ReplConfig::default()),
        }
    }

    fn check(&self, i: usize, cfg: &CheckerConfig) -> Outcome {
        match i {
            0 => run_check(&self.manual, cfg),
            1 => run_check(&self.auto, cfg),
            2 => run_check(&self.lease, cfg),
            _ => run_check(&self.repl, cfg),
        }
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let checker = |bound: usize| CheckerConfig::default().with_max_states(bound);
    let mut report = Report::default();
    let mut rounds = Rounds::new(cfg, BLOCK);
    let mut setup_s = Vec::new();
    let mut tr = Tracer::new(false);
    let mut layers = Layers::default();
    // Ops are (model, bound) pairs; the seed fixes their order in a round.
    let mut ops: Vec<(usize, usize)> = (0..MODELS.len())
        .flat_map(|m| BOUNDS.map(|b| (m, b)))
        .collect();
    ops.sort_by_key(|&(m, b)| sub_seed(cfg.seed, (m as u64) << 32 | b as u64));

    let mut first: Option<Vec<Outcome>> = None;
    loop {
        let traced = rounds.tracing();
        tr.set_on(traced);
        // Set-up: build the models and check each once at the smallest bound.
        let t = host_now();
        let models = tr.span("setup", |_| {
            let models = Models::new(cfg.seed);
            for m in 0..MODELS.len() {
                std::hint::black_box(models.check(m, &checker(BOUNDS[0])));
            }
            models
        });
        setup_s.push(t.elapsed().as_secs_f64());
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut op_ms = Vec::with_capacity(ops.len());
        for &(m, bound) in &ops {
            let t = host_now();
            tr.enter("op");
            let o = tr.span("aroma_check::check", |_| models.check(m, &checker(bound)));
            tr.exit();
            let dt = t.elapsed().as_secs_f64();
            op_ms.push(dt * 1e3);
            if traced {
                layers.check_model_s[m] += dt;
                layers.check_s += dt;
                layers.check_states += o.states as u64;
                layers.check_transitions += o.transitions;
                layers.check_undetermined += o.undetermined as u64;
            }
            outcomes.push(o);
        }
        // Every property holds, and the counts repeat round after round.
        let reference = first.get_or_insert_with(|| outcomes.clone());
        report.attempted += ops.len() as u64;
        report.failed += outcomes
            .iter()
            .zip(reference.iter())
            .filter(|(o, r)| !o.passed || o != r)
            .count() as u64;
        if rounds.close(op_ms) {
            break;
        }
    }
    let first = first.expect("at least one round ran");
    let mut digest = Digest::new();
    for o in &first {
        digest.word(o.states as u64);
        digest.word(o.transitions);
        digest.word(o.undetermined as u64);
    }
    report.digest = digest.finish();
    let states: usize = first.iter().map(|o| o.states).sum();
    report.sim.push(Metric {
        name: "states_per_round".into(),
        value: states as f64,
        unit: "count",
    });
    rounds.report(&setup_s, &layers, &tr, &mut report);
    report
}
