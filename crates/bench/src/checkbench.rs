//! Model-checker throughput: the data behind `BENCH_check.json`, which
//! `repro bench` / `scripts/bench.sh` append one entry to per run.
//!
//! Each entry holds one sequential states/sec point per production model
//! on a bounded sweep, with the fixed-seed E9 chaos-recovery times beside
//! them, so the trajectory tracks the recovery deadlines alongside raw
//! checker throughput. `available_parallelism` is recorded for context;
//! the checker itself is single-threaded (DESIGN.md §12). Compare points
//! only within one machine generation.

use crate::experiments::chaos::{chaos_run, storm};
use aroma_check::{check, CheckerConfig, LeaseConfig, LeaseModel, Model, SessionConfig, SessionModel};
use aroma_sim::report::Json;
use std::time::Instant;

/// One model's sequential sweep.
pub struct ModelPoint {
    /// Wall-clock seconds for the sweep.
    pub secs: f64,
    /// Distinct states explored.
    pub states: usize,
    /// Transitions generated.
    pub transitions: u64,
    /// Distinct states per wall-clock second.
    pub states_per_sec: f64,
}

/// Time one bounded sweep of `model`.
fn measure<M: Model>(model: &M, cfg: &CheckerConfig) -> ModelPoint {
    let start = Instant::now();
    let report = check(model, cfg);
    let secs = start.elapsed().as_secs_f64();
    assert!(report.passed(), "bench models must hold their properties");
    ModelPoint {
        secs,
        states: report.distinct_states,
        transitions: report.transitions,
        states_per_sec: report.distinct_states as f64 / secs.max(1e-9),
    }
}

fn model_json(name: &str, max_states: usize, p: &ModelPoint) -> (String, Json) {
    (
        name.to_string(),
        Json::obj(vec![
            ("max_states", Json::from(max_states)),
            ("secs", Json::from(p.secs)),
            ("states", Json::from(p.states)),
            ("transitions", Json::from(p.transitions)),
            ("states_per_sec", Json::from(p.states_per_sec)),
        ]),
    )
}

/// Sweep both production models and return their JSON entries.
fn sweep_models(max_states: usize) -> Vec<(String, Json)> {
    let cfg = CheckerConfig::default().with_max_states(max_states);

    // The 4-user manual-release session sweep (~78k-state fixpoint): big
    // enough that states/sec means something, small enough to bench.
    let session = SessionModel::new(SessionConfig {
        users: 4,
        stale_cap: 3,
        ..SessionConfig::default()
    });
    // The 3-provider lease model from the full sweep, bounded.
    let lease = LeaseModel::new(LeaseConfig {
        providers: 3,
        requested_quanta: vec![2, 4, 3],
        channel_cap: 4,
        ..LeaseConfig::default()
    });
    vec![
        model_json("session_4users", max_states, &measure(&session, &cfg)),
        model_json("lease_3providers", max_states, &measure(&lease, &cfg)),
    ]
}

/// Run the checker sweeps plus the E9 recovery measurement and return
/// one `BENCH_check.json` entry.
pub fn run(quick: bool) -> Json {
    let max_states = if quick { 20_000 } else { 200_000 };
    let models = sweep_models(max_states);

    // Fixed-seed chaos recovery: the other half of the perf story — how
    // fast the stack heals, measured from the same telemetry trace E9
    // renders (byte-identical for a fixed seed).
    let chaos = chaos_run(0xE9);
    let recoveries = Json::Arr(
        chaos
            .recoveries
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("layer", Json::from(r.layer)),
                    ("fault", Json::from(r.fault)),
                    (
                        "ttr_s",
                        r.ttr_s().map_or(Json::Null, Json::from),
                    ),
                    ("deadline_s", Json::from(r.deadline_s)),
                    ("met", Json::from(r.met())),
                ])
            })
            .collect(),
    );

    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut fields = vec![
        ("engine".to_string(), Json::from("sequential")),
        (
            "available_parallelism".to_string(),
            Json::from(parallelism),
        ),
        ("quick".to_string(), Json::from(quick)),
    ];
    fields.extend(models);
    fields.push((
        "e9_chaos_recovery".to_string(),
        Json::obj(vec![
            ("seed", Json::from(0xE9u64)),
            ("deadline_s", Json::from(storm::DEADLINE_S)),
            ("recoveries", recoveries),
        ]),
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_point_measures_and_renders() {
        // A deliberately tiny bound: the full entry (including the E9
        // chaos run) is exercised by `scripts/bench.sh` in release mode;
        // this pins the JSON shape cheaply enough for the debug suite.
        let session = SessionModel::new(SessionConfig::default());
        let cfg = CheckerConfig::default().with_max_states(1_500);
        let point = measure(&session, &cfg);
        assert_eq!(point.states, check(&session, &cfg).distinct_states);
        let (name, json) = model_json("session_4users", 1_500, &point);
        let text = json.render();
        assert_eq!(name, "session_4users");
        assert!(text.contains("states_per_sec"));
        assert!(text.contains("\"max_states\":1500"));
    }
}
