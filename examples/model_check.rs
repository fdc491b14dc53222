//! Exhaustive model checking of the session, lease, and replication
//! protocols.
//!
//! Runs `aroma-check`'s production models — the Smart Projector's
//! session protocol (real `SessionManager`s under an adversary), the
//! lookup service's lease protocol (real `ServiceRegistry` behind a lossy,
//! duplicating, reordering channel), and the replicated registrar (real
//! `ReplicaNode`s under client churn, message loss, crash/restore, and
//! elections — DESIGN.md §15) — to exhaustion within bounds, then
//! demonstrates the checker's counterexample traces on three seeded
//! faults: the policy-free projector (hijack in two actions), the
//! forgetful presenter under manual release (the paper's lockout, as a
//! liveness violation), and a replica answering lookups before the
//! commit-carrying append lands (why only the serving primary answers).
//!
//! The full sweep covers ~4.5M distinct states across the three fixpoint
//! runs plus a 600k-state bounded prefix of the replication space (a few
//! minutes on one core; the checker is sequential — see DESIGN.md §12).
//!
//! ```text
//! cargo run --release --example model_check            # full sweep (~4.5M states)
//! cargo run --release --example model_check -- --smoke # CI gate (50k states)
//! cargo run --release --example model_check -- --max-states 200000
//! ```

use aroma_check::{
    check, AnyNodeServes, CheckerConfig, LeaseConfig, LeaseModel, Model, ReplConfig, ReplModel,
    SessionConfig, SessionModel,
};
use aroma_sim::SimDuration;
use smart_projector::session::SessionPolicy;
use std::time::Instant;

/// Full-sweep state budget: headroom over the ~4.5M states the three
/// fixpoint models actually reach, so `complete` means a true fixpoint.
const FULL_SWEEP_STATES: usize = 8_000_000;

fn parse_config() -> CheckerConfig {
    let mut cfg = CheckerConfig::default().with_max_states(FULL_SWEEP_STATES);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = CheckerConfig::smoke(),
            "--max-states" => {
                let n = args
                    .next()
                    .and_then(|v| v.replace('_', "").parse().ok())
                    .expect("--max-states takes a number");
                cfg = cfg.with_max_states(n);
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: model_check [--smoke] [--max-states N]");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Run a model expected to satisfy every property; returns distinct states.
fn verify<M: Model>(name: &str, model: &M, cfg: &CheckerConfig, failures: &mut u32) -> usize {
    let start = Instant::now();
    let report = check(model, cfg);
    let secs = start.elapsed().as_secs_f64();
    let rate = (report.transitions as f64 / secs.max(1e-9)) as u64;
    println!("== {name}");
    println!("   {} ({rate} transitions/s)", report.summary());
    if report.passed() {
        println!("   PASS: all properties hold over every explored interleaving");
    } else {
        *failures += 1;
        println!("   FAIL:");
        for v in &report.violations {
            println!("{}", v.pretty(model));
        }
    }
    println!();
    report.distinct_states
}

/// Run a model expected to violate `property`; print its counterexample.
fn demonstrate<M: Model>(
    name: &str,
    model: &M,
    cfg: &CheckerConfig,
    property: &str,
    max_len: usize,
    failures: &mut u32,
) {
    let report = check(model, cfg);
    println!("== {name} (seeded fault — expecting a counterexample)");
    match report.violations.iter().find(|v| v.property == property) {
        Some(v) if v.trace.len() <= max_len => {
            println!("   found, {} actions:", v.trace.len());
            println!("{}", v.pretty(model));
        }
        Some(v) => {
            *failures += 1;
            println!(
                "   FAIL: counterexample has {} actions, expected <= {max_len}",
                v.trace.len()
            );
        }
        None => {
            *failures += 1;
            println!("   FAIL: expected a violation of '{property}', none found");
            println!("   {}", report.summary());
        }
    }
    println!();
}

fn main() {
    let cfg = parse_config();
    let mut failures = 0u32;
    println!(
        "aroma-check: exhaustive exploration (max {} states, max depth {})\n",
        cfg.max_states, cfg.max_depth
    );

    // -- Headline verification runs: the shipped policies, proven. --------

    // ManualRelease is time-free, so its symmetry-reduced space is the
    // smallest of the three; five users push it past 400k states.
    let manual = SessionModel::new(SessionConfig {
        users: 5,
        stale_cap: 3,
        ..SessionConfig::default()
    });
    let s1 = verify(
        "session protocol / ManualRelease / 5 users x 2 services + adversary",
        &manual,
        &cfg,
        &mut failures,
    );

    // The headline sweep: timers, departures, and the adversary at four
    // users give a ~2.2M-state space, exhausted to a complete fixpoint.
    let auto = SessionModel::new(SessionConfig {
        policy: SessionPolicy::AutoExpire {
            idle: SimDuration::from_secs(2),
        },
        allow_depart: true,
        users: 4,
        ..SessionConfig::default()
    });
    let s2 = verify(
        "session protocol / AutoExpire + forgetful users / 4 users (the paper's fix)",
        &auto,
        &cfg,
        &mut failures,
    );

    // Three providers through a deeper lossy channel: ~2M states.
    let lease = LeaseModel::new(LeaseConfig {
        providers: 3,
        requested_quanta: vec![2, 4, 3],
        channel_cap: 4,
        ..LeaseConfig::default()
    });
    let s3 = verify(
        "lease protocol / 3 providers, lossy+dup+reordering channel (cap 4)",
        &lease,
        &cfg,
        &mut failures,
    );

    // The replicated registrar (DESIGN.md §15). Its interleaving space
    // (channel contents x durable blobs x clocks) outgrows the fixpoint
    // models, so the full mode sweeps a bounded 600k-state BFS prefix —
    // every interleaving within it checked for at-most-one-active-primary,
    // no-committed-lease-lost, and no-stale-lookup (ghost-log refinement).
    let repl_cfg = if cfg.max_states > 600_000 {
        cfg.with_max_states(600_000)
    } else {
        cfg
    };
    let repl = ReplModel::new(ReplConfig::default());
    let s4 = verify(
        "replication protocol / 3 registrars, crash+restore, lossy channel, elections",
        &repl,
        &repl_cfg,
        &mut failures,
    );

    // -- Seeded faults: the checker must find and print the traces. -------

    demonstrate(
        "session protocol / SessionPolicy::None",
        &SessionModel::new(SessionConfig {
            policy: SessionPolicy::None,
            users: 2,
            services: 1,
            ..SessionConfig::default()
        }),
        &cfg,
        "no-hijack",
        12,
        &mut failures,
    );

    demonstrate(
        "session protocol / ManualRelease + forgetful presenter",
        &SessionModel::new(SessionConfig {
            allow_depart: true,
            users: 2,
            services: 1,
            ..SessionConfig::default()
        }),
        &cfg,
        "service-recoverable",
        12,
        &mut failures,
    );

    // Why only the serving primary answers lookups: force the all-nodes
    // variant of the freshness property and watch a lagging replica serve
    // a table missing a commit that already happened.
    demonstrate(
        "replication / replica answers before the commit lands",
        &AnyNodeServes::demo(),
        &cfg,
        "every-node-lookup-fresh",
        12,
        &mut failures,
    );

    // -- Coverage floor (full mode only; smoke trades depth for speed). ---

    if cfg.max_states >= FULL_SWEEP_STATES {
        // The full sweep must actually reach the fixpoints measured when
        // these configs were chosen; shrinkage means a model regressed.
        for (name, states, floor) in [
            ("ManualRelease", s1, 300_000),
            ("AutoExpire", s2, 2_000_000),
            ("lease", s3, 1_500_000),
            // Bounded sweep: the floor is the bound itself — shrinkage
            // means the model stopped generating successors early.
            ("replication", s4, 590_000),
        ] {
            if states < floor {
                failures += 1;
                println!("FAIL: {name} model explored only {states} distinct states (< {floor})");
            }
        }
    } else if cfg.max_states > 100_000 {
        for (name, states) in [
            ("ManualRelease", s1),
            ("AutoExpire", s2),
            ("lease", s3),
            ("replication", s4),
        ] {
            if states < 10_000 {
                failures += 1;
                println!("FAIL: {name} model explored only {states} distinct states (< 10k)");
            }
        }
    }

    if failures > 0 {
        println!("model_check: {failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("model_check: all protocol properties verified");
}
