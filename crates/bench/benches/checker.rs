//! Model-checker throughput: what a state of each production model costs
//! to explore (clone + step + canonicalise + dedup), and what the
//! symmetry reduction saves.
//!
//! The headline sweep in `examples/model_check.rs` visits ~4.5M distinct
//! states; these benches keep its wall-clock honest by tracking the
//! per-transition cost of the session model (clones two `SessionManager`s
//! per step) and the lease model (clones a `ServiceRegistry` plus the
//! ghost spec).

use aroma_check::{check, CheckerConfig, LeaseConfig, LeaseModel, SessionConfig, SessionModel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn session_cfg(users: usize, symmetry: bool) -> SessionConfig {
    SessionConfig {
        users,
        services: 1,
        stale_cap: 1,
        symmetry,
        ..SessionConfig::default()
    }
}

fn bench_session_exploration(c: &mut Criterion) {
    let cfg = CheckerConfig::default().with_max_states(20_000);
    c.bench_function("checker/session_2users_fixpoint", |b| {
        let m = SessionModel::new(session_cfg(2, true));
        b.iter(|| {
            let r = check(black_box(&m), &cfg);
            assert!(r.passed());
            black_box(r.distinct_states)
        })
    });
    c.bench_function("checker/session_3users_symmetry_on", |b| {
        let m = SessionModel::new(session_cfg(3, true));
        b.iter(|| black_box(check(black_box(&m), &cfg).distinct_states))
    });
    c.bench_function("checker/session_3users_symmetry_off", |b| {
        let m = SessionModel::new(session_cfg(3, false));
        b.iter(|| black_box(check(black_box(&m), &cfg).distinct_states))
    });
}

fn bench_lease_exploration(c: &mut Criterion) {
    let cfg = CheckerConfig::default().with_max_states(20_000);
    c.bench_function("checker/lease_1provider_fixpoint", |b| {
        let m = LeaseModel::new(LeaseConfig {
            providers: 1,
            requested_quanta: vec![2],
            channel_cap: 2,
            ..LeaseConfig::default()
        });
        b.iter(|| {
            let r = check(black_box(&m), &cfg);
            assert!(r.passed());
            black_box(r.distinct_states)
        })
    });
    c.bench_function("checker/lease_2providers", |b| {
        let m = LeaseModel::new(LeaseConfig::default());
        b.iter(|| black_box(check(black_box(&m), &cfg).distinct_states))
    });
}

criterion_group!(benches, bench_session_exploration, bench_lease_exploration);
criterion_main!(benches);
