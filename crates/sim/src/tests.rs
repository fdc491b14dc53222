//! Unit tests of the telemetry recorder and the fault-schedule builder,
//! written against their public API.

use crate::faults::{node_mask, FaultOp, FaultSchedule, ScheduleError};
use crate::telemetry::{Layer, Telemetry, TelemetryConfig, TraceEvent};
use crate::time::{SimDuration, SimTime};

fn ev(t: u64, name: &'static str) -> TraceEvent {
    TraceEvent {
        t_nanos: t,
        layer: Layer::Resource,
        name,
        node: 1,
        a: 0,
        b: 0,
    }
}

#[test]
fn off_recorder_is_inert() {
    let mut t = Telemetry::off();
    t.trace(ev(1, "x"));
    t.count("c", 1);
    t.observe("s", 1.0);
    t.profile("h", 10);
    assert!(!t.is_on());
    assert!(t.snapshot().is_none());
}

#[test]
fn ring_drops_oldest_and_counts() {
    let mut t = Telemetry::enabled(TelemetryConfig { ring_capacity: 3 });
    for i in 0..5u64 {
        t.trace(ev(i, "e"));
    }
    let snap = t.snapshot().unwrap();
    assert_eq!(snap.trace_dropped, 2);
    let ts: Vec<u64> = snap.trace.iter().map(|e| e.t_nanos).collect();
    assert_eq!(ts, vec![2, 3, 4]); // oldest two overwritten
}

#[test]
fn zero_capacity_ring_ignores_events() {
    let mut t = Telemetry::enabled(TelemetryConfig::metrics_only());
    t.trace(ev(1, "e"));
    let snap = t.snapshot().unwrap();
    assert!(snap.trace.is_empty());
    assert_eq!(snap.trace_dropped, 0);
}

#[test]
fn counters_gauges_and_instruments() {
    let mut t = Telemetry::enabled(TelemetryConfig::default());
    t.count("net.retries", 2);
    t.count("net.retries", 3);
    t.gauge("queue.depth", 7.0);
    t.gauge("queue.depth", 4.0);
    t.observe("svc.time", 1.0);
    t.observe("svc.time", 3.0);
    t.observe_hist("lat", 0.0, 10.0, 10, 2.5);
    let snap = t.snapshot().unwrap();
    assert_eq!(snap.counter("net.retries"), 5);
    assert_eq!(snap.counter("absent"), 0);
    assert_eq!(snap.gauge("queue.depth"), Some(4.0));
    let s = snap.summary("svc.time").unwrap();
    assert_eq!(s.count, 2);
    assert!((s.mean - 2.0).abs() < 1e-12);
    assert_eq!(s.min, Some(1.0));
    assert_eq!(s.max, Some(3.0));
    let h = snap.histogram("lat").unwrap();
    assert_eq!(h.count, 1);
    assert_eq!(h.bins[2], 1);
}

#[test]
fn histogram_nan_routes_to_its_own_counter() {
    // Regression: NaN fails both range tests and `(frac * nbins) as
    // usize` saturates NaN to 0, so NaN samples were silently counted
    // as bin-0 entries — a plausible-looking small latency.
    let mut t = Telemetry::enabled(TelemetryConfig::default());
    t.observe_hist("lat", 0.0, 10.0, 10, f64::NAN);
    t.observe_hist("lat", 0.0, 10.0, 10, 2.5);
    t.observe_hist("lat", 0.0, 10.0, 10, -1.0);
    let snap = t.snapshot().unwrap();
    let h = snap.histogram("lat").unwrap();
    assert_eq!(h.count, 3);
    assert_eq!(h.nan, 1);
    assert_eq!(h.underflow, 1);
    assert_eq!(h.bins[0], 0, "NaN must not land in bin 0");
    assert_eq!(h.bins[2], 1);
    // Quantiles ignore the NaN sample: only {-1.0 -> lo, 2.5} remain.
    assert!(h.p99.unwrap() <= 3.0);

    let mut all_nan = Telemetry::enabled(TelemetryConfig::default());
    all_nan.observe_hist("lat", 0.0, 10.0, 10, f64::NAN);
    let snap = all_nan.snapshot().unwrap();
    let h = snap.histogram("lat").unwrap();
    assert_eq!((h.count, h.nan), (1, 1));
    assert_eq!(h.p50, None, "no numeric samples: no quantiles");
}

#[test]
fn profile_sorts_hottest_first_and_is_excluded_from_determinism() {
    let mut a = Telemetry::enabled(TelemetryConfig::default());
    a.profile("cool", 10);
    a.profile("hot", 100);
    a.profile("hot", 100);
    let snap = a.snapshot().unwrap();
    assert_eq!(snap.profile[0].name, "hot");
    assert_eq!(snap.profile[0].calls, 2);
    assert_eq!(snap.profile[0].total_nanos, 200);
    assert_eq!(snap.top_handlers(1).len(), 1);

    let mut b = Telemetry::enabled(TelemetryConfig::default());
    b.profile("hot", 999); // different wall time, same deterministic part
    assert!(snap.deterministic_eq(&b.snapshot().unwrap()));
}

#[test]
fn absorb_merges_sections_and_orders_trace() {
    let mut a = Telemetry::enabled(TelemetryConfig::default());
    a.count("a", 1);
    a.trace(ev(5, "late"));
    let mut b = Telemetry::enabled(TelemetryConfig::default());
    b.count("b", 2);
    b.trace(ev(3, "early"));
    let mut snap = a.snapshot().unwrap();
    snap.absorb(b.snapshot().unwrap());
    assert_eq!(snap.counter("a"), 1);
    assert_eq!(snap.counter("b"), 2);
    let names: Vec<_> = snap.trace.iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["early", "late"]);
}

fn ns(t: u64) -> SimTime {
    SimTime::from_nanos(t)
}

#[test]
fn builder_sorts_stably() {
    let s = FaultSchedule::builder(1)
        .op(ns(500), FaultOp::BurstEnd)
        .op(ns(100), FaultOp::ProcessKill { node: 0 })
        .op(ns(500), FaultOp::PartitionEnd)
        .op(ns(100), FaultOp::NodeUp { node: 2 })
        .build();
    let ops: Vec<_> = s.ops().iter().map(|&(t, op)| (t.as_nanos(), op.name())).collect();
    assert_eq!(
        ops,
        vec![
            (100, "process_kill"),
            (100, "node_up"),
            (500, "burst_end"),
            (500, "partition_end"),
        ]
    );
}

#[test]
fn empty_schedule_is_empty() {
    let s = FaultSchedule::empty(42);
    assert!(s.is_empty());
    assert_eq!(s.seed(), 42);
    assert_eq!(s.len(), 0);
}

#[test]
fn convenience_pairs_expand() {
    let s = FaultSchedule::builder(7)
        .crash_restart(ns(1_000), ns(2_000), 3)
        .partition(ns(10), ns(20), 0b01, 0b10)
        .burst_loss(ns(5), ns(6), 0.5)
        .build();
    assert_eq!(s.len(), 6);
    assert_eq!(s.ops()[0], (ns(5), FaultOp::BurstStart { loss: 0.5 }));
    assert_eq!(
        s.ops()[4],
        (ns(1_000), FaultOp::NodeDown { node: 3, drop_state: true })
    );
}

#[test]
fn blackout_masks() {
    let s = FaultSchedule::builder(0).blackout(ns(1), ns(2), 1, 4).build();
    assert_eq!(s.ops()[0], (ns(1), FaultOp::PartitionStart { a: 0b0010, b: 0b1101 }));
}

#[test]
fn node_mask_builds() {
    assert_eq!(node_mask(&[0, 2, 5]), 0b100101);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn bad_burst_loss_rejected() {
    FaultSchedule::builder(0).op(ns(0), FaultOp::BurstStart { loss: 1.5 }).build();
}

#[test]
#[should_panic(expected = "partition sides overlap")]
fn overlapping_partition_rejected() {
    FaultSchedule::builder(0)
        .op(ns(0), FaultOp::PartitionStart { a: 0b11, b: 0b10 })
        .build();
}

#[test]
#[should_panic(expected = "must be finite and > 0")]
fn bad_skew_rejected() {
    FaultSchedule::builder(0)
        .op(ns(0), FaultOp::ClockSkew { node: 0, factor: 0.0 })
        .build();
}

#[test]
fn crash_restore_after_expands_to_snapshot_restore_pair() {
    let s = FaultSchedule::builder(3).crash_restore_after(ns(1_000), SimDuration::from_nanos(500), 7).build();
    assert_eq!(
        s.ops(),
        &[
            (ns(1_000), FaultOp::NodeDown { node: 7, drop_state: false }),
            (ns(1_500), FaultOp::NodeUp { node: 7 }),
        ]
    );
}

#[test]
fn try_build_accepts_staggered_crashes() {
    let s = FaultSchedule::builder(0)
        .crash_restart(ns(100), ns(200), 1)
        .crash_restore_after(ns(300), SimDuration::from_nanos(50), 1)
        .process_kill_restart(ns(400), ns(500), 1)
        .crash_restart(ns(150), ns(180), 2) // other node, nested in node 1's window
        .try_build()
        .expect("staggered per-node intervals are valid");
    assert_eq!(s.len(), 8);
}

#[test]
fn try_build_rejects_overlapping_crash_intervals() {
    let err = FaultSchedule::builder(0)
        .crash_restart(ns(100), ns(400), 5)
        .crash_restore_after(ns(250), SimDuration::from_nanos(100), 5)
        .try_build()
        .unwrap_err();
    assert_eq!(
        err,
        ScheduleError::OverlappingCrash { node: 5, first_down: ns(100), second_down: ns(250) }
    );
    assert!(err.to_string().contains("node 5"));
}

#[test]
fn try_build_rejects_kill_during_power_fault() {
    // Cross-family overlap: a process kill while the host is powered
    // off is the same stacked-downtime bug.
    let err = FaultSchedule::builder(0)
        .power_cycle(ns(100), ns(300), 2)
        .process_kill_restart(ns(200), ns(250), 2)
        .try_build()
        .unwrap_err();
    assert!(matches!(err, ScheduleError::OverlappingCrash { node: 2, .. }));
}

#[test]
fn try_build_reports_invalid_ops_as_typed_errors() {
    let err = FaultSchedule::builder(0)
        .op(ns(9), FaultOp::BurstStart { loss: 2.0 })
        .try_build()
        .unwrap_err();
    assert!(matches!(err, ScheduleError::InvalidOp { at, .. } if at == ns(9)));
    assert!(err.to_string().contains("outside [0, 1]"));
}

#[test]
fn try_build_allows_unhealed_crash() {
    // A never-restored node is a legal script (unhealed-fault tests rely
    // on it); only *stacked* downtime is rejected.
    let s = FaultSchedule::builder(0)
        .op(ns(100), FaultOp::NodeDown { node: 0, drop_state: true })
        .try_build()
        .expect("a single unhealed crash is fine");
    assert_eq!(s.len(), 1);
}
