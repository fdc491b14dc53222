//! Behavioural and property tests for the deterministic fault-injection
//! plane: non-perturbation with an empty schedule (the guarantee every
//! faults-off experiment relies on), crash/restart semantics, partitions,
//! burst loss, clock skew, process kills, and crash-storm robustness.

use aroma_env::radio::RadioEnvironment;
use aroma_env::space::Point;
use aroma_net::{Address, MacConfig, NetApp, NetCtx, Network, NodeConfig, NodeId};
use aroma_sim::faults::{random_storm, FaultOp, FaultSchedule, StormConfig};
use aroma_sim::telemetry::TelemetryConfig;
use aroma_sim::{SimDuration, SimRng, SimTime};
use bytes::Bytes;
use proptest::prelude::*;

fn quiet() -> RadioEnvironment {
    RadioEnvironment {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

/// Sends a small frame to `dst` every 50 ms; counts lifecycle callbacks.
struct Chatter {
    dst: NodeId,
    sent: u64,
    completed: u64,
    failed: u64,
    crashes: u64,
    restarts: u64,
    timer_fires: u64,
}

impl Chatter {
    fn to(dst: NodeId) -> Self {
        Chatter {
            dst,
            sent: 0,
            completed: 0,
            failed: 0,
            crashes: 0,
            restarts: 0,
            timer_fires: 0,
        }
    }
}

impl NetApp for Chatter {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }
    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, _token: u64) {
        self.timer_fires += 1;
        if ctx.send(Address::Node(self.dst), Bytes::from_static(b"tick")) {
            self.sent += 1;
        }
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }
    fn on_sent(&mut self, _ctx: &mut NetCtx<'_>, _to: Address) {
        self.completed += 1;
    }
    fn on_send_failed(&mut self, _ctx: &mut NetCtx<'_>, _to: NodeId, _p: &Bytes) {
        self.failed += 1;
    }
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.crashes += 1;
    }
    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.restarts += 1;
        self.on_start(ctx);
    }
}

/// Counts deliveries, with receive timestamps.
#[derive(Default)]
struct Sink {
    got: Vec<SimTime>,
    crashes: u64,
    restarts: u64,
}

impl NetApp for Sink {
    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, _from: NodeId, _payload: &Bytes) {
        self.got.push(ctx.now());
    }
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.crashes += 1;
    }
    fn on_restart(&mut self, _ctx: &mut NetCtx<'_>) {
        self.restarts += 1;
    }
}

fn chatter_world(seed: u64, schedule: Option<&FaultSchedule>) -> (Network, NodeId, NodeId) {
    let mut net = Network::new(quiet(), MacConfig::default(), seed);
    if let Some(s) = schedule {
        net.attach_faults(s);
    }
    let rx = net.add_node(NodeConfig::at(Point::new(4.0, 0.0)), Box::new(Sink::default()));
    let tx = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(Chatter::to(rx)),
    );
    (net, tx, rx)
}

#[test]
fn crash_restart_interrupts_then_resumes_traffic() {
    let schedule = FaultSchedule::builder(7)
        .crash_restart(secs(2), secs(3), 1) // the sender, node index 1
        .build();
    let (mut net, tx, rx) = chatter_world(11, Some(&schedule));
    net.run_until(secs(5));

    let c = net.app_as::<Chatter>(tx).unwrap();
    assert_eq!(c.crashes, 1);
    assert_eq!(c.restarts, 1);
    let sink = net.app_as::<Sink>(rx).unwrap();
    // Nothing arrives inside the outage; traffic resumes after restart.
    assert!(!sink.got.iter().any(|&t| t > secs(2) && t < secs(3)));
    assert!(sink.got.iter().any(|&t| t < secs(2)));
    assert!(sink.got.iter().any(|&t| t > secs(3)));
    let fs = net.fault_stats().unwrap();
    assert_eq!(fs.node_crashes, 1);
    assert_eq!(fs.node_restarts, 1);
    assert!(fs.timers_suppressed >= 1, "the pre-crash tick timer must die");
}

#[test]
fn power_cycle_keeps_app_state() {
    // drop_state=false: timers die but the app is not told to wipe state.
    let schedule = FaultSchedule::builder(7)
        .power_cycle(secs(2), secs(3), 1)
        .build();
    let (mut net, tx, _) = chatter_world(11, Some(&schedule));
    net.run_until(secs(5));
    let c = net.app_as::<Chatter>(tx).unwrap();
    assert_eq!(c.crashes, 0);
    assert_eq!(c.restarts, 1);
}

#[test]
fn receiver_crash_loses_frames_in_window() {
    let schedule = FaultSchedule::builder(7)
        .crash_restart(secs(2), secs(3), 0) // the receiver, node index 0
        .build();
    let (mut net, _, rx) = chatter_world(11, Some(&schedule));
    net.run_until(secs(5));
    let sink = net.app_as::<Sink>(rx).unwrap();
    assert!(!sink.got.iter().any(|&t| t > secs(2) && t < secs(3)));
    assert_eq!(sink.crashes, 1);
    assert!(net.fault_stats().unwrap().frames_lost_down > 0);
}

#[test]
fn partition_blocks_both_directions_then_heals() {
    let schedule = FaultSchedule::builder(7)
        .partition(secs(1), secs(3), 0b01, 0b10)
        .build();
    let (mut net, tx, rx) = chatter_world(11, Some(&schedule));
    net.run_until(secs(5));
    let sink = net.app_as::<Sink>(rx).unwrap();
    assert!(!sink.got.iter().any(|&t| t > secs(1) && t < secs(3)));
    assert!(sink.got.iter().any(|&t| t > secs(3)));
    let fs = net.fault_stats().unwrap();
    assert!(fs.frames_blocked_partition > 0);
    // The sender burned retries into the partition.
    let c = net.app_as::<Chatter>(tx).unwrap();
    assert!(c.failed > 0, "partitioned unicasts must exhaust retries");
}

#[test]
fn total_burst_loss_blocks_delivery() {
    let schedule = FaultSchedule::builder(7)
        .burst_loss(secs(1), secs(3), 1.0)
        .build();
    let (mut net, _, rx) = chatter_world(11, Some(&schedule));
    net.run_until(secs(5));
    let sink = net.app_as::<Sink>(rx).unwrap();
    assert!(!sink.got.iter().any(|&t| t > secs(1) && t < secs(3)));
    assert!(sink.got.iter().any(|&t| t > secs(3)), "burst must end");
    assert!(net.fault_stats().unwrap().frames_lost_burst > 0);
}

#[test]
fn clock_skew_stretches_timer_cadence() {
    // Slow the sender's clock 4x over [0, 4): its 50 ms tick becomes 200 ms.
    let schedule = FaultSchedule::builder(7)
        .clock_skew(SimTime::ZERO, 1, 4.0)
        .clock_skew(secs(4), 1, 1.0)
        .build();
    let (mut net, tx, _) = chatter_world(11, Some(&schedule));
    net.run_until(secs(4));
    let slowed = net.app_as::<Chatter>(tx).unwrap().timer_fires;
    // ~4 s / 200 ms = 20 fires (vs ~80 unskewed).
    assert!(slowed <= 22, "skew 4.0 must slow the cadence, saw {slowed} fires");
    net.run_until(secs(8));
    let total = net.app_as::<Chatter>(tx).unwrap().timer_fires;
    assert!(total - slowed >= 70, "cadence must recover after the skew clears");
}

#[test]
fn process_kill_reaches_app_but_radio_stays_up() {
    let schedule = FaultSchedule::builder(7)
        .process_kill_restart(secs(2), secs(3), 0) // receiver's app process
        .build();
    let (mut net, _, rx) = chatter_world(11, Some(&schedule));
    net.run_until(secs(5));
    let sink = net.app_as::<Sink>(rx).unwrap();
    assert_eq!(sink.crashes, 1);
    assert_eq!(sink.restarts, 1);
    // The NIC keeps receiving during the kill window: frames still reach
    // the (freshly notified) app because delivery is app-level here.
    assert!(
        sink.got.iter().any(|&t| t > secs(2) && t < secs(3)),
        "a process kill must not silence the radio"
    );
    assert_eq!(net.fault_stats().unwrap().process_kills, 1);
}

#[test]
fn crash_mid_transmission_is_safe() {
    // Crash the sender at many offsets inside its first transmission's
    // airtime; none may panic or corrupt the MAC.
    for off_us in [300, 350, 400, 450, 500, 550, 600, 700, 900] {
        let schedule = FaultSchedule::builder(7)
            .crash_restart(SimTime::from_nanos(off_us * 1_000), secs(1), 1)
            .build();
        let (mut net, _, _) = chatter_world(11, Some(&schedule));
        net.run_until(secs(3));
        assert_eq!(net.fault_stats().unwrap().node_crashes, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite guarantee: attaching an *empty* fault schedule is
    /// observationally identical to not attaching the fault plane at all —
    /// same deliveries, same traffic counters, and a byte-identical
    /// telemetry snapshot (wall-clock profile excluded). Mirrors the
    /// telemetry non-perturbation proptest in `properties.rs`.
    #[test]
    fn empty_schedule_is_non_perturbing(
        n_nodes in 2usize..5,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let run = |attach: bool| {
            let mut net = Network::new(quiet(), MacConfig::default(), seed);
            net.attach_telemetry(TelemetryConfig::default());
            if attach {
                net.attach_faults(&FaultSchedule::empty(fault_seed));
            }
            let rx = net.add_node(
                NodeConfig::at(Point::new(4.0, 0.0)),
                Box::new(Sink::default()),
            );
            for i in 1..n_nodes {
                net.add_node(
                    NodeConfig::at(Point::new(0.0, i as f64)),
                    Box::new(Chatter::to(rx)),
                );
            }
            net.run_until(secs(3));
            let got = net.app_as::<Sink>(rx).unwrap().got.clone();
            let attempts = net.stats().total_tx_attempts();
            let timeouts = net.stats().total_ack_timeouts();
            (got, attempts, timeouts, net.telemetry_snapshot().unwrap())
        };
        let (g0, a0, t0, s0) = run(false);
        let (g1, a1, t1, s1) = run(true);
        prop_assert_eq!(g0, g1);
        prop_assert_eq!(a0, a1);
        prop_assert_eq!(t0, t1);
        prop_assert!(s0.deterministic_eq(&s1));
    }

    /// Same seed + same schedule ⇒ identical outcome; and random storms
    /// (arbitrary crash/partition/burst/skew/kill overlaps, including
    /// mid-air crashes) never panic or break conservation.
    #[test]
    fn random_storms_are_deterministic_and_safe(
        seed in any::<u64>(),
        storm_seed in any::<u64>(),
    ) {
        let run = || {
            let mut rng = SimRng::new(storm_seed);
            let storm = random_storm(&mut rng, secs(4), 3, &StormConfig::default());
            let mut net = Network::new(quiet(), MacConfig::default(), seed);
            net.attach_faults(&storm);
            let rx = net.add_node(
                NodeConfig::at(Point::new(4.0, 0.0)),
                Box::new(Sink::default()),
            );
            net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(Chatter::to(rx)));
            net.add_node(NodeConfig::at(Point::new(0.0, 2.0)), Box::new(Chatter::to(rx)));
            net.run_until(secs(5));
            let delivered = net.app_as::<Sink>(rx).unwrap().got.len();
            let injected = net.fault_stats().unwrap().injected;
            (delivered, injected, net.stats().total_tx_attempts())
        };
        let (d1, i1, a1) = run();
        let (d2, i2, a2) = run();
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(i1, i2);
        prop_assert_eq!(a1, a2);
        prop_assert!(d1 as u64 <= a1, "deliveries cannot exceed attempts");
    }

    /// A late `NodeUp`/`PartitionEnd`-less schedule (fault never healed)
    /// still terminates cleanly: no stuck events, no panics.
    #[test]
    fn unhealed_faults_terminate(seed in any::<u64>(), node in 0u32..2) {
        let schedule = FaultSchedule::builder(seed)
            .op(secs(1), FaultOp::NodeDown { node, drop_state: true })
            .op(secs(1), FaultOp::BurstStart { loss: 0.9 })
            .build();
        let (mut net, _, _) = chatter_world(seed, Some(&schedule));
        net.run_until(secs(4));
        prop_assert_eq!(net.fault_stats().unwrap().node_crashes, 1);
    }
}
