//! Deterministic fault-injection plane for the Aroma/LPC stack.
//!
//! The paper's Resource/Abstract cross-relations ("must not be frustrated
//! by", "must be consistent with") are only testable when the substrate
//! actually fails. This module defines the *description* of those failures:
//! a seed-stable [`FaultSchedule`] of timestamped [`FaultOp`]s that the
//! network simulator consumes and turns into injected faults — node
//! crash/restart, channel partitions, burst frame loss beyond the PHY
//! model, clock skew on a node's timers, and application process kills.
//!
//! A schedule is built either from an explicit script
//! ([`FaultSchedule::builder`]) or drawn whole from a [`SimRng`]
//! ([`random_storm`]). Nodes are raw `u32` indices and node *sets* are
//! `u64` bitmasks (the simulator asserts node counts fit).
//!
//! Determinism contract: a schedule is a plain sorted list plus its own
//! `seed`. The injector derives every random decision (burst-loss coin
//! flips) from that seed alone, never from the simulation's main RNG, so
//! attaching an *empty* schedule is guaranteed not to perturb a run.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Bitmask of a set of node indices (node `i` ⇒ bit `i`). The simulator
/// supports fault masks over the first 64 nodes, which covers every
/// scenario in this repository.
pub fn node_mask(nodes: &[u32]) -> u64 {
    let mut m = 0u64;
    for &n in nodes {
        assert!(n < 64, "fault masks cover node indices 0..64, got {n}");
        m |= 1 << n;
    }
    m
}

/// One fault operation, applied at a scheduled instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultOp {
    /// Power-fail a node: radio silenced, MAC queue and in-flight exchanges
    /// dropped, all pending app timers cancelled. With `drop_state` the
    /// application's in-memory state is dropped too (the app is told via
    /// `on_crash` and must rebuild from scratch on restart); without it the
    /// state survives as a "snapshot restore" — only the timers are lost.
    NodeDown {
        /// The node to power off.
        node: u32,
        /// Whether the app's in-memory state is lost too.
        drop_state: bool,
    },
    /// Restore a downed node. The app is told via `on_restart` (which by
    /// default re-runs `on_start`).
    NodeUp {
        /// The node to restore.
        node: u32,
    },
    /// Open a bidirectional partition: frames between the `a` set and the
    /// `b` set (bitmasks) are silently lost at the receiver. A node-vs-rest
    /// mask pair models a channel blackout around one node.
    PartitionStart {
        /// One side's node mask.
        a: u64,
        /// The other side's node mask, disjoint from `a`.
        b: u64,
    },
    /// Heal the most recently opened, still-active partition.
    PartitionEnd,
    /// Begin a burst-loss window: every otherwise-successful reception is
    /// additionally lost with probability `loss`, drawn from the fault
    /// plane's own RNG stream (never the simulation RNG).
    BurstStart {
        /// Extra loss probability in `[0, 1]`.
        loss: f64,
    },
    /// End the current burst-loss window.
    BurstEnd,
    /// Stretch (`factor > 1`) or compress (`factor < 1`) every *subsequent*
    /// app-timer delay armed by `node`. `factor == 1.0` clears the skew.
    ClockSkew {
        /// The node whose timers are skewed.
        node: u32,
        /// Delay multiplier, finite and positive.
        factor: f64,
    },
    /// Kill just the application process on `node`: the radio and MAC stay
    /// up, but the app's state is dropped (`on_crash`) and its timers are
    /// cancelled. Models a registrar daemon dying on a healthy host.
    ProcessKill {
        /// The node whose app process dies.
        node: u32,
    },
    /// Restart a killed application process (`on_restart`).
    ProcessRestart {
        /// The node whose app process restarts.
        node: u32,
    },
}

impl FaultOp {
    /// Short stable name for telemetry/trace events.
    pub fn name(&self) -> &'static str {
        match self {
            FaultOp::NodeDown { .. } => "node_down",
            FaultOp::NodeUp { .. } => "node_up",
            FaultOp::PartitionStart { .. } => "partition_start",
            FaultOp::PartitionEnd => "partition_end",
            FaultOp::BurstStart { .. } => "burst_start",
            FaultOp::BurstEnd => "burst_end",
            FaultOp::ClockSkew { .. } => "clock_skew",
            FaultOp::ProcessKill { .. } => "process_kill",
            FaultOp::ProcessRestart { .. } => "process_restart",
        }
    }

    fn validate(&self) -> Result<(), String> {
        match *self {
            FaultOp::PartitionStart { a, b } => {
                if a == 0 || b == 0 {
                    return Err("partition with an empty side".into());
                }
                if a & b != 0 {
                    return Err(format!("partition sides overlap: {a:#x} & {b:#x}"));
                }
            }
            FaultOp::BurstStart { loss } if !(0.0..=1.0).contains(&loss) => {
                return Err(format!("burst loss {loss} outside [0, 1]"));
            }
            FaultOp::ClockSkew { factor, .. } if !(factor.is_finite() && factor > 0.0) => {
                return Err(format!("clock-skew factor {factor} must be finite and > 0"));
            }
            _ => {}
        }
        Ok(())
    }
}

/// A structurally invalid fault schedule, reported by
/// [`FaultScheduleBuilder::try_build`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// An individual operation failed validation (bad mask, probability,
    /// or skew factor).
    InvalidOp {
        /// Scheduled instant of the offending operation.
        at: SimTime,
        /// Human-readable reason.
        reason: String,
    },
    /// Two crash/kill intervals for the same node overlap: the second
    /// begins before the first has been restored. Scripted chaos scenarios
    /// should stagger faults per node; stacked downtime is almost always a
    /// scripting bug (the second down-op is a no-op and its paired restart
    /// resurrects the node early).
    OverlappingCrash {
        /// The node with overlapping downtime.
        node: u32,
        /// Start of the earlier interval.
        first_down: SimTime,
        /// Start of the later, conflicting interval.
        second_down: SimTime,
    },
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::InvalidOp { at, reason } => {
                write!(f, "invalid fault op at t={at}: {reason}")
            }
            ScheduleError::OverlappingCrash { node, first_down, second_down } => write!(
                f,
                "overlapping crash intervals for node {node}: \
                 down at t={second_down} while still down since t={first_down}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A seed-stable script of faults: `(t, op)` pairs sorted by time
/// (ties keep insertion order), plus the seed for the injector's private
/// RNG stream. Build one with [`FaultSchedule::builder`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    ops: Vec<(SimTime, FaultOp)>,
}

impl FaultSchedule {
    /// A schedule with no operations. Attaching it to a simulation must be
    /// observationally identical to not attaching the fault plane at all
    /// (enforced by proptest in `aroma-net`).
    pub fn empty(seed: u64) -> Self {
        FaultSchedule { seed, ops: Vec::new() }
    }

    /// Start building a schedule.
    pub fn builder(seed: u64) -> FaultScheduleBuilder {
        FaultScheduleBuilder { seed, ops: Vec::new() }
    }

    /// The injector RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The operations, sorted by time (stable on ties).
    pub fn ops(&self) -> &[(SimTime, FaultOp)] {
        &self.ops
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Builder for [`FaultSchedule`]; `build` stably sorts by time and
/// validates every operation.
#[derive(Clone, Debug)]
pub struct FaultScheduleBuilder {
    seed: u64,
    ops: Vec<(SimTime, FaultOp)>,
}

impl FaultScheduleBuilder {
    /// Schedule a raw operation at `t`.
    pub fn op(mut self, t: SimTime, op: FaultOp) -> Self {
        self.ops.push((t, op));
        self
    }

    /// Crash `node` at `t_down` dropping app state, restore it at `t_up`.
    pub fn crash_restart(self, t_down: SimTime, t_up: SimTime, node: u32) -> Self {
        assert!(t_down < t_up, "crash at {t_down} must precede restart at {t_up}");
        self.op(t_down, FaultOp::NodeDown { node, drop_state: true })
            .op(t_up, FaultOp::NodeUp { node })
    }

    /// Power-cycle `node` keeping its app state (snapshot restore).
    pub fn power_cycle(self, t_down: SimTime, t_up: SimTime, node: u32) -> Self {
        assert!(t_down < t_up, "down at {t_down} must precede up at {t_up}");
        self.op(t_down, FaultOp::NodeDown { node, drop_state: false })
            .op(t_up, FaultOp::NodeUp { node })
    }

    /// Partition the `a` set from the `b` set over `[t0, t1)`.
    pub fn partition(self, t0: SimTime, t1: SimTime, a: u64, b: u64) -> Self {
        assert!(t0 < t1, "partition start {t0} must precede end {t1}");
        self.op(t0, FaultOp::PartitionStart { a, b })
            .op(t1, FaultOp::PartitionEnd)
    }

    /// Black out `node` from everyone else over `[t0, t1)`.
    pub fn blackout(self, t0: SimTime, t1: SimTime, node: u32, node_count: u32) -> Self {
        assert!(node < node_count && node_count <= 64);
        let a = 1u64 << node;
        let all = if node_count == 64 { u64::MAX } else { (1u64 << node_count) - 1 };
        self.partition(t0, t1, a, all & !a)
    }

    /// Burst frame loss with probability `loss` over `[t0, t1)`.
    pub fn burst_loss(self, t0: SimTime, t1: SimTime, loss: f64) -> Self {
        assert!(t0 < t1, "burst start {t0} must precede end {t1}");
        self.op(t0, FaultOp::BurstStart { loss }).op(t1, FaultOp::BurstEnd)
    }

    /// Skew `node`'s timer delays by `factor` from `t` on.
    pub fn clock_skew(self, t: SimTime, node: u32, factor: f64) -> Self {
        self.op(t, FaultOp::ClockSkew { node, factor })
    }

    /// Kill the app process on `node` at `t_kill`, restart it at `t_up`.
    pub fn process_kill_restart(self, t_kill: SimTime, t_up: SimTime, node: u32) -> Self {
        assert!(t_kill < t_up, "kill at {t_kill} must precede restart at {t_up}");
        self.op(t_kill, FaultOp::ProcessKill { node })
            .op(t_up, FaultOp::ProcessRestart { node })
    }

    /// Crash `node` at `t_down` and bring it back `downtime` later as a *snapshot restore*: the app's in-memory state survives
    /// (only timers are lost), modelling a registrar that recovers from its
    /// persisted snapshot rather than an empty table. One call scripts the
    /// whole crash/restore episode.
    pub fn crash_restore_after(self, t_down: SimTime, downtime: SimDuration, node: u32) -> Self {
        assert!(downtime > SimDuration::ZERO, "crash_restore_after needs a non-zero downtime");
        self.op(t_down, FaultOp::NodeDown { node, drop_state: false })
            .op(t_down + downtime, FaultOp::NodeUp { node })
    }

    /// Validate and finish, reporting structural problems as a typed
    /// [`ScheduleError`] instead of panicking. On top of per-op validation
    /// this rejects overlapping crash intervals for the same node (a
    /// `NodeDown`/`ProcessKill` scheduled while an earlier one has not been
    /// matched by its `NodeUp`/`ProcessRestart` yet).
    pub fn try_build(mut self) -> Result<FaultSchedule, ScheduleError> {
        for (t, op) in &self.ops {
            if let Err(reason) = op.validate() {
                return Err(ScheduleError::InvalidOp { at: *t, reason });
            }
        }
        // Stable sort: ops scheduled for the same instant apply in the
        // order they were scripted.
        self.ops.sort_by_key(|&(t, _)| t);
        // Per-node downtime intervals must not overlap. Node power faults
        // and process kills share one "down since" slot per node: killing a
        // process on a powered-off host (or vice versa) is the same
        // stacked-downtime scripting bug.
        let mut down_since: std::collections::BTreeMap<u32, SimTime> = std::collections::BTreeMap::new();
        for &(t, op) in &self.ops {
            match op {
                FaultOp::NodeDown { node, .. } | FaultOp::ProcessKill { node } => {
                    if let Some(&first_down) = down_since.get(&node) {
                        return Err(ScheduleError::OverlappingCrash {
                            node,
                            first_down,
                            second_down: t,
                        });
                    }
                    down_since.insert(node, t);
                }
                FaultOp::NodeUp { node } | FaultOp::ProcessRestart { node } => {
                    down_since.remove(&node);
                }
                _ => {}
            }
        }
        Ok(FaultSchedule { seed: self.seed, ops: self.ops })
    }

    /// Validate and finish. Panics on an invalid operation (this is a test
    /// and experiment authoring API; bad scripts are programming errors).
    /// Unlike [`Self::try_build`] this does *not* reject overlapping crash
    /// intervals — `random_storm` deliberately stacks arbitrary faults and
    /// the injector tolerates them; use `try_build` for hand-authored
    /// scripts that should be overlap-checked.
    pub fn build(mut self) -> FaultSchedule {
        for (t, op) in &self.ops {
            if let Err(e) = op.validate() {
                panic!("invalid fault op at t={t}: {e}");
            }
        }
        // Stable sort: ops scheduled for the same instant apply in the
        // order they were scripted.
        self.ops.sort_by_key(|&(t, _)| t);
        FaultSchedule { seed: self.seed, ops: self.ops }
    }
}

/// Tuning knobs for [`random_storm`].
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    /// How many fault episodes to draw.
    pub episodes: usize,
    /// Shortest episode duration.
    pub min_len: SimDuration,
    /// Longest episode duration.
    pub max_len: SimDuration,
    /// Burst-loss probability range for loss episodes.
    pub loss: (f64, f64),
    /// Clock-skew factor range for skew episodes.
    pub skew: (f64, f64),
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            episodes: 6,
            min_len: SimDuration::from_millis(200),
            max_len: SimDuration::from_secs(2),
            loss: (0.2, 0.8),
            skew: (0.5, 2.0),
        }
    }
}

/// Derive a whole fault storm from `rng`: `cfg.episodes` random episodes
/// (crash/restart, power-cycle, blackout, burst loss, clock skew, process
/// kill) uniformly placed in `[0, horizon)` over `node_count` nodes. Same
/// rng state ⇒ same schedule; the schedule's own seed (for the injector's
/// burst-loss coin flips) is drawn from `rng` too.
pub fn random_storm(
    rng: &mut SimRng,
    horizon: SimTime,
    node_count: u32,
    cfg: &StormConfig,
) -> FaultSchedule {
    assert!((1..=64).contains(&node_count));
    let seed = rng.next_u64_raw();
    let mut b = FaultSchedule::builder(seed);
    for _ in 0..cfg.episodes {
        let len = SimDuration::from_nanos(
            cfg.min_len.as_nanos()
                + rng.below(cfg.max_len.as_nanos().saturating_sub(cfg.min_len.as_nanos()).max(1)),
        );
        let latest_start = horizon.as_nanos().saturating_sub(len.as_nanos()).max(1);
        let t0 = SimTime::from_nanos(rng.below(latest_start));
        let t1 = t0 + len;
        let node = rng.below(node_count as u64) as u32;
        match rng.below(6) {
            0 => b = b.crash_restart(t0, t1, node),
            1 => b = b.power_cycle(t0, t1, node),
            2 if node_count > 1 => b = b.blackout(t0, t1, node, node_count),
            3 => b = b.burst_loss(t0, t1, rng.uniform_range(cfg.loss.0, cfg.loss.1)),
            4 => {
                b = b
                    .clock_skew(t0, node, rng.uniform_range(cfg.skew.0, cfg.skew.1))
                    .clock_skew(t1, node, 1.0)
            }
            _ => b = b.process_kill_restart(t0, t1, node),
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_storm_is_seed_stable() {
        let mk = || {
            let mut rng = SimRng::new(0xBAD);
            random_storm(&mut rng, SimTime::from_nanos(10_000_000_000), 4, &StormConfig::default())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Every op validates and is in time order.
        let mut last = SimTime::ZERO;
        for &(t, _) in a.ops() {
            assert!(t >= last);
            last = t;
        }
    }
}
