//! The behavioural user simulator.
//!
//! Makes Figure 4's consistency relation *dynamic*: a simulated user plans
//! over their **believed** machine, acts on the **actual** application,
//! observes the result (application state is taken to be visible on the
//! UI), is *surprised* when belief and observation diverge, repairs the
//! belief, and accumulates frustration — giving up when it exceeds their
//! temperament. The paper: *"for too many users, using software becomes a
//! mental exercise similar to debugging"*; this module counts the debugging.

use crate::faculty::Faculties;
use crate::mental::StateMachine;
use aroma_sim::telemetry::{Layer, Telemetry};
use aroma_sim::SimRng;
use serde::{Deserialize, Serialize};

/// How the user picks the next action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerKind {
    /// Deliberate: shortest path in the believed machine (BFS).
    Bfs,
    /// Impulsive: any action believed to lead directly to the goal, else
    /// any believed action not yet tried from here, else random — the
    /// ablation arm for the planner design choice.
    Greedy,
}

/// Tunable costs of interaction (frustration units).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SessionParams {
    /// Budget of actions before the user simply runs out of time.
    pub max_steps: usize,
    /// Frustration per action taken.
    pub step_cost: f64,
    /// Frustration per surprise (observation contradicting belief).
    pub surprise_cost: f64,
    /// Frustration when no plan exists and the user must poke around.
    pub no_plan_cost: f64,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            max_steps: 60,
            step_cost: 0.01,
            surprise_cost: 0.12,
            no_plan_cost: 0.08,
        }
    }
}

/// What happened in one user session.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct InteractionReport {
    /// The user got the application into the goal state.
    pub reached_goal: bool,
    /// Actions taken.
    pub steps: usize,
    /// Observations that contradicted the user's belief.
    pub surprises: usize,
    /// Exploration actions taken with no plan available.
    pub explorations: usize,
    /// Accumulated frustration at session end.
    pub frustration: f64,
    /// The user abandoned before success (frustration or step budget).
    pub gave_up: bool,
}

impl InteractionReport {
    /// The paper's "conceptual burden" proxy: surprises plus explorations
    /// per step actually needed.
    pub fn burden(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            (self.surprises + self.explorations) as f64 / self.steps as f64
        }
    }
}

/// Simulate one session of `user` driving `actual` from `start` to `goal`,
/// starting from the belief `belief0`.
///
/// Deterministic given `rng`. The user observes the true state after every
/// action (the UI shows it) and repairs their belief on every surprise.
// The argument list mirrors the experiment grid (who × believed × actual ×
// start/goal × planner × params × seed); bundling them would just move the
// names into a one-shot struct at every call site.
#[allow(clippy::too_many_arguments)]
pub fn simulate_session(
    user: &Faculties,
    belief0: &StateMachine,
    actual: &StateMachine,
    start: &str,
    goal: &str,
    planner: PlannerKind,
    params: &SessionParams,
    rng: &mut SimRng,
) -> InteractionReport {
    let mut rec = Telemetry::Off;
    simulate_session_traced(
        user, belief0, actual, start, goal, planner, params, rng, &mut rec,
    )
}

/// [`simulate_session`] with a telemetry recorder: surprise / exploration /
/// give-up events land at the **Intentional** layer (the step index stands
/// in for time — the user simulator has no clock of its own), and
/// per-session counters and the final frustration summary go to the
/// metrics registry. Passing [`Telemetry::Off`] makes this identical to
/// the untraced entry point.
#[allow(clippy::too_many_arguments)]
pub fn simulate_session_traced(
    user: &Faculties,
    belief0: &StateMachine,
    actual: &StateMachine,
    start: &str,
    goal: &str,
    planner: PlannerKind,
    params: &SessionParams,
    rng: &mut SimRng,
    rec: &mut Telemetry,
) -> InteractionReport {
    let mut belief = belief0.clone();
    let mut state = start.to_string();
    let mut report = InteractionReport::default();
    // Temperament maps to a frustration budget: tolerance 1.0 ≈ absorbs
    // ~8 surprises; tolerance 0.25 gives up after ~2.
    let budget = user.frustration_tolerance.max(0.01);

    let report = loop {
        if report.steps >= params.max_steps {
            report.gave_up = state != goal;
            report.reached_goal = state == goal;
            break report;
        }
        if state == goal {
            report.reached_goal = true;
            break report;
        }
        if report.frustration >= budget {
            report.gave_up = true;
            break report;
        }

        let planned: Option<String> = match planner {
            PlannerKind::Bfs => belief.plan(&state, goal).and_then(|p| p.into_iter().next()),
            PlannerKind::Greedy => {
                let direct = belief
                    .actions_from(&state)
                    .find(|a| belief.step(&state, a) == Some(goal))
                    .map(str::to_string);
                direct.or_else(|| {
                    // Any believed action that leaves the current state.
                    belief
                        .actions_from(&state)
                        .find(|a| belief.step(&state, a).is_some_and(|t| t != state))
                        .map(str::to_string)
                })
            }
        };

        let action = match planned {
            Some(a) => a,
            None => {
                // No plan: the user pokes at the visible affordances (the
                // actual machine's actions are what the UI presents).
                let available: Vec<String> =
                    actual.actions_from(&state).map(str::to_string).collect();
                let Some(a) = rng.choose(&available).cloned() else {
                    // Dead end with no affordances at all.
                    report.gave_up = true;
                    break report;
                };
                report.explorations += 1;
                report.frustration += params.no_plan_cost;
                rec.count("user.explorations", 1);
                rec.event(
                    report.steps as u64,
                    Layer::Intentional,
                    "user.explore",
                    0,
                    report.steps as i64,
                    0,
                );
                a
            }
        };

        let predicted = belief.step(&state, &action).unwrap_or(&state).to_string();
        let observed = actual.step(&state, &action).unwrap_or(&state).to_string();

        report.steps += 1;
        report.frustration += params.step_cost;

        if predicted != observed {
            report.surprises += 1;
            report.frustration += params.surprise_cost;
            rec.count("user.surprises", 1);
            rec.event(
                report.steps as u64,
                Layer::Intentional,
                "user.surprise",
                0,
                report.steps as i64,
                0,
            );
        }
        // Learn the true transition either way (repetition consolidates).
        belief.add(&state, &action, &observed);
        state = observed;
    };

    rec.count("user.sessions", 1);
    if report.reached_goal {
        rec.count("user.goals_reached", 1);
    }
    if report.gave_up {
        rec.count("user.gave_up", 1);
        rec.event(
            report.steps as u64,
            Layer::Intentional,
            "user.give_up",
            0,
            report.surprises as i64,
            (report.frustration * 1000.0) as i64,
        );
    }
    rec.observe("user.frustration", report.frustration);
    rec.observe("user.burden", report.burden());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faculty::UserProfile;

    /// A three-step wizard: the actual application.
    fn wizard() -> StateMachine {
        StateMachine::new()
            .with("idle", "start-client", "client-started")
            .with("client-started", "start-vnc", "projecting")
            .with("projecting", "stop", "idle")
    }

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn perfect_belief_reaches_goal_without_surprise() {
        let user = UserProfile::researcher().faculties;
        let r = simulate_session(
            &user,
            &wizard(),
            &wizard(),
            "idle",
            "projecting",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
        );
        assert!(r.reached_goal);
        assert_eq!(r.steps, 2);
        assert_eq!(r.surprises, 0);
        assert_eq!(r.explorations, 0);
        assert!(!r.gave_up);
    }

    #[test]
    fn empty_belief_forces_exploration_but_can_succeed() {
        let user = UserProfile::researcher().faculties; // tolerant
        let r = simulate_session(
            &user,
            &StateMachine::new(),
            &wizard(),
            "idle",
            "projecting",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
        );
        assert!(r.reached_goal, "{r:?}");
        assert!(r.explorations > 0);
        assert!(r.surprises > 0, "exploration of an unknown app surprises");
    }

    #[test]
    fn wrong_belief_surprises_then_repairs() {
        // User believes one button does it all.
        let belief = StateMachine::new().with("idle", "start-client", "projecting");
        let user = UserProfile::researcher().faculties;
        let r = simulate_session(
            &user,
            &belief,
            &wizard(),
            "idle",
            "projecting",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
        );
        assert!(r.reached_goal);
        assert!(r.surprises >= 1);
    }

    #[test]
    fn intolerant_user_gives_up_on_a_confusing_app() {
        let mut user = UserProfile::casual().faculties;
        user.frustration_tolerance = 0.1; // two surprises is too many
                                          // Build a deliberately surprising 6-step app with no belief.
        let mut app = StateMachine::new();
        for i in 0..6 {
            app.add(&format!("s{i}"), "next", &format!("s{}", i + 1));
            app.add(&format!("s{i}"), "decoy", "s0"); // resets!
        }
        let r = simulate_session(
            &user,
            &StateMachine::new(),
            &app,
            "s0",
            "s6",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
        );
        assert!(r.gave_up, "{r:?}");
        assert!(!r.reached_goal);
    }

    #[test]
    fn step_budget_caps_sessions() {
        // Unreachable goal: user wanders until the budget runs out (high
        // tolerance so frustration doesn't end it first).
        let mut user = UserProfile::researcher().faculties;
        user.frustration_tolerance = 100.0;
        let app = StateMachine::new().with("a", "x", "a");
        let params = SessionParams {
            max_steps: 10,
            ..Default::default()
        };
        let r = simulate_session(
            &user,
            &StateMachine::new(),
            &app,
            "a",
            "z",
            PlannerKind::Bfs,
            &params,
            &mut rng(),
        );
        assert!(r.gave_up);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn dead_end_without_affordances_ends_session() {
        let app = StateMachine::new().with("a", "go", "b"); // b has no actions
        let user = UserProfile::researcher().faculties;
        let r = simulate_session(
            &user,
            &StateMachine::new(),
            &app,
            "a",
            "z",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
        );
        assert!(r.gave_up);
    }

    #[test]
    fn burden_metric_counts_confusion_per_step() {
        let mut r = InteractionReport {
            steps: 10,
            surprises: 2,
            explorations: 3,
            ..Default::default()
        };
        assert!((r.burden() - 0.5).abs() < 1e-12);
        r.steps = 0;
        assert_eq!(r.burden(), 0.0);
    }

    #[test]
    fn greedy_planner_also_completes_simple_tasks() {
        let user = UserProfile::presenter().faculties;
        let r = simulate_session(
            &user,
            &wizard(),
            &wizard(),
            "idle",
            "projecting",
            PlannerKind::Greedy,
            &SessionParams::default(),
            &mut rng(),
        );
        assert!(r.reached_goal, "{r:?}");
    }

    #[test]
    fn traced_session_records_surprises_and_frustration() {
        use aroma_sim::telemetry::TelemetryConfig;
        let user = UserProfile::researcher().faculties;
        let mut rec = Telemetry::enabled(TelemetryConfig::default());
        let r = simulate_session_traced(
            &user,
            &StateMachine::new(),
            &wizard(),
            "idle",
            "projecting",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
            &mut rec,
        );
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counter("user.sessions"), 1);
        assert_eq!(snap.counter("user.surprises"), r.surprises as u64);
        assert_eq!(snap.counter("user.explorations"), r.explorations as u64);
        assert_eq!(snap.counter("user.goals_reached"), 1);
        let surprise_events = snap
            .trace
            .iter()
            .filter(|e| e.name == "user.surprise")
            .count();
        assert_eq!(surprise_events, r.surprises);
        assert!(snap.trace.iter().all(|e| e.layer == Layer::Intentional));

        // The untraced entry point must agree with the traced one.
        let plain = simulate_session(
            &user,
            &StateMachine::new(),
            &wizard(),
            "idle",
            "projecting",
            PlannerKind::Bfs,
            &SessionParams::default(),
            &mut rng(),
        );
        assert_eq!(plain.steps, r.steps);
        assert_eq!(plain.surprises, r.surprises);
    }

    #[test]
    fn deterministic_given_seed() {
        let user = UserProfile::casual().faculties;
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            simulate_session(
                &user,
                &StateMachine::new(),
                &wizard(),
                "idle",
                "projecting",
                PlannerKind::Bfs,
                &SessionParams::default(),
                &mut rng,
            )
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.surprises, b.surprises);
        assert_eq!(a.reached_goal, b.reached_goal);
    }
}
