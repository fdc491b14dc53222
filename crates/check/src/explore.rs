//! Bounded exhaustive exploration: BFS/DFS over canonical keys.
//!
//! The explorer visits every state reachable within the configured bounds,
//! deduplicating on [`Model::key`]. BFS order guarantees that the first
//! violation found for a safety property has a *shortest* counterexample
//! trace, which keeps printed traces readable (the acceptance bar for the
//! session hijack demo is ≤ 12 actions; BFS finds it in 2).
//!
//! Exploration is one sequential pop-expand loop (DESIGN.md §12 says why
//! there is no parallel engine). AG EF ("always eventually possible")
//! properties are resolved after the forward pass by a reverse
//! reachability sweep over the explored graph. States whose forward
//! closure was truncated by a bound are reported as *undetermined* rather
//! than violating — a bounded checker must never claim a liveness
//! violation it cannot exhibit.

use crate::model::{Model, Property, PropertyKind};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Exploration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first: shortest counterexamples, the default.
    Bfs,
    /// Depth-first: lower frontier memory, longer traces.
    Dfs,
}

/// Exploration bounds and order.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Stop discovering new states past this many distinct states.
    pub max_states: usize,
    /// Do not expand states deeper than this many actions from an init.
    pub max_depth: u32,
    /// BFS or DFS.
    pub strategy: Strategy,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            max_states: 1_000_000,
            max_depth: 10_000,
            strategy: Strategy::Bfs,
        }
    }
}

impl CheckerConfig {
    /// The CI smoke configuration: bounded enough for every PR gate.
    pub fn smoke() -> Self {
        CheckerConfig {
            max_states: 50_000,
            ..Self::default()
        }
    }

    /// Builder-style bound override.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Builder-style depth override.
    pub fn with_max_depth(mut self, d: u32) -> Self {
        self.max_depth = d;
        self
    }
}

struct Node<M: Model> {
    state: M::State,
    /// `(parent node index, action that produced this node)`; `None` for
    /// initial states.
    parent: Option<(usize, M::Action)>,
    depth: u32,
}

/// A property violation with its reconstructed action trace.
pub struct Violation<M: Model> {
    /// Name of the violated property.
    pub property: &'static str,
    /// Was this a safety (`Always`) or reachability (`AlwaysEventually`) failure?
    pub kind: PropertyKind,
    /// Shortest-known action sequence from an initial state to the bad state.
    pub trace: Vec<M::Action>,
    /// The bad state itself.
    pub end_state: M::State,
}

impl<M: Model> Violation<M> {
    /// Pretty-print the counterexample through the model's formatters.
    pub fn pretty(&self, model: &M) -> String {
        let mut out = String::new();
        let what = match self.kind {
            PropertyKind::Always => "invariant violated",
            PropertyKind::AlwaysEventually => "goal unreachable from state",
        };
        out.push_str(&format!(
            "counterexample: {} `{}` after {} action(s)\n",
            what,
            self.property,
            self.trace.len()
        ));
        for (i, action) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {:>3}. {}\n", i + 1, model.format_action(action)));
        }
        out.push_str(&format!("  => {}\n", model.format_state(&self.end_state)));
        out
    }
}

/// What an exploration established.
pub struct CheckReport<M: Model> {
    /// Distinct canonical states discovered.
    pub distinct_states: usize,
    /// Transitions taken (successor evaluations that produced a state).
    pub transitions: u64,
    /// Deepest node expanded.
    pub max_depth_reached: u32,
    /// True when the frontier drained before hitting any bound: the state
    /// space was covered exhaustively and the verdicts are unconditional
    /// (within the model's own bounds).
    pub complete: bool,
    /// Violations found (exploration stops at the first safety violation).
    pub violations: Vec<Violation<M>>,
    /// States whose AG EF verdict was left open by a bound truncation.
    pub undetermined: usize,
}

impl<M: Model> CheckReport<M> {
    /// No violation of any kind was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs and the example binary.
    pub fn summary(&self) -> String {
        format!(
            "{} distinct states, {} transitions, depth {}, {}{}{}",
            self.distinct_states,
            self.transitions,
            self.max_depth_reached,
            if self.complete { "complete" } else { "bounded" },
            if self.violations.is_empty() {
                ", all properties hold".to_string()
            } else {
                format!(", {} VIOLATION(S)", self.violations.len())
            },
            if self.undetermined > 0 {
                format!(", {} undetermined", self.undetermined)
            } else {
                String::new()
            }
        )
    }
}

/// The forward pass's full output: the report plus the explored graph the
/// liveness pass walks backwards over.
struct Exploration<M: Model> {
    report: CheckReport<M>,
    nodes: Vec<Node<M>>,
    /// Successor adjacency, only populated when a liveness property needs it.
    edges: Vec<Vec<u32>>,
    /// Nodes whose successors were *all* generated (frontier nodes are not).
    expanded: Vec<bool>,
}

impl<M: Model> Exploration<M> {
    fn new() -> Self {
        Exploration {
            report: CheckReport {
                distinct_states: 0,
                transitions: 0,
                max_depth_reached: 0,
                complete: true,
                violations: Vec::new(),
                undetermined: 0,
            },
            nodes: Vec::new(),
            edges: Vec::new(),
            expanded: Vec::new(),
        }
    }
}

fn trace_to<M: Model>(nodes: &[Node<M>], mut idx: usize) -> Vec<M::Action> {
    let mut rev = Vec::new();
    while let Some((parent, action)) = &nodes[idx].parent {
        rev.push(action.clone());
        idx = *parent;
    }
    rev.reverse();
    rev
}

enum Admitted {
    /// Novel state, stored at this node index.
    New(usize),
    /// Duplicate of this already-known node.
    Existing(usize),
    /// Novel state dropped by the state budget.
    Rejected,
}

/// Admit a state whose canonical key is already computed (exactly once per
/// generated successor — the old engine recomputed `model.key` on the
/// budget path). Boundary semantics, pinned by `exact_state_budget_*`
/// tests: once `nodes.len() == max_states`, a successor is admitted iff
/// its key was already seen; novel states are rejected. Initial states
/// pass `usize::MAX` and bypass the budget.
#[allow(clippy::too_many_arguments)] // one call shape: initial states and successors
fn admit<M: Model>(
    seen: &mut HashMap<M::Key, usize>,
    ex: &mut Exploration<M>,
    track_edges: bool,
    max_states: usize,
    key: M::Key,
    state: M::State,
    parent: Option<(usize, M::Action)>,
    depth: u32,
) -> Admitted {
    match seen.entry(key) {
        Entry::Occupied(e) => Admitted::Existing(*e.get()),
        Entry::Vacant(e) => {
            // `seen` holds exactly one entry per node, so `nodes.len()` is
            // the live distinct-state count.
            if ex.nodes.len() >= max_states {
                return Admitted::Rejected;
            }
            let idx = ex.nodes.len();
            e.insert(idx);
            ex.nodes.push(Node {
                state,
                parent,
                depth,
            });
            if track_edges {
                ex.edges.push(Vec::new());
            }
            ex.expanded.push(false);
            Admitted::New(idx)
        }
    }
}

/// Check safety on every node admitted since the last sweep, in admission
/// order; on the first violating node, record the violation and return
/// `true` (stop exploring).
fn sweep_safety<M: Model>(
    model: &M,
    safety: &[&Property<M>],
    ex: &mut Exploration<M>,
    checked_upto: &mut usize,
) -> bool {
    while *checked_upto < ex.nodes.len() {
        for p in safety {
            if !(p.check)(model, &ex.nodes[*checked_upto].state) {
                let trace = trace_to(&ex.nodes, *checked_upto);
                ex.report.violations.push(Violation {
                    property: p.name,
                    kind: PropertyKind::Always,
                    trace,
                    end_state: ex.nodes[*checked_upto].state.clone(),
                });
                ex.report.complete = false;
                return true;
            }
        }
        *checked_upto += 1;
    }
    false
}

/// Exhaustively explore `model` within `cfg`'s bounds and check every
/// property. Stops at the first safety violation (its trace is shortest
/// under BFS); AG EF properties are resolved after the forward sweep.
pub fn check<M: Model>(model: &M, cfg: &CheckerConfig) -> CheckReport<M> {
    let props = model.properties();
    let safety: Vec<&Property<M>> = props
        .iter()
        .filter(|p| p.kind == PropertyKind::Always)
        .collect();
    let liveness: Vec<&Property<M>> = props
        .iter()
        .filter(|p| p.kind == PropertyKind::AlwaysEventually)
        .collect();
    let track_edges = !liveness.is_empty();

    let mut ex = explore(model, cfg, &safety, track_edges);

    // Resolve AG EF properties by reverse reachability over the explored
    // graph (skipped entirely if a safety violation already stopped us).
    if ex.report.violations.is_empty() && !liveness.is_empty() {
        resolve_liveness(model, &mut ex, &liveness);
    }
    ex.report
}

/// The forward pass: one pop-expand loop, BFS or DFS.
fn explore<M: Model>(
    model: &M,
    cfg: &CheckerConfig,
    safety: &[&Property<M>],
    track_edges: bool,
) -> Exploration<M> {
    let mut ex = Exploration::new();
    let mut seen: HashMap<M::Key, usize> = HashMap::new();
    let mut frontier: VecDeque<usize> = VecDeque::new();

    for init in model.initial_states() {
        let key = model.key(&init);
        if let Admitted::New(idx) = admit(
            &mut seen,
            &mut ex,
            track_edges,
            usize::MAX,
            key,
            init,
            None,
            0,
        ) {
            frontier.push_back(idx);
        }
    }

    // Safety is checked on admission order; violations on initial states
    // must be caught too, so sweep the queue as part of the main loop.
    let mut actions: Vec<M::Action> = Vec::new();
    let mut checked_upto = 0usize;
    'explore: while let Some(idx) = match cfg.strategy {
        Strategy::Bfs => frontier.pop_front(),
        Strategy::Dfs => frontier.pop_back(),
    } {
        // Covers the popped node and, under DFS, nodes that may linger.
        if sweep_safety(model, safety, &mut ex, &mut checked_upto) {
            break 'explore;
        }

        let node_depth = ex.nodes[idx].depth;
        ex.report.max_depth_reached = ex.report.max_depth_reached.max(node_depth);
        if node_depth >= cfg.max_depth {
            ex.report.complete = false;
            continue; // left unexpanded: a frontier truncation
        }

        actions.clear();
        model.actions(&ex.nodes[idx].state, &mut actions);
        let mut truncated = false;
        for action in actions.drain(..) {
            let Some(next) = model.step(&ex.nodes[idx].state, &action) else {
                continue;
            };
            ex.report.transitions += 1;
            let key = model.key(&next);
            match admit(
                &mut seen,
                &mut ex,
                track_edges,
                cfg.max_states,
                key,
                next,
                Some((idx, action)),
                node_depth + 1,
            ) {
                Admitted::New(succ) => {
                    frontier.push_back(succ);
                    if track_edges {
                        ex.edges[idx].push(succ as u32);
                    }
                }
                Admitted::Existing(succ) => {
                    if track_edges {
                        ex.edges[idx].push(succ as u32);
                    }
                }
                Admitted::Rejected => {
                    // Out of state budget: drop this successor, mark the
                    // node as incompletely expanded.
                    truncated = true;
                    ex.report.complete = false;
                }
            }
        }
        ex.expanded[idx] = !truncated;
    }
    ex.report.distinct_states = ex.nodes.len();
    ex
}

/// Resolve every AG EF property over the explored graph by reverse
/// reachability; bound-truncated regions are filed as undetermined.
fn resolve_liveness<M: Model>(model: &M, ex: &mut Exploration<M>, liveness: &[&Property<M>]) {
    let Exploration {
        report,
        nodes,
        edges,
        expanded,
    } = ex;
    let n = nodes.len();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (from, succs) in edges.iter().enumerate() {
        for &to in succs {
            rev[to as usize].push(from as u32);
        }
    }
    // Mark the backward closure of `seeds` over the reversed edges.
    let mark_backward = |seeds: Vec<u32>| -> Vec<bool> {
        let mut marked = vec![false; n];
        for &s in &seeds {
            marked[s as usize] = true;
        }
        let mut frontier = seeds;
        while let Some(i) = frontier.pop() {
            for &p in &rev[i as usize] {
                if !marked[p as usize] {
                    marked[p as usize] = true;
                    frontier.push(p);
                }
            }
        }
        marked
    };

    // "Unknown" region: states that can reach an unexpanded state may have
    // had their path to the goal truncated.
    let unknown = mark_backward((0..n as u32).filter(|&i| !expanded[i as usize]).collect());
    for prop in liveness {
        let good = mark_backward(
            (0..n as u32)
                .filter(|&i| (prop.check)(model, &nodes[i as usize].state))
                .collect(),
        );
        let mut worst: Option<usize> = None;
        for i in 0..n {
            if good[i] {
                continue;
            }
            if unknown[i] {
                report.undetermined += 1;
            } else {
                // Definite violation: fully explored closure, no goal.
                worst = match worst {
                    Some(wi) if nodes[wi].depth <= nodes[i].depth => Some(wi),
                    _ => Some(i),
                };
            }
        }
        if let Some(i) = worst {
            report.violations.push(Violation {
                property: prop.name,
                kind: PropertyKind::AlwaysEventually,
                trace: trace_to(nodes, i),
                end_state: nodes[i].state.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Property, PropertyKind};

    /// A counter that may increment, decrement (not below zero, and only
    /// when `down` is set), or jump into a sink at 7. Safety: value != 5
    /// (violated). AG EF: value can return to 0 (violated by the sink).
    struct Counter {
        bound: u32,
        forbidden: Option<u32>,
        sink_at: Option<u32>,
        down: bool,
    }

    impl Model for Counter {
        type State = (u32, bool); // (value, sunk)
        type Action = i8;
        type Key = (u32, bool);

        fn initial_states(&self) -> Vec<Self::State> {
            vec![(0, false)]
        }

        fn actions(&self, state: &Self::State, out: &mut Vec<i8>) {
            if state.1 {
                return; // sunk: no actions
            }
            if state.0 < self.bound {
                out.push(1);
            }
            if self.down && state.0 > 0 {
                out.push(-1);
            }
            if Some(state.0) == self.sink_at {
                out.push(0);
            }
        }

        fn step(&self, state: &Self::State, action: &i8) -> Option<Self::State> {
            Some(match action {
                0 => (state.0, true),
                d => ((state.0 as i64 + *d as i64) as u32, false),
            })
        }

        fn key(&self, state: &Self::State) -> Self::Key {
            *state
        }

        fn properties(&self) -> Vec<Property<Self>> {
            let mut props: Vec<Property<Self>> = vec![];
            if self.forbidden.is_some() {
                props.push(Property {
                    name: "never-forbidden",
                    kind: PropertyKind::Always,
                    check: |m, s| Some(s.0) != m.forbidden,
                });
            }
            props.push(Property {
                name: "can-return-to-zero",
                kind: PropertyKind::AlwaysEventually,
                check: |_, s| s.0 == 0 && !s.1,
            });
            props
        }
    }

    /// A wide model: states are bitsets of `bits` bits and actions set any
    /// unset bit, so BFS layer `d` holds `C(bits, d)` states. AG EF: the
    /// full set stays reachable (it always does).
    struct BitSpread {
        bits: u32,
    }

    impl Model for BitSpread {
        type State = u32;
        type Action = u32;
        type Key = u32;

        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }

        fn actions(&self, state: &u32, out: &mut Vec<u32>) {
            for b in 0..self.bits {
                if state & (1 << b) == 0 {
                    out.push(b);
                }
            }
        }

        fn step(&self, state: &u32, action: &u32) -> Option<u32> {
            Some(state | (1 << action))
        }

        fn key(&self, state: &u32) -> u32 {
            *state
        }

        fn properties(&self) -> Vec<Property<Self>> {
            vec![Property {
                name: "full-set-reachable",
                kind: PropertyKind::AlwaysEventually,
                check: |m, s| *s == (1u32 << m.bits) - 1,
            }]
        }
    }
    #[test]
    fn bfs_finds_shortest_safety_counterexample() {
        let m = Counter {
            bound: 10,
            forbidden: Some(5),
            sink_at: None,
            down: true,
        };
        let r = check(&m, &CheckerConfig::default());
        assert!(!r.passed());
        let v = &r.violations[0];
        assert_eq!(v.property, "never-forbidden");
        assert_eq!(v.trace.len(), 5, "shortest path is five increments");
        assert!(v.pretty(&m).contains("never-forbidden"));
    }

    #[test]
    fn clean_model_reaches_fixpoint() {
        let m = Counter {
            bound: 10,
            forbidden: None,
            sink_at: None,
            down: true,
        };
        let r = check(&m, &CheckerConfig::default());
        assert!(r.passed());
        assert!(r.complete);
        assert_eq!(r.distinct_states, 11);
        assert_eq!(r.undetermined, 0);
    }

    #[test]
    fn sink_violates_ag_ef() {
        let m = Counter {
            bound: 10,
            forbidden: None,
            sink_at: Some(7),
            down: true,
        };
        let r = check(&m, &CheckerConfig::default());
        assert!(!r.passed());
        let v = &r.violations[0];
        assert_eq!(v.property, "can-return-to-zero");
        assert_eq!(v.kind, PropertyKind::AlwaysEventually);
        assert!(v.end_state.1, "the wedge is the sunk state");
        assert_eq!(v.trace.len(), 8, "seven increments plus the sink jump");
    }

    #[test]
    fn state_budget_truncates_and_reports_incomplete() {
        // Monotone counter: no explored state (except 0) can return to 0,
        // but every one can reach the truncated frontier — so the checker
        // must file them as undetermined, never as violations.
        let m = Counter {
            bound: 1_000,
            forbidden: None,
            sink_at: None,
            down: false,
        };
        let r = check(&m, &CheckerConfig::default().with_max_states(100));
        assert!(!r.complete);
        assert_eq!(r.distinct_states, 100);
        // Liveness must not claim violations beyond the truncation.
        assert!(r.passed());
        assert!(r.undetermined > 0);
    }

    #[test]
    fn exact_state_budget_boundary_is_pinned() {
        // The down-counter over 0..=10 has exactly 11 distinct states.
        // With the budget set exactly to the space size, every successor
        // at the boundary is already seen, so the sweep still completes:
        // admitted-iff-seen once `nodes.len() == max_states`.
        let m = Counter {
            bound: 10,
            forbidden: None,
            sink_at: None,
            down: true,
        };
        let at = check(&m, &CheckerConfig::default().with_max_states(11));
        assert!(at.complete, "budget == space size must still complete");
        assert_eq!(at.distinct_states, 11);
        assert!(at.passed());

        // One below: the final novel state is rejected, the sweep reports
        // bounded, and the count pins to the budget exactly.
        let below = check(&m, &CheckerConfig::default().with_max_states(10));
        assert!(!below.complete);
        assert_eq!(below.distinct_states, 10, "never exceeds the budget");
    }

    #[test]
    fn depth_bound_limits_exploration() {
        let m = Counter {
            bound: 1_000,
            forbidden: None,
            sink_at: None,
            down: true,
        };
        let r = check(&m, &CheckerConfig::default().with_max_depth(5));
        assert!(!r.complete);
        assert_eq!(r.distinct_states, 6, "depth-5 BFS admits values 0..=5");
    }

    #[test]
    fn dfs_explores_the_same_state_space() {
        let m = Counter {
            bound: 50,
            forbidden: None,
            sink_at: None,
            down: true,
        };
        let bfs = check(&m, &CheckerConfig::default());
        let dfs = check(
            &m,
            &CheckerConfig {
                strategy: Strategy::Dfs,
                ..CheckerConfig::default()
            },
        );
        assert_eq!(bfs.distinct_states, dfs.distinct_states);
        assert!(dfs.passed() && dfs.complete);
    }

    #[test]
    fn state_budget_boundary_pins_count_at_layer_edges() {
        // Budgets straddling BFS layer boundaries of the bits=14 model
        // (cumulative layer sizes 1, 15, 106, 470, 1471): the budget pins
        // the distinct-state count exactly, wherever it falls in a layer.
        let m = BitSpread { bits: 14 };
        for max_states in [14, 15, 16, 105, 106, 107, 470, 1470, 1471, 1472] {
            let r = check(&m, &CheckerConfig::default().with_max_states(max_states));
            assert_eq!(r.distinct_states, max_states, "budget pins the count");
            assert!(!r.complete);
            assert!(r.passed(), "truncation is undetermined, never a violation");
        }
    }

    #[test]
    fn initial_state_violation_has_empty_trace() {
        // The forbidden value is the initial state itself: the violation
        // must be caught before any expansion, with an empty trace.
        let m = Counter {
            bound: 10,
            forbidden: Some(0),
            sink_at: None,
            down: true,
        };
        let r = check(&m, &CheckerConfig::default());
        assert!(!r.passed());
        assert_eq!(r.violations[0].trace.len(), 0);
        assert_eq!(r.transitions, 0);
        assert_eq!(r.distinct_states, 1);
    }
}
