//! `check()` against a reference: for random small transition systems the
//! explorer's report must match a plain BFS written here — distinct
//! states, transitions, the complete flag, which states violate an AG EF
//! property and which are undetermined, and the shortest safety trace.
//!
//! The reference computes liveness by forward fixpoint iteration ("a
//! state is good if it is a goal or has a good successor"), not by the
//! checker's reverse marking, so the two formulations check each other.
//! Random state budgets and depth bounds deliberately land on the
//! truncation boundaries.

use aroma_check::{check, CheckReport, CheckerConfig};
use aroma_check::{Model, Property, PropertyKind};
use proptest::prelude::*;

/// An arbitrary finite transition system: `n` states, explicit edge list
/// (the action *is* the edge index, so action order is deterministic),
/// a forbidden-state bitmask (safety) and a goal bitmask (AG EF).
#[derive(Debug, Clone)]
struct Digraph {
    n: u8,
    edges: Vec<(u8, u8)>,
    inits: Vec<u8>,
    forbidden: u16,
    goal: u16,
}

impl Model for Digraph {
    type State = u8;
    type Action = usize;
    type Key = u8;

    fn initial_states(&self) -> Vec<u8> {
        self.inits.iter().map(|i| i % self.n).collect()
    }

    fn actions(&self, state: &u8, out: &mut Vec<usize>) {
        for (i, &(from, _)) in self.edges.iter().enumerate() {
            if from % self.n == *state {
                out.push(i);
            }
        }
    }

    fn step(&self, _state: &u8, action: &usize) -> Option<u8> {
        Some(self.edges[*action].1 % self.n)
    }

    fn key(&self, state: &u8) -> u8 {
        *state
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property {
                name: "no-forbidden-state",
                kind: PropertyKind::Always,
                check: |m, s| m.forbidden & (1u16 << s) == 0,
            },
            Property {
                name: "goal-always-reachable",
                kind: PropertyKind::AlwaysEventually,
                check: |m, s| m.goal & (1u16 << s) != 0,
            },
        ]
    }
}

/// What the reference BFS established, per state (indexed by state id).
struct Reference {
    /// States in admission order.
    order: Vec<u8>,
    /// `(parent, action)` of each admitted non-initial state.
    parent: [Option<(u8, usize)>; 16],
    depth: [u32; 16],
    transitions: u64,
    complete: bool,
    /// Explored successors of each admitted state.
    succs: [Vec<u8>; 16],
    /// Every successor was generated and admitted (or already known).
    expanded: [bool; 16],
}

impl Reference {
    /// Breadth-first search under the checker's bounds: initial states
    /// bypass the state budget, nodes at `max_depth` stay unexpanded, and
    /// a novel successor past the budget is dropped.
    fn bfs(m: &Digraph, max_states: usize, max_depth: u32) -> Self {
        let mut r = Reference {
            order: Vec::new(),
            parent: [None; 16],
            depth: [0; 16],
            transitions: 0,
            complete: true,
            succs: Default::default(),
            expanded: [false; 16],
        };
        let mut seen = [false; 16];
        for s in m.initial_states() {
            if !seen[s as usize] {
                seen[s as usize] = true;
                r.order.push(s);
            }
        }
        let mut next = 0;
        while next < r.order.len() {
            let s = r.order[next];
            next += 1;
            if r.depth[s as usize] >= max_depth {
                r.complete = false;
                continue;
            }
            let mut full = true;
            for (a, &(from, to)) in m.edges.iter().enumerate() {
                if from % m.n != s {
                    continue;
                }
                r.transitions += 1;
                let t = to % m.n;
                if !seen[t as usize] {
                    if r.order.len() >= max_states {
                        full = false;
                        r.complete = false;
                        continue;
                    }
                    seen[t as usize] = true;
                    r.parent[t as usize] = Some((s, a));
                    r.depth[t as usize] = r.depth[s as usize] + 1;
                    r.order.push(t);
                }
                r.succs[s as usize].push(t);
            }
            r.expanded[s as usize] = full;
        }
        r
    }

    /// Admitted states satisfying `base`, closed under "has a successor
    /// in the set" — iterated forward to a fixpoint.
    fn closure(&self, base: impl Fn(u8) -> bool) -> [bool; 16] {
        let mut set = [false; 16];
        for &s in &self.order {
            set[s as usize] = base(s);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &s in &self.order {
                if !set[s as usize] && self.succs[s as usize].iter().any(|&t| set[t as usize]) {
                    set[s as usize] = true;
                    changed = true;
                }
            }
        }
        set
    }

    fn trace_to(&self, mut s: u8) -> Vec<usize> {
        let mut rev = Vec::new();
        while let Some((p, a)) = self.parent[s as usize] {
            rev.push(a);
            s = p;
        }
        rev.reverse();
        rev
    }
}

/// Compare a report from a model without reachable forbidden states to
/// the reference under the same bounds.
fn assert_matches_reference(m: &Digraph, report: &CheckReport<Digraph>, r: &Reference) {
    prop_assert_eq!(report.distinct_states, r.order.len(), "distinct states");
    prop_assert_eq!(report.transitions, r.transitions, "transitions");
    prop_assert_eq!(report.complete, r.complete, "complete flag");
    let max_depth = r
        .order
        .iter()
        .map(|&s| r.depth[s as usize])
        .max()
        .unwrap_or(0);
    prop_assert_eq!(report.max_depth_reached, max_depth, "max depth");

    let good = r.closure(|s| m.goal & (1u16 << s) != 0);
    let unknown = r.closure(|s| !r.expanded[s as usize]);
    let bad: Vec<u8> = r
        .order
        .iter()
        .copied()
        .filter(|&s| !good[s as usize])
        .collect();
    let undetermined = bad.iter().filter(|&&s| unknown[s as usize]).count();
    prop_assert_eq!(report.undetermined, undetermined, "undetermined");

    // Definite violators, shallowest first (admission order breaks ties).
    let mut violators: Vec<u8> = bad.into_iter().filter(|&s| !unknown[s as usize]).collect();
    violators.sort_by_key(|&s| r.depth[s as usize]);
    match violators.first() {
        None => prop_assert!(report.passed(), "no AG EF violator exists"),
        Some(&worst) => {
            prop_assert_eq!(report.violations.len(), 1);
            let v = &report.violations[0];
            prop_assert_eq!(v.kind, PropertyKind::AlwaysEventually);
            prop_assert_eq!(v.end_state, worst, "shallowest definite violator");
            prop_assert_eq!(&v.trace, &r.trace_to(worst));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unbounded (relative to model size) exploration: the fixpoint, the
    /// transition count and the AG EF verdict match the reference, and
    /// nothing is undetermined.
    #[test]
    fn check_matches_reference_at_fixpoint(
        n in 1u8..12,
        edges in prop::collection::vec((0u8..12, 0u8..12), 0..40),
        inits in prop::collection::vec(0u8..12, 1..4),
        goal in any::<u16>(),
    ) {
        let m = Digraph { n, edges, inits, forbidden: 0, goal };
        let report = check(&m, &CheckerConfig::default());
        let r = Reference::bfs(&m, usize::MAX, u32::MAX);
        prop_assert!(report.complete);
        prop_assert_eq!(report.undetermined, 0);
        assert_matches_reference(&m, &report, &r);
    }

    /// Tight random state budgets and depth bounds: truncated regions must
    /// be filed as undetermined, never as violations, exactly where the
    /// reference says a path to the goal may have been cut.
    #[test]
    fn check_matches_reference_under_bounds(
        n in 1u8..12,
        edges in prop::collection::vec((0u8..12, 0u8..12), 0..40),
        inits in prop::collection::vec(0u8..12, 1..4),
        goal in any::<u16>(),
        max_states in 1usize..12,
        max_depth in 0u32..6,
    ) {
        let m = Digraph { n, edges, inits, forbidden: 0, goal };
        let cfg = CheckerConfig::default()
            .with_max_states(max_states)
            .with_max_depth(max_depth);
        let report = check(&m, &cfg);
        let r = Reference::bfs(&m, max_states, max_depth);
        prop_assert!(report.distinct_states <= max_states.max(m.initial_states().len()));
        assert_matches_reference(&m, &report, &r);
    }

    /// A reachable forbidden state stops the sweep with the shortest
    /// trace: the first forbidden state in BFS admission order, reached
    /// along its first-discovered parents.
    #[test]
    fn check_stops_at_shortest_safety_trace(
        n in 1u8..12,
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
        inits in prop::collection::vec(0u8..12, 1..4),
        forbidden in any::<u16>(),
        goal in any::<u16>(),
    ) {
        let m = Digraph { n, edges, inits, forbidden, goal };
        let r = Reference::bfs(&m, usize::MAX, u32::MAX);
        let first_bad = r.order.iter().copied().find(|&s| forbidden & (1u16 << s) != 0);
        prop_assume!(first_bad.is_some());
        let bad = first_bad.unwrap();
        let report = check(&m, &CheckerConfig::default());
        prop_assert!(!report.complete);
        prop_assert_eq!(report.violations.len(), 1, "stops at the first safety violation");
        let v = &report.violations[0];
        prop_assert_eq!(v.property, "no-forbidden-state");
        prop_assert_eq!(v.kind, PropertyKind::Always);
        prop_assert_eq!(v.end_state, bad);
        prop_assert_eq!(&v.trace, &r.trace_to(bad));
        prop_assert_eq!(v.trace.len() as u32, r.depth[bad as usize], "trace is shortest");
    }
}
