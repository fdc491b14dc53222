//! # aroma-check — explicit-state model checking for the Aroma protocols
//!
//! The paper's headline safety claim at the Abstract layer is behavioural:
//! *session objects prevent hijack* of the projector's services, and *Jini
//! leases keep the lookup service consistent* when providers vanish. Unit
//! and property tests sample those claims; this crate **proves them over
//! every interleaving** within explicit bounds, in the style of
//! `stateright`/`loom`: a [`model::Model`] trait (initial states, enabled
//! actions, deterministic step, properties), BFS/DFS exploration with
//! canonical-key deduplication and symmetry reduction
//! ([`explore::check`]), and shortest-path counterexample traces when a
//! property breaks.
//!
//! Two production models ship with the engine — they *drive the real
//! implementations*, not re-writes of them:
//!
//! * [`session_model::SessionModel`] steps two real
//!   `smart_projector::session::SessionManager`s (projection + control,
//!   exactly as the Aroma Adapter guards them) under N users issuing
//!   acquire/touch/release/depart, clock advances, and an adversary that
//!   replays stale tokens, guesses sequential neighbours of observed
//!   tokens, and cross-applies tokens between services. Proved: no-hijack,
//!   at-most-one-owner, and (as a bounded AG EF property) that the
//!   services can always be recovered — the paper's "forgetful presenter"
//!   lockout appears as a counterexample the moment manual-release policy
//!   meets an owner who leaves the room.
//! * [`lease_model::LeaseModel`] steps a real
//!   `aroma_discovery::registry::ServiceRegistry` under two providers
//!   whose register/renew/unregister requests travel a duplicating,
//!   reordering channel, plus crash and expiry-tick actions. Proved:
//!   no-stale-lookup (the production `lookup_live` path never serves a
//!   lapsed lease), renewal monotonicity, registry/spec refinement (the
//!   table always equals an independently-computed ghost spec), and
//!   subscriber event consistency (register/expire/unregister events
//!   alternate legally per service).
//! * [`replication_model::ReplModel`] steps a cluster of real
//!   `aroma_discovery::ReplicaNode`s (the PR 9 replicated-registrar core)
//!   under client churn, message reordering and loss, process
//!   crash/restore from the durable blob, and epoch elections. Proved:
//!   at-most-one-active-primary (per epoch and per instant — the serving
//!   lease), no-committed-lease-lost (every committed entry survives
//!   crash, failover, and snapshot-install rejoin), and no-stale-lookup
//!   (a serving node's table refines the ghost committed log exactly).
//!
//! Run `cargo run --release --example model_check` for the exhaustive
//! sweep and a demonstration counterexample, or `--smoke` for the CI
//! gate; see DESIGN.md §"Model checking the Abstract layer" for how each
//! invariant maps to the paper's cross-layer relations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod lease_model;
pub mod model;
pub mod replication_model;
pub mod session_model;

pub use explore::{check, CheckReport, CheckerConfig, Strategy, Violation};
pub use lease_model::{LeaseConfig, LeaseModel};
pub use model::{Model, Property, PropertyKind};
pub use replication_model::{AnyNodeServes, ReplConfig, ReplModel};
pub use session_model::{SessionConfig, SessionModel};
