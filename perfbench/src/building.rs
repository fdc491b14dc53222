//! `building`: the building's discovery layer at scale, with the Smart
//! Projector rooms on top. A 3-member replicated registrar cluster on wired
//! links serves a few hundred lease-renewing providers across many service
//! kinds and a set of polling clients (writes beside reads); presenters
//! arrive on a seeded schedule, discover, acquire both sessions, project
//! at the projector's paced 10 fps and release.

use crate::harness::{host_now, sub_seed, Digest, Report, Tracer};
use crate::layers::Layers;
use crate::simrun::{run_until, Case, SimWorkload};
use aroma_discovery::apps::{ClientApp, ProviderApp, ProviderState};
use aroma_discovery::{ClusterConfig, ReplicatedRegistrarApp, ServiceId, ServiceItem, Template};
use aroma_env::radio::RadioEnvironment;
use aroma_env::space::Point;
use aroma_net::{Address, MacConfig, NetApp, NetCtx, Network, NodeConfig, NodeId};
use aroma_sim::telemetry::TelemetryConfig;
use aroma_sim::SimDuration;
use aroma_vnc::SlideDeck;
use bytes::Bytes;
use smart_projector::{PresenterLaptopApp, PresenterScript, SessionPolicy, SmartProjectorApp};
use std::cell::Cell;
use std::rc::Rc;

const REGISTRARS: u32 = 3;
const ROOMS: usize = 3;
const PROVIDERS: usize = 300;
const KINDS: usize = 24;
const CLIENTS: usize = 8;
const PRESENTERS: usize = 12;
/// Presenter arrivals: the first at `FIRST_ARRIVAL`, then one every
/// `ARRIVAL_GAP` plus up to `ARRIVAL_JITTER_MS` of seeded jitter.
const FIRST_ARRIVAL: SimDuration = SimDuration::from_secs(6);
const ARRIVAL_GAP: SimDuration = SimDuration::from_secs(4);
const ARRIVAL_JITTER_MS: u64 = 500;
const PRESENT_FOR: SimDuration = SimDuration::from_millis(2500);
/// Shortest and longest lease a provider requests, ms.
const LEASE_MS: (u64, u64) = (6_000, 10_000);
const SCREEN: (usize, usize) = (640, 480);

/// Host nanoseconds shared by every app a wrapper times.
type Counter = Rc<Cell<u64>>;

/// Forwards every `NetApp` callback to `inner`, adding its host time to a
/// shared counter: per-app callback time for the traced run only.
struct Timed<A> {
    inner: A,
    ns: Counter,
}

impl<A: NetApp> Timed<A> {
    fn time(&mut self, f: impl FnOnce(&mut A)) {
        let t = host_now();
        f(&mut self.inner);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
    }
}

impl<A: NetApp> NetApp for Timed<A> {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.time(|a| a.on_start(ctx));
    }
    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        self.time(|a| a.on_packet(ctx, from, payload));
    }
    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        self.time(|a| a.on_timer(ctx, token));
    }
    fn on_sent(&mut self, ctx: &mut NetCtx<'_>, to: Address) {
        self.time(|a| a.on_sent(ctx, to));
    }
    fn on_send_failed(&mut self, ctx: &mut NetCtx<'_>, to: NodeId, payload: &Bytes) {
        self.time(|a| a.on_send_failed(ctx, to, payload));
    }
    fn on_crash(&mut self, ctx: &mut NetCtx<'_>) {
        self.time(|a| a.on_crash(ctx));
    }
    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.time(|a| a.on_restart(ctx));
    }
}

/// The app on `id`, whether or not the traced run wrapped it.
fn app<T: NetApp>(net: &Network, id: NodeId) -> &T {
    net.app_as::<T>(id)
        .or_else(|| net.app_as::<Timed<T>>(id).map(|t| &t.inner))
        .expect("node runs the expected app")
}

/// The seeded inputs of one building.
pub struct Building {
    seed: u64,
    /// Service kind of each provider.
    kinds: Vec<usize>,
    /// Requested lease of each provider, ms.
    leases: Vec<u64>,
    /// Template kind of each polling client.
    client_kinds: Vec<usize>,
    /// Arrival offset of each presenter.
    arrivals: Vec<SimDuration>,
}

impl Building {
    pub fn new(seed: u64) -> Self {
        let pick = |purpose: u64, i: usize, n: u64| sub_seed(seed, purpose << 32 | i as u64) % n;
        let arrivals = (0..PRESENTERS)
            .map(|p| {
                let jitter = SimDuration::from_millis(pick(4, p, ARRIVAL_JITTER_MS));
                FIRST_ARRIVAL + SimDuration::from_nanos(ARRIVAL_GAP.as_nanos() * p as u64) + jitter
            })
            .collect();
        // Kinds and leases are spread evenly over the providers; the seed
        // only rotates which provider gets which, so every seed renews the
        // same set of lease lengths. Leases are spread over the whole
        // range, as in a building whose devices were not all bought alike,
        // so renewals do not all fall due together.
        let (kind_offset, lease_offset) = (pick(1, 0, KINDS as u64), pick(2, 0, PROVIDERS as u64));
        Building {
            seed,
            kinds: (0..PROVIDERS as u64)
                .map(|i| ((i + kind_offset) % KINDS as u64) as usize)
                .collect(),
            leases: (0..PROVIDERS as u64)
                .map(|i| {
                    let rank = (i + lease_offset) % PROVIDERS as u64;
                    LEASE_MS.0 + rank * (LEASE_MS.1 - LEASE_MS.0) / (PROVIDERS as u64 - 1)
                })
                .collect(),
            client_kinds: (0..CLIENTS)
                .map(|i| pick(3, i, KINDS as u64) as usize)
                .collect(),
            arrivals,
        }
    }
}

fn kind(k: usize) -> String {
    format!("svc/{k:02}")
}

/// A point on a sunflower spiral: `n` nodes spread evenly over a disc of
/// radius `r` metres around the registrars.
fn spot(i: usize, n: usize, r: f64) -> Point {
    let rho = r * ((i as f64 + 0.5) / n as f64).sqrt();
    let theta = i as f64 * 2.399_963_229_728_653;
    Point::new(rho * theta.cos(), rho * theta.sin())
}

pub struct BuildingCase {
    net: Network,
    registrars: Vec<NodeId>,
    projectors: Vec<NodeId>,
    providers: Vec<NodeId>,
    presenters: Vec<NodeId>,
    /// Traced run: host ns in registrar and presenter callbacks.
    timers: Option<(Counter, Counter)>,
}

impl Case for BuildingCase {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }
}

#[derive(Default)]
pub struct Sim {
    time_to_project_ms: Vec<f64>,
}

fn wrap<A: NetApp>(app: A, ns: Option<&Counter>) -> Box<dyn NetApp> {
    match ns {
        Some(ns) => Box::new(Timed {
            inner: app,
            ns: Rc::clone(ns),
        }),
        None => Box::new(app),
    }
}

impl SimWorkload for Building {
    type Case = BuildingCase;
    type Sim = Sim;
    const STEP: SimDuration = SimDuration::from_millis(100);
    const STEPS: usize = 600;
    const BLOCK: usize = 5;

    fn cases(&self) -> usize {
        1
    }

    fn build(&self, _: usize, traced: bool, tr: &mut Tracer) -> Option<BuildingCase> {
        let timers = traced.then(|| (Rc::new(Cell::new(0)), Rc::new(Cell::new(0))));
        let reg_ns = timers.as_ref().map(|t| &t.0);
        let pres_ns = timers.as_ref().map(|t| &t.1);
        let mut case = tr.span("Network::new", |_| {
            let env = RadioEnvironment {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            };
            let mut net = Network::new(env, MacConfig::default(), sub_seed(self.seed, 0));
            if traced {
                net.attach_telemetry(TelemetryConfig::metrics_only());
            }
            let cluster = ClusterConfig::of((0..REGISTRARS).collect());
            let registrars: Vec<NodeId> = (0..REGISTRARS as usize)
                .map(|i| {
                    let at = NodeConfig::at(spot(i, REGISTRARS as usize, 1.0));
                    net.add_node(
                        at,
                        wrap(ReplicatedRegistrarApp::new(cluster.clone()), reg_ns),
                    )
                })
                .collect();
            for (i, &a) in registrars.iter().enumerate() {
                for &b in &registrars[i + 1..] {
                    net.add_wired_link(a, b, SimDuration::from_millis(1), 100_000_000);
                }
            }
            let projectors: Vec<NodeId> = (0..ROOMS)
                .map(|r| {
                    let app = SmartProjectorApp::new(
                        SCREEN.0,
                        SCREEN.1,
                        SessionPolicy::ManualRelease,
                        &format!("room-{r}"),
                    );
                    net.add_node(NodeConfig::at(spot(r, ROOMS, 6.0)), Box::new(app))
                })
                .collect();
            let providers: Vec<NodeId> = (0..PROVIDERS)
                .map(|i| {
                    let item = ServiceItem {
                        id: ServiceId(1_000 + i as u64),
                        kind: kind(self.kinds[i]),
                        attributes: Vec::new(),
                        provider: 0, // filled in by the app at start
                        proxy: Bytes::from_static(b"proxy"),
                    };
                    let app = ProviderApp::new(item, self.leases[i]);
                    net.add_node(NodeConfig::at(spot(i, PROVIDERS, 12.0)), Box::new(app))
                })
                .collect();
            for (i, &k) in self.client_kinds.iter().enumerate() {
                let app = ClientApp::new(Template::of_kind(&kind(k))).polling();
                net.add_node(NodeConfig::at(spot(i, CLIENTS, 8.0)), Box::new(app));
            }
            let presenters: Vec<NodeId> = self
                .arrivals
                .iter()
                .enumerate()
                .map(|(p, &start_after)| {
                    let script = PresenterScript {
                        start_after,
                        present_for: PRESENT_FOR,
                        ..Default::default()
                    };
                    let app = PresenterLaptopApp::new(
                        script,
                        SCREEN.0,
                        SCREEN.1,
                        Box::new(SlideDeck::new(10.0)),
                    );
                    net.add_node(NodeConfig::at(spot(p, PRESENTERS, 4.0)), wrap(app, pres_ns))
                })
                .collect();
            BuildingCase {
                net,
                registrars,
                projectors,
                providers,
                presenters,
                timers: timers.clone(),
            }
        });
        // Warm-up: every provider and both services of every projector
        // hold a lease.
        let (providers, projectors) = (case.providers.clone(), case.projectors.clone());
        let warm = tr.span("Network::run_for", |_| {
            run_until(&mut case.net, |n| {
                providers
                    .iter()
                    .all(|&p| app::<ProviderApp>(n, p).state == ProviderState::Registered)
                    && projectors
                        .iter()
                        .all(|&p| app::<SmartProjectorApp>(n, p).registrations >= 2)
            })
        });
        warm.then_some(case)
    }

    fn finish(
        &self,
        case: &mut BuildingCase,
        sim: &mut Sim,
        digest: &mut Digest,
        layers: Option<&mut Layers>,
    ) -> bool {
        let net = &case.net;
        let now = net.now();
        let mut ok = true;
        // Every presenter reached projecting.
        for (&p, &arrival) in case.presenters.iter().zip(&self.arrivals) {
            let at = app::<PresenterLaptopApp>(net, p).projecting_at;
            ok &= at.is_some();
            let wait = at.map_or(0.0, |t| t.as_secs_f64() - arrival.as_secs_f64());
            sim.time_to_project_ms.push(wait * 1e3);
            digest.word(at.map_or(0, |t| t.as_nanos()));
        }
        // No session was ever hijacked.
        let sessions = |p: NodeId| {
            let a = app::<SmartProjectorApp>(net, p);
            [a.projection_sessions.stats, a.control_sessions.stats]
        };
        let hijacks: u64 = case
            .projectors
            .iter()
            .flat_map(|&p| sessions(p))
            .map(|s| s.hijacks)
            .sum();
        ok &= hijacks == 0;
        // All three replicas answer every lookup alike, and every kind in
        // use is live.
        let replicas: Vec<_> = case
            .registrars
            .iter()
            .map(|&r| {
                app::<ReplicatedRegistrarApp>(net, r)
                    .replica()
                    .expect("registrars started")
            })
            .collect();
        let mut kinds: Vec<String> = self.kinds.iter().map(|&k| kind(k)).collect();
        kinds.extend([
            "projector/display".to_string(),
            "projector/control".to_string(),
        ]);
        kinds.sort();
        kinds.dedup();
        for k in &kinds {
            let t = Template::of_kind(k);
            let answers: Vec<Vec<u64>> = replicas
                .iter()
                .map(|r| r.lookup_live(now, &t).iter().map(|i| i.id.0).collect())
                .collect();
            ok &= !answers[0].is_empty() && answers.iter().all(|a| *a == answers[0]);
            digest.word(answers[0].len() as u64);
        }
        digest.word(replicas[0].commit_index());
        digest.word(net.stats().delivered_bytes);
        if let Some(layers) = layers {
            let stale_before = layers.stale_window_hits();
            layers.absorb_net(net);
            ok &= layers.stale_window_hits() == stale_before;
            let (reg_ns, pres_ns) = case.timers.as_ref().expect("traced cases time their apps");
            layers.registrar_ns += reg_ns.get();
            layers.presenter_ns += pres_ns.get();
            for r in &replicas {
                layers.repl_appends += r.stats.appends_tx;
                layers.repl_applied += r.stats.applied;
                layers.snapshots_taken += r.stats.snapshots_taken;
                layers.snapshot_installs += r.stats.snapshot_installs_rx;
            }
            for &r in &case.registrars {
                layers.lookups += app::<ReplicatedRegistrarApp>(net, r).lookups_served;
            }
            for &p in &case.providers {
                layers.lease_renewals += app::<ProviderApp>(net, p).renewals_completed;
            }
            for s in case.projectors.iter().flat_map(|&p| sessions(p)) {
                layers.acquires += s.acquisitions;
                layers.denials += s.refusals;
                layers.hijacks += s.hijacks;
            }
            for &p in &case.presenters {
                layers.absorb_server(&app::<PresenterLaptopApp>(net, p).vnc);
            }
        }
        ok
    }

    fn sim_metrics(&self, sim: &Sim, report: &mut Report) {
        let median = crate::harness::quantile(&sim.time_to_project_ms, 0.5);
        report.push("sim_time_to_project_ms", median, "ms");
    }
}
