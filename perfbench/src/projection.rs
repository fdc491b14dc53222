//! `projection`: one laptop streams its 640×480 screen over VNC on 802.11b
//! to a projector whose viewer pulls back-to-back (as experiment E1 does).
//! A round covers every pairing of content (slides, bouncing-box animation,
//! noise video) with link arm (2 Mbit/s, 11 Mbit/s, SNR-adaptive).

use crate::harness::{sub_seed, Digest, Report, Tracer};
use crate::layers::Layers;
use crate::simrun::{run_until, Case, SimWorkload};
use aroma_env::radio::RadioEnvironment;
use aroma_env::space::Point;
use aroma_net::{MacConfig, Network, NodeConfig, NodeId, Rate, RateAdaptation};
use aroma_sim::telemetry::TelemetryConfig;
use aroma_sim::SimDuration;
use aroma_vnc::workloads::ScreenSource;
use aroma_vnc::{BouncingBox, NoiseVideo, SlideDeck, VncServerApp, VncViewerApp};

const WIDTH: usize = 640;
const HEIGHT: usize = 480;
const CONTENTS: [&str; 3] = ["slides", "animation", "noise"];
const ARMS: [RateAdaptation; 3] = [
    RateAdaptation::Fixed(Rate::R2),
    RateAdaptation::Fixed(Rate::R11),
    RateAdaptation::SnrBased,
];

pub struct Projection {
    pub seed: u64,
}

pub struct ProjectionCase {
    net: Network,
    server: NodeId,
    viewer: NodeId,
}

impl Case for ProjectionCase {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }
}

/// Per-case simulated outputs of one round.
#[derive(Default)]
pub struct Sim {
    latency_ms: Vec<f64>,
    updates_per_s: Vec<f64>,
}

fn viewer(net: &Network, id: NodeId) -> &VncViewerApp {
    net.app_as::<VncViewerApp>(id)
        .expect("the viewer node runs a VncViewerApp")
}

fn server(net: &Network, id: NodeId) -> &VncServerApp {
    net.app_as::<VncServerApp>(id)
        .expect("the server node runs a VncServerApp")
}

fn geometric_mean(xs: &[f64]) -> f64 {
    let logs: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (logs / xs.len().max(1) as f64).exp()
}

impl SimWorkload for Projection {
    type Case = ProjectionCase;
    type Sim = Sim;
    const STEP: SimDuration = SimDuration::from_millis(5);
    const STEPS: usize = 200;
    const BLOCK: usize = 7;

    fn cases(&self) -> usize {
        CONTENTS.len() * ARMS.len()
    }

    fn build(&self, i: usize, traced: bool, tr: &mut Tracer) -> Option<ProjectionCase> {
        let (content, adapt) = (CONTENTS[i / ARMS.len()], ARMS[i % ARMS.len()]);
        let seed = sub_seed(self.seed, i as u64);
        let source: Box<dyn ScreenSource> = match content {
            "slides" => Box::new(SlideDeck::new(10.0)),
            "animation" => Box::new(BouncingBox::new()),
            _ => Box::new(NoiseVideo::new(10.0, sub_seed(seed, 1))),
        };
        let (mut net, server, viewer_id) = tr.span("Network::new", |_| {
            let env = RadioEnvironment {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            };
            let mut net = Network::new(env, MacConfig::default(), seed);
            if traced {
                net.attach_telemetry(TelemetryConfig::metrics_only());
            }
            let at = |x| NodeConfig {
                adapt,
                ..NodeConfig::at(Point::new(x, 0.0))
            };
            let server = net.add_node(at(0.0), Box::new(VncServerApp::new(WIDTH, HEIGHT, source)));
            let viewer = net.add_node(at(5.0), Box::new(VncViewerApp::new(server, WIDTH, HEIGHT)));
            (net, server, viewer)
        });
        // Warm-up: the first full frame is on the projector.
        let warm = tr.span("Network::run_for", |_| {
            run_until(&mut net, |n| viewer(n, viewer_id).updates_completed >= 1)
        });
        warm.then_some(ProjectionCase {
            net,
            server,
            viewer: viewer_id,
        })
    }

    fn finish(
        &self,
        case: &mut ProjectionCase,
        sim: &mut Sim,
        digest: &mut Digest,
        layers: Option<&mut Layers>,
    ) -> bool {
        // Simulated figures cover the whole case, first frame included, so
        // even the slowest pairing (noise at 2 Mbit/s) has an update.
        let v = viewer(&case.net, case.viewer);
        let latency_ms = v.update_latency.mean() * 1e3;
        sim.latency_ms.push(latency_ms);
        sim.updates_per_s
            .push(v.updates_completed as f64 / case.net.now().as_secs_f64());
        digest.word(v.updates_completed);
        digest.float(latency_ms);
        digest.word(case.net.stats().delivered_bytes);
        if let Some(layers) = layers {
            layers.absorb_net(&case.net);
            layers.absorb_server(server(&case.net, case.server));
            layers.absorb_viewer(viewer(&case.net, case.viewer));
        }
        // Output check: stop the pulls, let the in-flight update land, and
        // the projected frame must equal the laptop's screen.
        let pending = viewer(&case.net, case.viewer).updates_completed;
        case.net
            .app_as_mut::<VncViewerApp>(case.viewer)
            .expect("the viewer node runs a VncViewerApp")
            .target_fps = Some(1e-6);
        let (s, vid) = (case.server, case.viewer);
        let settled = run_until(&mut case.net, |n| {
            let v = viewer(n, vid);
            v.updates_completed > pending && v.screen_digest() == server(n, s).screen_digest()
        });
        digest.word(viewer(&case.net, case.viewer).screen_digest());
        settled
    }

    fn sim_metrics(&self, sim: &Sim, report: &mut Report) {
        report.push(
            "sim_update_latency_ms",
            geometric_mean(&sim.latency_ms),
            "ms",
        );
        report.push(
            "sim_updates_per_s",
            geometric_mean(&sim.updates_per_s),
            "1/s",
        );
    }
}
