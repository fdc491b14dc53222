//! `spectrum`: saturated sender→receiver pairs with no application work at
//! all, so only the radio, MAC and event loop cost host time. A round covers
//! the co-channel plan and the 1/6/11 plan, each at the smallest (100 B) and
//! a full-size (1500 B) frame.

use crate::harness::{sub_seed, Digest, Report, Tracer};
use crate::layers::Layers;
use crate::simrun::{Case, SimWorkload};
use aroma_env::radio::{Channel, RadioEnvironment};
use aroma_env::space::Point;
use aroma_net::traffic::{CountingSink, SaturatedSource};
use aroma_net::{Address, MacConfig, Network, NodeConfig, NodeId};
use aroma_sim::telemetry::TelemetryConfig;
use aroma_sim::SimDuration;

const PAIRS: usize = 48;
const FRAMES: [usize; 2] = [100, 1500];
/// Saturated queues fill within this much simulated time.
const WARM_UP: SimDuration = SimDuration::from_millis(200);

pub struct Spectrum {
    pub seed: u64,
}

pub struct SpectrumCase {
    net: Network,
    sinks: Vec<NodeId>,
}

impl SpectrumCase {
    fn sink_bytes(&self) -> u64 {
        self.sinks
            .iter()
            .map(|&s| {
                self.net
                    .app_as::<CountingSink>(s)
                    .expect("sinks run CountingSink")
                    .bytes
            })
            .sum()
    }
}

impl Case for SpectrumCase {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Every byte the network delivered reached a sink, and no more.
    fn op_ok(&mut self) -> bool {
        self.sink_bytes() == self.net.stats().delivered_bytes
    }
}

#[derive(Default)]
pub struct Sim {
    goodput_mbps: Vec<f64>,
}

impl SimWorkload for Spectrum {
    type Case = SpectrumCase;
    type Sim = Sim;
    const STEP: SimDuration = SimDuration::from_millis(5);
    const STEPS: usize = 200;
    const BLOCK: usize = 17;

    fn cases(&self) -> usize {
        2 * FRAMES.len()
    }

    fn build(&self, i: usize, traced: bool, tr: &mut Tracer) -> Option<SpectrumCase> {
        let cochannel = i / FRAMES.len() == 0;
        let frame = FRAMES[i % FRAMES.len()];
        let mut net = tr.span("Network::new", |_| {
            let env = RadioEnvironment {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            };
            Network::new(env, MacConfig::default(), sub_seed(self.seed, i as u64))
        });
        if traced {
            net.attach_telemetry(TelemetryConfig::metrics_only());
        }
        // Receivers ring the centre at 1 m and senders sit on a 5 m circle,
        // so interferers rival the signal and collisions destroy frames.
        let mut sinks = Vec::with_capacity(PAIRS);
        for p in 0..PAIRS {
            let channel = if cochannel {
                Channel::CH6
            } else {
                Channel::ORTHOGONAL[p % 3]
            };
            let (s, c) = (p as f64 / PAIRS as f64 * std::f64::consts::TAU).sin_cos();
            let rx = net.add_node(
                NodeConfig::at_on(Point::new(c, s), channel),
                Box::<CountingSink>::default(),
            );
            let tx = NodeConfig::at_on(Point::new(5.0 * c, 5.0 * s), channel);
            net.add_node(tx, Box::new(SaturatedSource::new(Address::Node(rx), frame)));
            sinks.push(rx);
        }
        tr.span("Network::run_for", |_| net.run_for(WARM_UP));
        Some(SpectrumCase { net, sinks })
    }

    fn finish(
        &self,
        case: &mut SpectrumCase,
        sim: &mut Sim,
        digest: &mut Digest,
        layers: Option<&mut Layers>,
    ) -> bool {
        let bytes = case.sink_bytes();
        sim.goodput_mbps
            .push(bytes as f64 * 8.0 / case.net.now().as_secs_f64() / 1e6);
        digest.word(bytes);
        digest.word(case.net.stats().total_tx_attempts());
        digest.word(case.net.stats().total_retry_drops());
        if let Some(layers) = layers {
            layers.absorb_net(&case.net);
        }
        case.op_ok()
    }

    fn sim_metrics(&self, sim: &Sim, report: &mut Report) {
        let mean = sim.goodput_mbps.iter().sum::<f64>() / sim.goodput_mbps.len().max(1) as f64;
        report.push("sim_goodput_mbps", mean, "Mbit/s");
    }
}
