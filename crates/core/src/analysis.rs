//! The LPC analysis engine.
//!
//! Reproduces what the paper does by hand in its *"Analysis of a Pervasive
//! Computing System"* section: take a composed system — an environment,
//! devices, users, and who-uses-what bindings — and classify every issue
//! into its proper layer. The checks are exactly the figures' relations:
//!
//! * Environment: every physical entity (device **and** user) *must be
//!   compatible with* the environment; radio and acoustic conditions are
//!   first-class.
//! * Physical: device I/O hardware *must be compatible with* the user's
//!   body; bandwidth and proximity constraints live here.
//! * Resource: user faculties *must not be frustrated by* the device's
//!   logical resources; external dependencies ("relies on having a Jini
//!   lookup service present") are resource assumptions.
//! * Abstract: the user's mental model *must be consistent with* the
//!   application — checked statically (divergence) and dynamically (a
//!   simulated session).
//! * Intentional: the design purpose *must be in harmony with* the user's
//!   goals.

use crate::faculty::UserProfile;
use crate::intent::{harmony, DesignPurpose, UserGoals};
use crate::layer::Layer;
use crate::mental::{divergence, StateMachine};
use crate::resources::{frustration_check, DeviceResources, Frustration};
use crate::user_sim::{simulate_session, PlannerKind, SessionParams};
use aroma_appliance::{DeviceProfile, UiClass};
use aroma_env::acoustics::recognition_accuracy;
use aroma_env::space::Point;
use aroma_env::Environment;
use aroma_sim::report::{Json, Table};
use aroma_sim::SimRng;

/// How serious an issue is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth recording; no user-visible harm.
    Info,
    /// Degrades the experience or narrows the audience.
    Advisory,
    /// Defeats the system for some users or conditions.
    Serious,
    /// Defeats the system outright for this binding.
    Blocking,
}

impl Severity {
    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Advisory => "advisory",
            Severity::Serious => "serious",
            Severity::Blocking => "blocking",
        }
    }
}

/// One classified finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Issue {
    /// The layer the issue belongs to — the model's whole point.
    pub layer: Layer,
    /// Severity.
    pub severity: Severity,
    /// Which entity or pairing it concerns.
    pub subject: String,
    /// What is wrong.
    pub description: String,
}

/// An application running on a device.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Name for reports.
    pub name: String,
    /// The software logic (ground truth for the abstract layer).
    pub machine: StateMachine,
    /// Initial state.
    pub start: String,
    /// The state accomplishing the user's task.
    pub goal: String,
    /// The app exposes a voice interface.
    pub uses_voice: bool,
    /// The user must stay within this range of some hardware to use it.
    pub proximity_constraint_m: Option<f64>,
    /// Sustained bandwidth the app needs to feel right, bits/s.
    pub needs_bandwidth_bps: Option<f64>,
    /// Things the app silently counts on existing ("Jini lookup service").
    pub external_dependencies: Vec<String>,
    /// What the design is for.
    pub purpose: DesignPurpose,
}

/// A device in the composed system.
#[derive(Clone, Debug)]
pub struct DeviceEntity {
    /// Name for reports.
    pub name: String,
    /// Hardware (physical layer + environmental envelope).
    pub profile: DeviceProfile,
    /// Logical resources (None for dumb hardware like the bare projector).
    pub resources: Option<DeviceResources>,
    /// Application hosted on the device (if any).
    pub application: Option<AppSpec>,
    /// Sustained link bandwidth actually available to it, bits/s.
    pub link_bandwidth_bps: Option<f64>,
    /// Where it sits in the floor plan.
    pub position: Point,
}

/// A user driving a device's application.
#[derive(Clone, Debug)]
pub struct Binding {
    /// Index into [`PervasiveSystem::users`].
    pub user: usize,
    /// Index into [`PervasiveSystem::devices`].
    pub device: usize,
    /// The user's goals at the intentional layer.
    pub goals: UserGoals,
    /// The user's prior mental model of the application.
    pub belief: StateMachine,
}

/// A composed pervasive computing system, ready for analysis.
#[derive(Debug)]
pub struct PervasiveSystem {
    /// Name for reports.
    pub name: String,
    /// The environment everything sits in.
    pub environment: Environment,
    /// The people.
    pub users: Vec<UserProfile>,
    /// The hardware/software entities.
    pub devices: Vec<DeviceEntity>,
    /// Who uses what.
    pub bindings: Vec<Binding>,
}

/// The analysis output: the paper's section, as data.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Every classified issue.
    pub issues: Vec<Issue>,
}

impl AnalysisReport {
    /// Issues in one layer.
    pub fn in_layer(&self, layer: Layer) -> impl Iterator<Item = &Issue> {
        self.issues.iter().filter(move |i| i.layer == layer)
    }

    /// Count per layer, bottom-up.
    pub fn layer_counts(&self) -> Vec<(Layer, usize)> {
        Layer::ALL
            .iter()
            .map(|&l| (l, self.in_layer(l).count()))
            .collect()
    }

    /// Most severe issue present (None if the report is clean).
    pub fn worst(&self) -> Option<Severity> {
        self.issues.iter().map(|i| i.severity).max()
    }

    /// Render as an aligned table, most severe first within each layer,
    /// layers bottom-up (the order the paper walks them in reverse).
    pub fn render(&self) -> String {
        let mut t = Table::new(&["layer", "severity", "subject", "issue"]);
        let mut sorted = self.issues.clone();
        sorted.sort_by(|a, b| {
            a.layer
                .cmp(&b.layer)
                .then(b.severity.cmp(&a.severity))
                .then(a.subject.cmp(&b.subject))
        });
        for i in &sorted {
            t.row(&[
                i.layer.name().to_string(),
                i.severity.label().to_string(),
                i.subject.clone(),
                i.description.clone(),
            ]);
        }
        t.render()
    }

    /// JSON for archival.
    pub fn json(&self) -> Json {
        Json::Arr(
            self.issues
                .iter()
                .map(|i| {
                    Json::obj(vec![
                        ("layer", i.layer.name().into()),
                        ("severity", i.severity.label().into()),
                        ("subject", i.subject.as_str().into()),
                        ("description", i.description.as_str().into()),
                    ])
                })
                .collect(),
        )
    }
}

impl PervasiveSystem {
    /// Run the full five-layer analysis. Deterministic given `seed` (the
    /// abstract-layer session simulation draws exploration randomness).
    pub fn analyze(&self, seed: u64) -> AnalysisReport {
        let mut report = AnalysisReport::default();
        self.check_environment(&mut report);
        self.check_physical(&mut report);
        self.check_resource(&mut report);
        self.check_abstract(&mut report, seed);
        self.check_intentional(&mut report);
        report
    }

    /// [`analyze`](Self::analyze) plus **measured** resource-layer
    /// evidence: a telemetry snapshot from an instrumented run backs the
    /// static resource checks with what the network actually did — frames
    /// dropped at full queues or after the retry limit, and retry / ACK
    /// -timeout pressure short of outright loss.
    pub fn analyze_with_metrics(
        &self,
        seed: u64,
        metrics: Option<&aroma_sim::telemetry::Snapshot>,
    ) -> AnalysisReport {
        let mut report = self.analyze(seed);
        if let Some(snap) = metrics {
            self.check_measured_resource(snap, &mut report);
        }
        report
    }

    fn check_measured_resource(
        &self,
        snap: &aroma_sim::telemetry::Snapshot,
        report: &mut AnalysisReport,
    ) {
        let queue_drops = snap.counter("net.mac.drop.queue_full");
        if queue_drops > 0 {
            report.issues.push(Issue {
                layer: Layer::Resource,
                severity: Severity::Serious,
                subject: "wireless MAC (measured)".into(),
                description: format!(
                    "{queue_drops} frame(s) dropped at full transmit queues — offered load exceeds the link's capacity"
                ),
            });
        }
        let retry_drops = snap.counter("net.mac.drop.retry_limit");
        if retry_drops > 0 {
            report.issues.push(Issue {
                layer: Layer::Resource,
                severity: Severity::Serious,
                subject: "wireless MAC (measured)".into(),
                description: format!(
                    "{retry_drops} frame(s) abandoned after the retry limit — contention or interference defeats delivery"
                ),
            });
        }
        let attempts = snap.counter("net.mac.tx_attempts");
        let retries = snap.counter("net.mac.retries");
        if attempts > 0 {
            let rate = retries as f64 / attempts as f64;
            if rate > 0.25 {
                report.issues.push(Issue {
                    layer: Layer::Resource,
                    severity: Severity::Advisory,
                    subject: "wireless MAC (measured)".into(),
                    description: format!(
                        "{:.0}% of transmissions needed a retry ({retries}/{attempts}) — the shared medium is congested",
                        rate * 100.0
                    ),
                });
            }
        }
        if snap.trace_dropped > 0 {
            report.issues.push(Issue {
                layer: Layer::Resource,
                severity: Severity::Info,
                subject: "telemetry".into(),
                description: format!(
                    "trace ring overflowed; {} event(s) dropped (metrics unaffected)",
                    snap.trace_dropped
                ),
            });
        }
    }

    fn check_environment(&self, report: &mut AnalysisReport) {
        let climate = &self.environment.climate;
        for d in &self.devices {
            for v in d.profile.operating_range.violations(climate) {
                report.issues.push(Issue {
                    layer: Layer::Environment,
                    severity: Severity::Serious,
                    subject: d.name.clone(),
                    description: format!("{v} in {}", self.environment.name),
                });
            }
        }
        for u in &self.users {
            for v in u.physical.comfort.violations(climate) {
                report.issues.push(Issue {
                    layer: Layer::Environment,
                    severity: Severity::Advisory,
                    subject: u.name.clone(),
                    description: format!("user discomfort: {v} in {}", self.environment.name),
                });
            }
        }
        // Crowded 2.4 GHz band hits every networked device.
        let rise = self.environment.radio.ambient_noise_rise_db;
        if rise > 2.0 {
            for d in self.devices.iter().filter(|d| d.profile.has_network) {
                report.issues.push(Issue {
                    layer: Layer::Environment,
                    severity: Severity::Advisory,
                    subject: d.name.clone(),
                    description: format!(
                        "2.4 GHz band congestion (+{rise:.0} dB noise rise) degrades the wireless link"
                    ),
                });
            }
        }
        // Voice interfaces against the acoustic and social environment.
        for d in &self.devices {
            let Some(app) = &d.application else { continue };
            if !app.uses_voice {
                continue;
            }
            if !self.environment.acoustics.social.voice_appropriate() {
                report.issues.push(Issue {
                    layer: Layer::Environment,
                    severity: Severity::Serious,
                    subject: format!("{} voice UI", d.name),
                    description: format!(
                        "speaking aloud is socially inappropriate in {}",
                        self.environment.name
                    ),
                });
            }
            // A user ~0.5 m from their device.
            let talker = d.position;
            let mic = Point::new(d.position.x + 0.5, d.position.y);
            let snr = self.environment.acoustics.speech_snr_db(talker, mic);
            let acc = recognition_accuracy(snr);
            if acc < 0.85 {
                report.issues.push(Issue {
                    layer: Layer::Environment,
                    severity: Severity::Serious,
                    subject: format!("{} voice UI", d.name),
                    description: format!(
                        "background noise in {} drops recognition to {:.0}%",
                        self.environment.name,
                        acc * 100.0
                    ),
                });
            }
        }
    }

    fn check_physical(&self, report: &mut AnalysisReport) {
        for b in &self.bindings {
            let user = &self.users[b.user];
            let device = &self.devices[b.device];
            let body = &user.physical;
            let subject = format!("{} ↔ {}", user.name, device.name);
            let ui_ok = match device.profile.ui {
                UiClass::Headless => true,
                UiClass::ButtonsAndLeds => body.vision >= 0.3,
                UiClass::StylusTouch => body.vision >= 0.4 && body.dexterity >= 0.4,
                UiClass::FullDesktop => body.vision >= 0.4 && body.dexterity >= 0.3,
            };
            if !ui_ok {
                report.issues.push(Issue {
                    layer: Layer::Physical,
                    severity: Severity::Blocking,
                    subject: subject.clone(),
                    description: format!(
                        "{:?} interface is physically unusable for this user (vision {:.1}, dexterity {:.1})",
                        device.profile.ui, body.vision, body.dexterity
                    ),
                });
            }
            if let Some(app) = &device.application {
                if app.uses_voice && !body.can_speak {
                    report.issues.push(Issue {
                        layer: Layer::Physical,
                        severity: Severity::Blocking,
                        subject: subject.clone(),
                        description: "voice interface requires speech the user cannot produce"
                            .into(),
                    });
                }
                if let Some(range) = app.proximity_constraint_m {
                    report.issues.push(Issue {
                        layer: Layer::Physical,
                        severity: Severity::Advisory,
                        subject: subject.clone(),
                        description: format!(
                            "user is physically constrained to stay within {range:.1} m of the controlling hardware"
                        ),
                    });
                }
                if let (Some(need), Some(have)) =
                    (app.needs_bandwidth_bps, device.link_bandwidth_bps)
                {
                    if need > have {
                        report.issues.push(Issue {
                            layer: Layer::Physical,
                            severity: Severity::Serious,
                            subject: subject.clone(),
                            description: format!(
                                "link bandwidth {:.1} Mbit/s cannot carry the {:.1} Mbit/s the application needs (rapid animation will not display)",
                                have / 1e6,
                                need / 1e6
                            ),
                        });
                    }
                }
            }
        }
    }

    fn check_resource(&self, report: &mut AnalysisReport) {
        for b in &self.bindings {
            let user = &self.users[b.user];
            let device = &self.devices[b.device];
            let subject = format!("{} ↔ {}", user.name, device.name);
            if let Some(res) = &device.resources {
                for f in frustration_check(&user.faculties, res) {
                    let severity = match f {
                        Frustration::NoSharedLanguage => Severity::Blocking,
                        Frustration::AdminBurden | Frustration::Unresponsive => Severity::Serious,
                        _ => Severity::Advisory,
                    };
                    report.issues.push(Issue {
                        layer: Layer::Resource,
                        severity,
                        subject: subject.clone(),
                        description: f.to_string(),
                    });
                }
            }
            if let Some(app) = &device.application {
                for dep in &app.external_dependencies {
                    report.issues.push(Issue {
                        layer: Layer::Resource,
                        severity: Severity::Advisory,
                        subject: device.name.clone(),
                        description: format!("counts on {dep} being present and healthy"),
                    });
                }
            }
        }
    }

    fn check_abstract(&self, report: &mut AnalysisReport, seed: u64) {
        for (i, b) in self.bindings.iter().enumerate() {
            let user = &self.users[b.user];
            let device = &self.devices[b.device];
            let Some(app) = &device.application else {
                continue;
            };
            let subject = format!("{} ↔ {}", user.name, app.name);
            let d = divergence(&b.belief, &app.machine);
            if d.gap() > 0.25 {
                report.issues.push(Issue {
                    layer: Layer::Abstract,
                    severity: Severity::Serious,
                    subject: subject.clone(),
                    description: format!(
                        "mental model inconsistent with the application ({} missing/wrong, {} false beliefs; gap {:.0}%)",
                        d.missing_or_wrong,
                        d.false_beliefs,
                        d.gap() * 100.0
                    ),
                });
            }
            let mut rng = SimRng::new(seed).fork(i as u64);
            let session = simulate_session(
                &user.faculties,
                &b.belief,
                &app.machine,
                &app.start,
                &app.goal,
                PlannerKind::Bfs,
                &SessionParams::default(),
                &mut rng,
            );
            if session.gave_up {
                report.issues.push(Issue {
                    layer: Layer::Abstract,
                    severity: Severity::Blocking,
                    subject: subject.clone(),
                    description: format!(
                        "user abandons the task (frustration {:.2} after {} steps, {} surprises)",
                        session.frustration, session.steps, session.surprises
                    ),
                });
            } else if session.surprises > 2 {
                report.issues.push(Issue {
                    layer: Layer::Abstract,
                    severity: Severity::Advisory,
                    subject: subject.clone(),
                    description: format!(
                        "task succeeds but costs {} surprises over {} steps (conceptual burden {:.2})",
                        session.surprises,
                        session.steps,
                        session.burden()
                    ),
                });
            }
        }
    }

    fn check_intentional(&self, report: &mut AnalysisReport) {
        for b in &self.bindings {
            let user = &self.users[b.user];
            let device = &self.devices[b.device];
            let Some(app) = &device.application else {
                continue;
            };
            let h = harmony(&b.goals, &app.purpose);
            let subject = format!("{} ↔ {}", user.name, app.name);
            if h < 0.5 {
                report.issues.push(Issue {
                    layer: Layer::Intentional,
                    severity: Severity::Serious,
                    subject,
                    description: format!(
                        "design purpose '{}' is not in harmony with goals '{}' (harmony {h:.2})",
                        app.purpose.name, b.goals.name
                    ),
                });
            } else if h < 0.75 {
                report.issues.push(Issue {
                    layer: Layer::Intentional,
                    severity: Severity::Advisory,
                    subject,
                    description: format!(
                        "partial harmony between '{}' and goals '{}' ({h:.2})",
                        app.purpose.name, b.goals.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_appliance::DeviceClass;
    use aroma_env::{EnvironmentKind, EnvironmentProfile};

    fn simple_app(uses_voice: bool) -> AppSpec {
        AppSpec {
            name: "test app".into(),
            machine: StateMachine::new().with("idle", "go", "done"),
            start: "idle".into(),
            goal: "done".into(),
            uses_voice,
            proximity_constraint_m: None,
            needs_bandwidth_bps: None,
            external_dependencies: vec![],
            purpose: DesignPurpose::commercial_product(),
        }
    }

    fn device(app: Option<AppSpec>) -> DeviceEntity {
        DeviceEntity {
            name: "adapter".into(),
            profile: DeviceProfile::of(DeviceClass::AromaAdapter),
            resources: Some(DeviceResources::commercial_grade()),
            application: app,
            link_bandwidth_bps: Some(6e6),
            position: Point::new(0.0, 0.0),
        }
    }

    fn system(env: EnvironmentKind, users: Vec<UserProfile>, devices: Vec<DeviceEntity>, bindings: Vec<Binding>) -> PervasiveSystem {
        PervasiveSystem {
            name: "test system".into(),
            environment: EnvironmentProfile::preset(env).build(),
            users,
            devices,
            bindings,
        }
    }

    fn binding(user: usize, device: usize, belief: StateMachine) -> Binding {
        Binding {
            user,
            device,
            goals: UserGoals::casual(),
            belief,
        }
    }

    #[test]
    fn clean_system_has_no_blocking_issues() {
        let app = simple_app(false);
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::casual()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        assert!(
            r.worst().unwrap_or(Severity::Info) < Severity::Serious,
            "{}",
            r.render()
        );
    }

    #[test]
    fn measured_drops_surface_as_resource_issues() {
        use aroma_sim::telemetry::{Telemetry, TelemetryConfig};
        let app = simple_app(false);
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::casual()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );

        // A run with no drops adds nothing beyond the static analysis.
        let mut clean = Telemetry::enabled(TelemetryConfig::metrics_only());
        clean.count("net.mac.tx_attempts", 100);
        clean.count("net.mac.retries", 3);
        let clean_snap = clean.snapshot().unwrap();
        let base = sys.analyze(1);
        let with_clean = sys.analyze_with_metrics(1, Some(&clean_snap));
        assert_eq!(with_clean.issues.len(), base.issues.len());

        // Queue and retry-limit drops become Serious resource issues.
        let mut hot = Telemetry::enabled(TelemetryConfig::metrics_only());
        hot.count("net.mac.drop.queue_full", 7);
        hot.count("net.mac.drop.retry_limit", 2);
        hot.count("net.mac.tx_attempts", 10);
        hot.count("net.mac.retries", 6);
        let hot_snap = hot.snapshot().unwrap();
        let r = sys.analyze_with_metrics(1, Some(&hot_snap));
        let measured: Vec<&Issue> = r
            .issues
            .iter()
            .filter(|i| i.subject.contains("measured"))
            .collect();
        assert_eq!(measured.len(), 3, "{}", r.render());
        assert!(measured
            .iter()
            .all(|i| i.layer == Layer::Resource && i.severity >= Severity::Advisory));
    }

    #[test]
    fn outdoor_projector_raises_environment_issue() {
        let mut d = device(None);
        d.name = "projector".into();
        d.profile = DeviceProfile::of(DeviceClass::DigitalProjector);
        let sys = system(
            EnvironmentKind::OutdoorCourtyard,
            vec![],
            vec![d],
            vec![],
        );
        let r = sys.analyze(1);
        let env_issues: Vec<_> = r.in_layer(Layer::Environment).collect();
        assert!(
            env_issues.iter().any(|i| i.description.contains("illuminance")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn voice_ui_in_subway_raises_both_noise_and_social_issues() {
        let sys = system(
            EnvironmentKind::SubwayCar,
            vec![UserProfile::casual()],
            vec![device(Some(simple_app(true)))],
            vec![binding(0, 0, StateMachine::new().with("idle", "go", "done"))],
        );
        let r = sys.analyze(1);
        let voice: Vec<_> = r
            .in_layer(Layer::Environment)
            .filter(|i| i.subject.contains("voice"))
            .collect();
        assert!(
            voice.iter().any(|i| i.description.contains("socially inappropriate")),
            "{}",
            r.render()
        );
        assert!(
            voice.iter().any(|i| i.description.contains("recognition")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn low_vision_user_blocked_at_physical_layer() {
        let app = simple_app(false);
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::low_vision()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        assert!(
            r.in_layer(Layer::Physical)
                .any(|i| i.severity == Severity::Blocking),
            "{}",
            r.render()
        );
    }

    #[test]
    fn bandwidth_shortfall_is_a_physical_issue() {
        let mut app = simple_app(false);
        app.needs_bandwidth_bps = Some(12e6);
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::researcher()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        assert!(
            r.in_layer(Layer::Physical)
                .any(|i| i.description.contains("animation")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn prototype_resources_frustrate_casual_users() {
        let mut d = device(Some(simple_app(false)));
        d.resources = Some(DeviceResources::research_prototype());
        let belief = d.application.as_ref().unwrap().machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::casual()],
            vec![d],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        assert!(r.in_layer(Layer::Resource).count() >= 3, "{}", r.render());
    }

    #[test]
    fn external_dependencies_are_resource_assumptions() {
        let mut app = simple_app(false);
        app.external_dependencies = vec!["a Jini lookup service".into()];
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::researcher()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        assert!(
            r.in_layer(Layer::Resource)
                .any(|i| i.description.contains("Jini lookup service")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn empty_belief_on_complex_app_raises_abstract_issues() {
        let mut app = simple_app(false);
        app.machine = StateMachine::new()
            .with("idle", "start-projection-client", "p-started")
            .with("p-started", "start-control-client", "both-started")
            .with("both-started", "start-vnc-server", "projecting")
            .with("idle", "start-control-client", "c-started")
            .with("c-started", "start-projection-client", "both-started");
        app.start = "idle".into();
        app.goal = "projecting".into();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::casual()],
            vec![device(Some(app))],
            vec![binding(0, 0, StateMachine::new())],
        );
        let r = sys.analyze(1);
        assert!(r.in_layer(Layer::Abstract).count() >= 1, "{}", r.render());
    }

    #[test]
    fn research_purpose_vs_casual_goals_is_an_intentional_issue() {
        let mut app = simple_app(false);
        app.purpose = DesignPurpose::research_prototype();
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::casual()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        assert!(
            r.in_layer(Layer::Intentional)
                .any(|i| i.severity >= Severity::Serious),
            "{}",
            r.render()
        );
    }

    #[test]
    fn report_rendering_and_counts() {
        let mut app = simple_app(false);
        app.purpose = DesignPurpose::research_prototype();
        let belief = app.machine.clone();
        let sys = system(
            EnvironmentKind::SubwayCar,
            vec![UserProfile::casual()],
            vec![device(Some(app))],
            vec![binding(0, 0, belief)],
        );
        let r = sys.analyze(1);
        let counts = r.layer_counts();
        assert_eq!(counts.len(), 5);
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, r.issues.len());
        let rendered = r.render();
        assert!(rendered.contains("layer"));
        let j = r.json().render();
        assert!(j.starts_with('['));
    }

    #[test]
    fn analysis_is_deterministic_per_seed() {
        let mut app = simple_app(false);
        app.machine = StateMachine::new()
            .with("a", "x", "b")
            .with("b", "y", "c")
            .with("a", "z", "a");
        app.goal = "c".into();
        app.start = "a".into();
        let sys = system(
            EnvironmentKind::QuietOffice,
            vec![UserProfile::casual()],
            vec![device(Some(app))],
            vec![binding(0, 0, StateMachine::new())],
        );
        assert_eq!(sys.analyze(7).issues, sys.analyze(7).issues);
    }
}
