//! Property tests for `SessionManager` across every policy, focused on the
//! token scheme: round-trips, stale-token death, expiry races, and the
//! non-predictability the RNG-drawn tokens guarantee (the sampled
//! counterpart of the exhaustive proofs in `aroma-check`).

use aroma_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use smart_projector::session::{SessionManager, SessionPolicy, SessionToken};
use std::collections::HashSet;

/// Satellite regression for the fault plane: a projector node that crashes
/// and restarts mid-session must never honour a pre-crash token again —
/// the restarted managers mint from incarnation-fresh streams and the old
/// session died with the device. The presenter recovers by re-acquiring.
#[test]
fn crash_restart_cannot_resurrect_pre_crash_tokens() {
    use aroma_discovery::apps::RegistrarApp;
    use aroma_env::radio::RadioEnvironment;
    use aroma_env::space::Point;
    use aroma_net::{MacConfig, Network, NodeConfig};
    use aroma_sim::faults::FaultSchedule;
    use smart_projector::laptop::{PresenterLaptopApp, PresenterScript};
    use smart_projector::SmartProjectorApp;
    use aroma_vnc::SlideDeck;

    let quiet = RadioEnvironment {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut net = Network::new(quiet, MacConfig::default(), 42);
    let _registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(30))),
    );
    // ManualRelease: without the crash this session could never lapse, so
    // any post-restart refusal is the reboot talking, not an expiry.
    let projector = net.add_node(
        NodeConfig::at(Point::new(3.0, 0.0)),
        Box::new(SmartProjectorApp::new(
            320,
            240,
            SessionPolicy::ManualRelease,
            "A-101",
        )),
    );
    let laptop = net.add_node(
        NodeConfig::at(Point::new(1.0, 3.0)),
        Box::new(PresenterLaptopApp::new(
            PresenterScript {
                present_for: SimDuration::from_secs(40),
                ..Default::default()
            },
            320,
            240,
            Box::new(SlideDeck::new(8.0)),
        )),
    );
    // Adapter dies mid-presentation and reboots two seconds later.
    let schedule = FaultSchedule::builder(7)
        .crash_restart(
            SimTime::ZERO + SimDuration::from_secs(10),
            SimTime::ZERO + SimDuration::from_secs(12),
            projector.0,
        )
        .build();
    net.attach_faults(&schedule);

    net.run_for(SimDuration::from_secs(8));
    let (pre_proj, pre_ctl) = net
        .app_as::<PresenterLaptopApp>(laptop)
        .unwrap()
        .tokens();
    let (pre_proj, pre_ctl) = (
        pre_proj.expect("projection session not held before the crash"),
        pre_ctl.expect("control session not held before the crash"),
    );

    net.run_for(SimDuration::from_secs(17)); // through crash, reboot, recovery

    let lap = net.app_as::<PresenterLaptopApp>(laptop).unwrap();
    assert!(
        lap.reacquisitions >= 1,
        "presenter never re-acquired after the restart"
    );
    assert!(lap.commands_denied >= 1, "stale token was never refused");
    let (post_proj, post_ctl) = lap.tokens();
    let (post_proj, post_ctl) = (
        post_proj.expect("projection session not re-acquired"),
        post_ctl.expect("control session not re-acquired"),
    );
    assert_ne!(post_proj, pre_proj, "pre-crash projection token re-minted");
    assert_ne!(post_ctl, pre_ctl, "pre-crash control token re-minted");

    let now = net.now();
    let proj = net.app_as_mut::<SmartProjectorApp>(projector).unwrap();
    assert_eq!(proj.incarnation, 1, "crash should bump the incarnation");
    // The stale tokens are dead at both managers, and the recovery looked
    // like a clean re-acquisition, not a hijack.
    assert!(proj
        .projection_sessions
        .touch(SessionToken::from_value(pre_proj), now)
        .is_err());
    assert!(proj
        .control_sessions
        .touch(SessionToken::from_value(pre_ctl), now)
        .is_err());
    assert_eq!(proj.projection_sessions.stats.hijacks, 0);
    assert_eq!(proj.control_sessions.stats.hijacks, 0);
}

fn arb_policy() -> impl Strategy<Value = SessionPolicy> {
    prop_oneof![
        Just(SessionPolicy::None),
        Just(SessionPolicy::ManualRelease),
        (500u64..20_000).prop_map(|ms| SessionPolicy::AutoExpire {
            idle: SimDuration::from_millis(ms)
        }),
    ]
}

proptest! {
    /// Acquire → touch → release round-trips under every policy, from any
    /// starting instant, and frees the service.
    #[test]
    fn acquire_touch_release_round_trips(
        policy in arb_policy(),
        start_ms in 0u64..1_000_000,
        gap_ms in 0u64..400,
        user in 0u64..8,
    ) {
        let mut m = SessionManager::new(policy);
        let t0 = SimTime::ZERO + SimDuration::from_millis(start_ms);
        let t1 = t0 + SimDuration::from_millis(gap_ms);
        let t2 = t1 + SimDuration::from_millis(gap_ms);
        let tok = m.acquire(user, t0).unwrap();
        // gap < 500ms <= every AutoExpire horizon: the session is live.
        prop_assert!(m.touch(tok, t1).is_ok());
        prop_assert!(m.release(tok, t2).is_ok());
        prop_assert!(m.is_free(t2));
    }

    /// A released token is dead forever under every policy: no later touch
    /// or release with it can succeed, even by its original owner.
    #[test]
    fn released_tokens_stay_dead(
        policy in arb_policy(),
        users in prop::collection::vec(0u64..4, 1..12),
    ) {
        let mut m = SessionManager::new(policy);
        let mut now = SimTime::ZERO;
        let mut dead: Vec<SessionToken> = Vec::new();
        for user in users {
            now += SimDuration::from_millis(50);
            let tok = m.acquire(user, now).unwrap();
            for old in &dead {
                prop_assert!(m.touch(*old, now).is_err(), "stale token touched a live session");
                prop_assert!(m.release(*old, now).is_err(), "stale token released a session");
            }
            m.release(tok, now).unwrap();
            dead.push(tok);
        }
    }

    /// Tokens never repeat and are never the sequential neighbours of a
    /// previous token — the adversary moves `aroma-check` checks
    /// exhaustively, sampled here across seeds and session counts.
    #[test]
    fn token_stream_has_no_sequential_structure(
        seed in any::<u64>(),
        sessions in 2usize..40,
    ) {
        let mut m = SessionManager::with_token_rng(
            SessionPolicy::ManualRelease,
            SimRng::new(seed),
        );
        let mut now = SimTime::ZERO;
        let mut seen = HashSet::new();
        let mut prev: Option<u64> = None;
        for user in 0..sessions as u64 {
            now += SimDuration::from_millis(10);
            let tok = m.acquire(user, now).unwrap();
            prop_assert!(seen.insert(tok.value()), "token value repeated");
            prop_assert_ne!(tok.value(), 0, "zero is reserved for the wire");
            if let Some(p) = prev {
                prop_assert_ne!(tok.value(), p.wrapping_add(1), "sequential token");
                prop_assert_ne!(tok.value(), p.wrapping_sub(1), "sequential token");
            }
            prev = Some(tok.value());
            m.release(tok, now).unwrap();
        }
    }

    /// Expiry races: exactly at the idle horizon the session is gone (the
    /// boundary is inclusive-dead), one nanosecond earlier it is alive.
    #[test]
    fn expiry_boundary_is_exact(
        idle_ms in 1u64..10_000,
        start_ms in 0u64..100_000,
    ) {
        let idle = SimDuration::from_millis(idle_ms);
        let mut m = SessionManager::new(SessionPolicy::AutoExpire { idle });
        let t0 = SimTime::ZERO + SimDuration::from_millis(start_ms);
        let tok = m.acquire(1, t0).unwrap();
        let boundary = t0 + idle;
        let just_before = SimTime::from_nanos(boundary.as_nanos() - 1);
        prop_assert!(m.clone().touch(tok, just_before).is_ok(), "alive before the horizon");
        prop_assert_eq!(m.owner(boundary), None, "dead exactly at the horizon");
        prop_assert!(m.touch(tok, boundary).is_err());
        // The service is immediately reacquirable by someone else...
        let tok2 = m.acquire(2, boundary).unwrap();
        // ...and the lapsed token cannot steal the new session.
        prop_assert_ne!(tok.value(), tok2.value());
        prop_assert!(m.touch(tok, boundary).is_err());
    }

    /// Managers guarding different services (forked token streams) never
    /// accept each other's tokens, whatever the seed or interleaving.
    #[test]
    fn forked_streams_never_cross_validate(
        seed in any::<u64>(),
        rounds in 1usize..12,
    ) {
        let rng = SimRng::new(seed);
        let mut a = SessionManager::with_token_rng(
            SessionPolicy::ManualRelease, rng.fork_named("projection"));
        let mut b = SessionManager::with_token_rng(
            SessionPolicy::ManualRelease, rng.fork_named("control"));
        let mut now = SimTime::ZERO;
        for user in 0..rounds as u64 {
            now += SimDuration::from_millis(5);
            let ta = a.acquire(user, now).unwrap();
            let tb = b.acquire(user, now).unwrap();
            prop_assert_ne!(ta.value(), tb.value());
            prop_assert!(a.touch(tb, now).is_err(), "control token opened projection");
            prop_assert!(b.touch(ta, now).is_err(), "projection token opened control");
            a.release(ta, now).unwrap();
            b.release(tb, now).unwrap();
        }
    }
}
