//! Session objects.
//!
//! The paper: *"Session objects are used to ensure that another user cannot
//! inadvertently 'hijack' either the use or control of the projector"* —
//! and, in the abstract-layer discussion, *"other mechanisms should be
//! developed to deal with users who forget to relinquish control of the
//! projector without relying on a system administrator to intervene."*
//! Both mechanisms are policies here, so experiment E4 can sweep them:
//!
//! * [`SessionPolicy::None`] — no sessions: last writer wins (hijacks).
//! * [`SessionPolicy::ManualRelease`] — sessions, no expiry: safe from
//!   hijack, but a forgetful owner locks everyone out until an
//!   administrator intervenes.
//! * [`SessionPolicy::AutoExpire`] — sessions with an idle-expiry horizon:
//!   the paper's asked-for mechanism.

use aroma_sim::telemetry::{Layer, Snapshot, Telemetry, TelemetryConfig};
use aroma_sim::{SimDuration, SimRng, SimTime};

/// Opaque proof of session ownership.
///
/// Tokens are drawn from a deterministic [`SimRng`] stream rather than a
/// counter: a sequential scheme is trivially guessable (observe your own
/// token, add one, hijack the next session), which `aroma-check`'s
/// token-guessing adversary demonstrates. The SplitMix64 core is a
/// bijection over its step counter, so a single stream never repeats a
/// value within 2^64 draws — stale tokens stay dead without bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionToken(u64);

impl SessionToken {
    /// Wire representation (the control protocol carries tokens as u64).
    pub fn value(self) -> u64 {
        self.0
    }

    /// Reconstruct from the wire representation.
    pub fn from_value(v: u64) -> SessionToken {
        SessionToken(v)
    }
}

/// Who may use the guarded service, and for how long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPolicy {
    /// No session protection: any request succeeds, displacing the
    /// previous user (counted as a hijack if one was active).
    None,
    /// Sessions must be explicitly released.
    ManualRelease,
    /// Sessions lapse after this much inactivity.
    AutoExpire {
        /// Idle horizon after which the session lapses.
        idle: SimDuration,
    },
}

/// Why an operation was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Another user holds the session.
    Busy,
    /// The token does not match the current session.
    BadToken,
    /// No session is active.
    NoSession,
}

/// Counters the E4 experiment reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that displaced an active user (only possible under
    /// [`SessionPolicy::None`]).
    pub hijacks: u64,
    /// Requests refused because another user held the session.
    pub refusals: u64,
    /// Sessions that lapsed by inactivity.
    pub expirations: u64,
    /// Explicit releases.
    pub releases: u64,
}

/// Guards one service (projection or control).
#[derive(Clone, Debug)]
pub struct SessionManager {
    policy: SessionPolicy,
    owner: Option<(u64, SessionToken, SimTime)>, // (user, token, last activity)
    token_rng: SimRng,
    /// Counters.
    pub stats: SessionStats,
    /// Telemetry recorder (Off by default; every call inlines to a no-op).
    rec: Telemetry,
}

/// Seed for managers built without an explicit token stream.
const DEFAULT_TOKEN_SEED: u64 = 0x5E55_1047_70CE_A15E;

impl SessionManager {
    /// A manager with the given policy and the default token stream.
    ///
    /// Production callers guarding more than one service should prefer
    /// [`SessionManager::with_token_rng`] with distinct forks so no two
    /// managers mint the same token sequence (a projection token must
    /// never double as a control token).
    pub fn new(policy: SessionPolicy) -> Self {
        Self::with_token_rng(policy, SimRng::new(DEFAULT_TOKEN_SEED))
    }

    /// A manager minting tokens from the caller's [`SimRng`] stream —
    /// fork it per guarded service (see `aroma_sim::SimRng::fork_named`).
    pub fn with_token_rng(policy: SessionPolicy, token_rng: SimRng) -> Self {
        SessionManager {
            policy,
            owner: None,
            token_rng,
            stats: SessionStats::default(),
            rec: Telemetry::Off,
        }
    }

    /// Attach a live telemetry recorder: session acquire/deny/expire events
    /// are recorded at the Abstract layer from here on.
    pub fn attach_telemetry(&mut self, cfg: TelemetryConfig) {
        self.rec = Telemetry::enabled(cfg);
    }

    /// Snapshot the recorder; `None` when telemetry was never attached.
    pub fn telemetry_snapshot(&self) -> Option<Snapshot> {
        self.rec.snapshot()
    }

    /// The policy in force.
    pub fn policy(&self) -> SessionPolicy {
        self.policy
    }

    /// The current owner (after lapsing expired sessions as of `now`).
    pub fn owner(&mut self, now: SimTime) -> Option<u64> {
        self.expire_if_idle(now);
        self.owner.map(|(u, _, _)| u)
    }

    /// Is the service free as of `now`?
    pub fn is_free(&mut self, now: SimTime) -> bool {
        self.owner(now).is_none()
    }

    fn expire_if_idle(&mut self, now: SimTime) {
        if let (SessionPolicy::AutoExpire { idle }, Some((_, _, last))) = (self.policy, self.owner)
        {
            if now.saturating_since(last) >= idle {
                self.owner = None;
                self.stats.expirations += 1;
                self.rec.count("proj.session.expiries", 1);
                self.rec.event(
                    now.as_nanos(),
                    Layer::Abstract,
                    "session.expire",
                    0,
                    now.saturating_since(last).as_nanos() as i64,
                    0,
                );
            }
        }
    }

    /// Try to acquire the session for `user` at `now`.
    pub fn acquire(&mut self, user: u64, now: SimTime) -> Result<SessionToken, SessionError> {
        self.expire_if_idle(now);
        match (self.policy, self.owner) {
            (SessionPolicy::None, prev) => {
                if let Some((prev_user, _, _)) = prev {
                    if prev_user != user {
                        self.stats.hijacks += 1;
                        self.rec.count("proj.session.hijacks", 1);
                        self.rec.event(
                            now.as_nanos(),
                            Layer::Abstract,
                            "session.hijack",
                            user as u32,
                            prev_user as i64,
                            0,
                        );
                    }
                }
                Ok(self.install(user, now))
            }
            (_, None) => Ok(self.install(user, now)),
            (_, Some((owner, token, _))) if owner == user => {
                // Re-acquisition by the owner refreshes activity.
                self.owner = Some((user, token, now));
                Ok(token)
            }
            _ => {
                self.stats.refusals += 1;
                self.rec.count("proj.session.denials", 1);
                let holder = self.owner.map_or(0, |(u, _, _)| u as i64);
                self.rec.event(
                    now.as_nanos(),
                    Layer::Abstract,
                    "session.deny",
                    user as u32,
                    holder,
                    0,
                );
                Err(SessionError::Busy)
            }
        }
    }

    fn install(&mut self, user: u64, now: SimTime) -> SessionToken {
        // SplitMix64 output is a bijection of the stream position: every
        // draw is distinct from every other draw of this stream, so token
        // uniqueness needs no retry loop. Skip 0 so a zeroed wire field
        // can never masquerade as a token.
        let mut v = self.token_rng.next_u64_raw();
        if v == 0 {
            v = self.token_rng.next_u64_raw();
        }
        let token = SessionToken(v);
        self.owner = Some((user, token, now));
        self.stats.acquisitions += 1;
        self.rec.count("proj.session.acquires", 1);
        self.rec
            .event(now.as_nanos(), Layer::Abstract, "session.acquire", user as u32, 0, 0);
        token
    }

    /// Record activity by the owner (keeps auto-expiry at bay). Wrong
    /// tokens are rejected — that is the hijack protection.
    pub fn touch(&mut self, token: SessionToken, now: SimTime) -> Result<(), SessionError> {
        self.expire_if_idle(now);
        match self.owner {
            None => Err(SessionError::NoSession),
            Some((user, t, _)) if t == token => {
                self.owner = Some((user, t, now));
                Ok(())
            }
            Some(_) => Err(SessionError::BadToken),
        }
    }

    /// Release the session.
    pub fn release(&mut self, token: SessionToken, now: SimTime) -> Result<(), SessionError> {
        self.expire_if_idle(now);
        match self.owner {
            None => Err(SessionError::NoSession),
            Some((_, t, _)) if t == token => {
                self.owner = None;
                self.stats.releases += 1;
                self.rec.count("proj.session.releases", 1);
                Ok(())
            }
            Some(_) => Err(SessionError::BadToken),
        }
    }

    /// Simulate the guarded device rebooting: the active session (if any)
    /// is gone, and future tokens are minted from `token_rng` — a stream
    /// the caller must derive fresh per incarnation, so a token issued
    /// before the crash can never be re-minted and accepted afterwards.
    /// Policy, statistics, and telemetry survive the reboot.
    pub fn reboot(&mut self, token_rng: SimRng) {
        self.owner = None;
        self.token_rng = token_rng;
    }

    /// Administrator override: clear any session (the intervention the
    /// paper wants to make unnecessary).
    pub fn admin_clear(&mut self) -> bool {
        let had = self.owner.is_some();
        self.owner = None;
        had
    }

    /// Model-checker introspection (feature `model-check`): the raw owner
    /// triple `(user, token, last activity)` *without* lapsing expired
    /// sessions — `aroma-check` canonicalises expiry itself so that
    /// swept and unswept-but-lapsed states compare equal.
    #[cfg(feature = "model-check")]
    pub fn snapshot(&self) -> Option<(u64, SessionToken, SimTime)> {
        self.owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn acquire_free_session() {
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        let tok = m.acquire(1, t(0)).unwrap();
        assert_eq!(m.owner(t(0)), Some(1));
        assert_eq!(m.stats.acquisitions, 1);
        assert!(m.touch(tok, t(1)).is_ok());
    }

    #[test]
    fn sessions_prevent_hijack() {
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        let _t1 = m.acquire(1, t(0)).unwrap();
        assert_eq!(m.acquire(2, t(1)), Err(SessionError::Busy));
        assert_eq!(m.owner(t(1)), Some(1));
        assert_eq!(m.stats.refusals, 1);
        assert_eq!(m.stats.hijacks, 0);
    }

    #[test]
    fn telemetry_tracks_session_lifecycle() {
        let mut m = SessionManager::new(SessionPolicy::AutoExpire {
            idle: SimDuration::from_secs(10),
        });
        m.attach_telemetry(TelemetryConfig::default());
        let tok = m.acquire(1, t(0)).unwrap();
        assert_eq!(m.acquire(2, t(1)), Err(SessionError::Busy));
        m.release(tok, t(2)).unwrap();
        m.acquire(2, t(3)).unwrap();
        assert!(m.is_free(t(20)), "session should auto-expire");

        let snap = m.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("proj.session.acquires"), 2);
        assert_eq!(snap.counter("proj.session.denials"), 1);
        assert_eq!(snap.counter("proj.session.releases"), 1);
        assert_eq!(snap.counter("proj.session.expiries"), 1);
        let names: Vec<&str> = snap.trace.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "session.acquire",
                "session.deny",
                "session.acquire",
                "session.expire"
            ]
        );
        assert!(snap.trace.iter().all(|e| e.layer == Layer::Abstract));
    }

    #[test]
    fn no_policy_allows_hijack_and_counts_it() {
        let mut m = SessionManager::new(SessionPolicy::None);
        m.acquire(1, t(0)).unwrap();
        m.acquire(2, t(1)).unwrap();
        assert_eq!(m.owner(t(1)), Some(2), "last writer wins");
        assert_eq!(m.stats.hijacks, 1);
        // Same user re-acquiring is not a hijack.
        m.acquire(2, t(2)).unwrap();
        assert_eq!(m.stats.hijacks, 1);
    }

    #[test]
    fn owner_reacquire_is_idempotent() {
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        let t1 = m.acquire(1, t(0)).unwrap();
        let t2 = m.acquire(1, t(5)).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(m.stats.acquisitions, 1);
    }

    #[test]
    fn release_requires_matching_token() {
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        let tok = m.acquire(1, t(0)).unwrap();
        assert_eq!(m.release(SessionToken(999), t(1)), Err(SessionError::BadToken));
        assert!(m.release(tok, t(1)).is_ok());
        assert!(m.is_free(t(1)));
        assert_eq!(m.release(tok, t(2)), Err(SessionError::NoSession));
    }

    #[test]
    fn manual_release_locks_out_forever_without_admin() {
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        m.acquire(1, t(0)).unwrap();
        // User 1 walks away; hours later user 2 still cannot get in.
        assert_eq!(m.acquire(2, t(10_000)), Err(SessionError::Busy));
        assert!(m.admin_clear());
        assert!(m.acquire(2, t(10_001)).is_ok());
    }

    #[test]
    fn auto_expire_frees_idle_sessions() {
        let mut m = SessionManager::new(SessionPolicy::AutoExpire {
            idle: SimDuration::from_secs(30),
        });
        let tok = m.acquire(1, t(0)).unwrap();
        // Activity keeps it alive.
        m.touch(tok, t(20)).unwrap();
        assert_eq!(m.acquire(2, t(40)), Err(SessionError::Busy)); // 20 s idle
        // Now let it lapse: last activity t(40)? No — touch was at 20; the
        // refused acquire does not refresh. 30 s after t(20):
        assert!(m.acquire(2, t(51)).is_ok());
        assert_eq!(m.stats.expirations, 1);
        assert_eq!(m.owner(t(51)), Some(2));
    }

    #[test]
    fn touch_after_expiry_reports_no_session() {
        let mut m = SessionManager::new(SessionPolicy::AutoExpire {
            idle: SimDuration::from_secs(5),
        });
        let tok = m.acquire(1, t(0)).unwrap();
        assert_eq!(m.touch(tok, t(10)), Err(SessionError::NoSession));
    }

    #[test]
    fn tokens_are_not_sequentially_predictable() {
        // The hijack scenario aroma-check closes end-to-end: an adversary
        // who saw token T must not be able to guess the next session's
        // token as T±1 (the old counter scheme made that trivial).
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        let t1 = m.acquire(1, t(0)).unwrap();
        m.release(t1, t(1)).unwrap();
        let t2 = m.acquire(2, t(2)).unwrap();
        for guess in [
            t1.value().wrapping_add(1),
            t1.value().wrapping_sub(1),
            1,
            2,
        ] {
            assert_ne!(t2.value(), guess, "token predictable from {}", t1.value());
            if guess != t2.value() {
                assert_eq!(
                    m.touch(SessionToken::from_value(guess), t(3)),
                    Err(SessionError::BadToken)
                );
            }
        }
    }

    #[test]
    fn distinct_token_streams_never_cross_validate() {
        // Two services guarded by forked streams: a projection token must
        // not open the control session.
        let rng = SimRng::new(7);
        let mut proj =
            SessionManager::with_token_rng(SessionPolicy::ManualRelease, rng.fork_named("proj"));
        let mut ctl =
            SessionManager::with_token_rng(SessionPolicy::ManualRelease, rng.fork_named("ctl"));
        let tp = proj.acquire(1, t(0)).unwrap();
        let tc = ctl.acquire(2, t(0)).unwrap();
        assert_ne!(tp, tc);
        assert_eq!(ctl.touch(tp, t(1)), Err(SessionError::BadToken));
        assert_eq!(proj.touch(tc, t(1)), Err(SessionError::BadToken));
    }

    #[test]
    fn tokens_are_unique_across_sessions() {
        let mut m = SessionManager::new(SessionPolicy::ManualRelease);
        let t1 = m.acquire(1, t(0)).unwrap();
        m.release(t1, t(1)).unwrap();
        let t2 = m.acquire(2, t(2)).unwrap();
        assert_ne!(t1, t2, "stale tokens must not unlock new sessions");
        assert_eq!(m.touch(t1, t(3)), Err(SessionError::BadToken));
    }
}
