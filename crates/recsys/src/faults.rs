//! Fault modeling for an *unreliable* deployed platform.
//!
//! The paper's threat model (§3, §4.5) puts the attacker behind a narrow
//! query/inject interface with "a limited number of queries (or
//! interactions)". A real deployed target goes further: it rate-limits
//! bursts, times out under load, truncates result lists, suspends accounts
//! it finds suspicious, and sometimes shadow-bans injected profiles so they
//! silently stop counting. This module gives the repository a deterministic
//! model of all of that:
//!
//! - [`RecError`] — the typed failure vocabulary of the platform;
//! - [`FaultConfig`] — which faults fire and how often;
//! - [`FaultyRecommender`] — a wrapper injecting faults into any
//!   [`FallibleBlackBox`] according to a
//!   schedule driven by a seeded [`SplitMix64`] and a *logical clock* — no
//!   wall-clock anywhere, so every chaos run is bit-for-bit reproducible.

use crate::blackbox::FallibleBlackBox;
use crate::ids::{ItemId, UserId};
use std::collections::BTreeSet;
use std::fmt;

/// Account ids handed out for shadow-banned injections live above this
/// bound so they can never collide with ids assigned by the real platform.
const GHOST_BASE: u32 = 1 << 31;

/// Why a platform interaction failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecError {
    /// The caller exceeded the platform's burst quota; retry after the
    /// given number of logical ticks.
    RateLimited {
        /// Ticks until the current rate-limit window rolls over.
        retry_after: u64,
    },
    /// The request timed out; nothing happened server-side.
    Timeout,
    /// The platform answered, but returned fewer items than requested.
    /// The partial list is still genuine data — resilient callers use it.
    TruncatedList {
        /// The truncated Top-k list (best first).
        items: Vec<ItemId>,
    },
    /// The account was suspended (pretend user flagged, or account
    /// creation refused). Queries through it will keep failing; the
    /// attacker must establish a replacement.
    AccountSuspended,
    /// The platform is down; retry later.
    ServiceUnavailable,
}

impl fmt::Display for RecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecError::RateLimited { retry_after } => {
                write!(f, "rate limited (retry after {retry_after} ticks)")
            }
            RecError::Timeout => write!(f, "request timed out"),
            RecError::TruncatedList { items } => {
                write!(f, "result list truncated to {} items", items.len())
            }
            RecError::AccountSuspended => write!(f, "account suspended"),
            RecError::ServiceUnavailable => write!(f, "service unavailable"),
        }
    }
}

impl std::error::Error for RecError {}

impl RecError {
    /// Whether retrying the same call can ever succeed. Suspensions are not
    /// retryable on the same account — the account is gone; re-establish it
    /// instead.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RecError::RateLimited { .. } | RecError::Timeout | RecError::ServiceUnavailable
        )
    }
}

/// Burst rate limiting: at most `max_calls` platform calls per `window`
/// logical ticks.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Window length in logical ticks.
    pub window: u64,
    /// Calls allowed per window.
    pub max_calls: u32,
}

/// Which faults the platform injects and how often.
///
/// `timeout_prob + unavailable_prob + truncate_prob` (queries) and
/// `timeout_prob + unavailable_prob + reject_inject_prob + shadow_ban_prob`
/// (injections) are each drawn from a *single* uniform roll per call, so
/// they must sum to at most 1.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed of the fault schedule. Same seed + same config + same call
    /// sequence ⇒ identical fault sequence.
    pub seed: u64,
    /// Probability a call times out.
    pub timeout_prob: f64,
    /// Probability a call hits a platform outage.
    pub unavailable_prob: f64,
    /// Probability a query returns a truncated list.
    pub truncate_prob: f64,
    /// Fraction of the requested `k` kept when truncating (in `(0, 1)`).
    pub truncate_keep: f64,
    /// Probability a *successful* query gets the queried account suspended
    /// (the platform's anomaly screening noticing the account).
    pub suspend_prob: f64,
    /// Probability account creation is refused outright.
    pub reject_inject_prob: f64,
    /// Probability an injection is shadow-banned: it "succeeds" (an account
    /// id comes back) but the profile never reaches the model.
    pub shadow_ban_prob: f64,
    /// Burst rate limiting, if any.
    pub rate_limit: Option<RateLimit>,
}

impl Default for FaultConfig {
    /// A transparent platform: no faults at all.
    fn default() -> Self {
        Self {
            seed: 0,
            timeout_prob: 0.0,
            unavailable_prob: 0.0,
            truncate_prob: 0.0,
            truncate_keep: 0.5,
            suspend_prob: 0.0,
            reject_inject_prob: 0.0,
            shadow_ban_prob: 0.0,
            rate_limit: None,
        }
    }
}

impl FaultConfig {
    /// A hostile-but-survivable platform with ≥ 20% combined per-call fault
    /// rate — the chaos-test preset.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            timeout_prob: 0.08,
            unavailable_prob: 0.05,
            truncate_prob: 0.05,
            truncate_keep: 0.6,
            suspend_prob: 0.02,
            reject_inject_prob: 0.04,
            shadow_ban_prob: 0.03,
            rate_limit: Some(RateLimit { window: 64, max_calls: 48 }),
        }
    }

    /// Combined probability that a query call fails on the first roll
    /// (excluding rate limiting and suspensions, which are stateful).
    pub fn query_fault_rate(&self) -> f64 {
        self.timeout_prob + self.unavailable_prob + self.truncate_prob
    }

    /// Combined probability that an injection call misbehaves on the first
    /// roll.
    pub fn inject_fault_rate(&self) -> f64 {
        self.timeout_prob + self.unavailable_prob + self.reject_inject_prob + self.shadow_ban_prob
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("timeout_prob", self.timeout_prob),
            ("unavailable_prob", self.unavailable_prob),
            ("truncate_prob", self.truncate_prob),
            ("suspend_prob", self.suspend_prob),
            ("reject_inject_prob", self.reject_inject_prob),
            ("shadow_ban_prob", self.shadow_ban_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} outside [0, 1]"));
            }
        }
        if self.query_fault_rate() > 1.0 {
            return Err("query fault probabilities sum past 1".into());
        }
        if self.inject_fault_rate() > 1.0 {
            return Err("inject fault probabilities sum past 1".into());
        }
        if !(self.truncate_prob == 0.0 || (0.0 < self.truncate_keep && self.truncate_keep < 1.0)) {
            return Err(format!("truncate_keep {} outside (0, 1)", self.truncate_keep));
        }
        if let Some(rl) = self.rate_limit {
            if rl.window == 0 || rl.max_calls == 0 {
                return Err("rate limit window and max_calls must be positive".into());
            }
        }
        Ok(())
    }
}

/// Tiny deterministic PRNG (SplitMix64) used for fault schedules and retry
/// jitter. Public so attack-side code shares one deterministic source
/// instead of growing several ad-hoc ones.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-kind fault counters, for assertions and reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls rejected by the burst limiter.
    pub rate_limited: u64,
    /// Calls that timed out.
    pub timeouts: u64,
    /// Calls that hit an outage.
    pub unavailable: u64,
    /// Queries answered with a truncated list.
    pub truncated: u64,
    /// Queries refused because the account was (or became) suspended.
    pub suspensions: u64,
    /// Injections refused at account creation.
    pub rejected_injections: u64,
    /// Injections silently shadow-banned.
    pub shadow_bans: u64,
}

impl FaultStats {
    /// Total calls that returned an error (shadow bans excluded — they
    /// *look* like successes to the attacker).
    pub fn total_errors(&self) -> u64 {
        self.rate_limited
            + self.timeouts
            + self.unavailable
            + self.truncated
            + self.suspensions
            + self.rejected_injections
    }
}

/// Deterministic fault-injecting wrapper around any fallible platform.
///
/// Wraps a [`FallibleBlackBox`] (so wrappers stack, and any infallible
/// [`BlackBoxRecommender`](crate::BlackBoxRecommender) fits via the blanket
/// impl) and makes its calls fail according to a [`FaultConfig`]. All
/// randomness is *per-call-derived*: each call seeds a fresh [`SplitMix64`]
/// from `(config seed, logical clock, account id)`, so the fault outcome of
/// a call is a pure function of *when* it happens and *whose* account makes
/// it — never of how many draws other calls consumed. That is what makes
/// the batched query path ([`FallibleBlackBox::try_top_k_batch`]) see the
/// exact same fault sequence as per-user querying. Time is a logical clock
/// advanced once per call and by [`FallibleBlackBox::wait`]. Two instances
/// with the same seed, config, and call sequence produce the same fault
/// sequence.
pub struct FaultyRecommender<R> {
    inner: R,
    cfg: FaultConfig,
    clock: u64,
    window_start: u64,
    calls_in_window: u32,
    suspended: BTreeSet<UserId>,
    ghosts: BTreeSet<UserId>,
    n_ghosts: u32,
    calls: u64,
    stats: FaultStats,
}

impl<R: FallibleBlackBox> FaultyRecommender<R> {
    /// Wraps `inner` under the given fault model.
    ///
    /// # Panics
    /// Panics on an invalid [`FaultConfig`].
    pub fn new(inner: R, cfg: FaultConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid fault config: {e}"));
        Self {
            inner,
            cfg,
            clock: 0,
            window_start: 0,
            calls_in_window: 0,
            suspended: BTreeSet::new(),
            ghosts: BTreeSet::new(),
            n_ghosts: 0,
            calls: 0,
            stats: FaultStats::default(),
        }
    }

    /// The logical clock (ticks once per call, plus explicit waits).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Total calls attempted through this wrapper.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Per-kind fault counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether `user` is currently suspended.
    pub fn is_suspended(&self, user: UserId) -> bool {
        self.suspended.contains(&user)
    }

    /// Whether `user` is a shadow-banned ghost account (its profile never
    /// reached the model).
    pub fn is_ghost(&self, user: UserId) -> bool {
        self.ghosts.contains(&user)
    }

    /// Unwraps the inner platform (owner-side evaluation after the attack).
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Shared reference to the inner platform.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Advances the clock by one call tick and applies the burst limiter.
    fn admit_call(&mut self) -> Result<(), RecError> {
        self.clock += 1;
        self.calls += 1;
        let Some(rl) = self.cfg.rate_limit else { return Ok(()) };
        let ws = self.clock - (self.clock % rl.window);
        if ws != self.window_start {
            self.window_start = ws;
            self.calls_in_window = 0;
        }
        if self.calls_in_window >= rl.max_calls {
            self.stats.rate_limited += 1;
            let retry_after = self.window_start + rl.window - self.clock;
            return Err(RecError::RateLimited { retry_after: retry_after.max(1) });
        }
        self.calls_in_window += 1;
        Ok(())
    }

    /// The per-call fault RNG: a fresh [`SplitMix64`] keyed on the config
    /// seed, the logical tick of the call, and a per-account salt. One
    /// extra mixing round decorrelates adjacent `(tick, salt)` pairs.
    fn call_rng(&self, salt: u64) -> SplitMix64 {
        let mut mix = SplitMix64::new(
            self.cfg.seed
                ^ self.clock.wrapping_mul(0x9E3779B97F4A7C15)
                ^ salt.wrapping_mul(0xD1B54A32D192ED03),
        );
        SplitMix64::new(mix.next_u64())
    }

    /// The query-fault screen shared by the single and batched paths:
    /// suspension/ghost check, then one uniform roll across
    /// {timeout, unavailable, truncate}. `Ok(None)` means the call survived
    /// and needs a full inner list; `Ok(Some(keep))` means it survived but
    /// must be truncated to `keep` items; `Err` is the fault. The caller
    /// runs the suspension roll after the inner call using the same `rng`.
    fn screen_query(
        &mut self,
        user: UserId,
        k: usize,
        rng: &mut SplitMix64,
    ) -> Result<Option<usize>, RecError> {
        if self.suspended.contains(&user) || self.ghosts.contains(&user) {
            // Ghost accounts read as suspended: the platform pretends they
            // never existed. Their ids are unknown to the inner model, so
            // they must be intercepted before the call reaches it.
            self.stats.suspensions += 1;
            return Err(RecError::AccountSuspended);
        }
        let roll = rng.unit_f64();
        if roll < self.cfg.timeout_prob {
            self.stats.timeouts += 1;
            return Err(RecError::Timeout);
        }
        if roll < self.cfg.timeout_prob + self.cfg.unavailable_prob {
            self.stats.unavailable += 1;
            return Err(RecError::ServiceUnavailable);
        }
        if roll < self.cfg.query_fault_rate() {
            let keep = ((k as f64 * self.cfg.truncate_keep).ceil() as usize).max(1);
            return Ok(Some(keep));
        }
        Ok(None)
    }

    /// Finishes a surviving query: truncation bookkeeping and the
    /// post-response suspension roll, in the same draw order as
    /// [`FallibleBlackBox::try_top_k`].
    fn finish_query(
        &mut self,
        user: UserId,
        truncate_keep: Option<usize>,
        list: Vec<ItemId>,
        rng: &mut SplitMix64,
    ) -> Result<Vec<ItemId>, RecError> {
        if let Some(keep) = truncate_keep {
            let keep = keep.clamp(1, list.len().max(1));
            let items = list.into_iter().take(keep).collect();
            self.stats.truncated += 1;
            return Err(RecError::TruncatedList { items });
        }
        if self.cfg.suspend_prob > 0.0 && rng.unit_f64() < self.cfg.suspend_prob {
            // The screening pipeline flags the account as the response is
            // served; the caller sees the suspension, not the list.
            self.suspended.insert(user);
            self.stats.suspensions += 1;
            return Err(RecError::AccountSuspended);
        }
        Ok(list)
    }

    /// One distinct-user run of a batched query: per-entry admit + screen
    /// in order, a single inner batch over the survivors, then per-entry
    /// finish in order. Because the users are distinct, no entry's finish
    /// can change another entry's screen outcome.
    fn batch_segment(
        &mut self,
        users: &[UserId],
        k: usize,
        out: &mut Vec<Result<Vec<ItemId>, RecError>>,
    ) {
        let base = out.len();
        out.resize_with(base + users.len(), || Err(RecError::Timeout));
        // (slot, user, per-call rng, pending truncation) for screen survivors.
        let mut live: Vec<(usize, UserId, SplitMix64, Option<usize>)> = Vec::new();
        for (i, &u) in users.iter().enumerate() {
            if let Err(e) = self.admit_call() {
                out[base + i] = Err(e);
                continue;
            }
            let mut rng = self.call_rng(u.0 as u64 + 1);
            match self.screen_query(u, k, &mut rng) {
                Err(e) => out[base + i] = Err(e),
                Ok(keep) => live.push((i, u, rng, keep)),
            }
        }
        let survivors: Vec<UserId> = live.iter().map(|&(_, u, _, _)| u).collect();
        let answers = self.inner.try_top_k_batch(&survivors, k);
        for ((i, u, mut rng, keep), ans) in live.into_iter().zip(answers) {
            out[base + i] = match ans {
                Err(e) => Err(e),
                Ok(list) => self.finish_query(u, keep, list, &mut rng),
            };
        }
    }
}

impl<R: FallibleBlackBox> FallibleBlackBox for FaultyRecommender<R> {
    /// Fault order per query (all draws from the per-call RNG, fixed
    /// order): rate limiter → suspension check → one uniform roll across
    /// {timeout, unavailable, truncate} → inner call → suspension roll.
    fn try_top_k(&mut self, user: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
        self.admit_call()?;
        let mut rng = self.call_rng(user.0 as u64 + 1);
        let truncate_keep = self.screen_query(user, k, &mut rng)?;
        let list = self.inner.try_top_k(user, k)?;
        self.finish_query(user, truncate_keep, list, &mut rng)
    }

    /// Batched queries draw the *same* per-entry fault sequence as the
    /// per-user loop (each entry is admitted on its own tick and screened
    /// with its own `(seed, tick, account)` RNG), but all entries that
    /// survive the screen are answered by a single inner batch call — on an
    /// engine-backed platform that is one scoring pass instead of `m`.
    ///
    /// A batch is split at repeated accounts: a suspension fired by one
    /// entry must be visible to a *later* entry for the same user (in the
    /// per-user loop it is), so each inner batch covers a maximal run of
    /// distinct users. Attack-loop batches — one entry per pretend user —
    /// keep the single scoring pass.
    fn try_top_k_batch(
        &mut self,
        users: &[UserId],
        k: usize,
    ) -> Vec<Result<Vec<ItemId>, RecError>> {
        let mut out = Vec::with_capacity(users.len());
        let mut start = 0;
        while start < users.len() {
            let mut seen = BTreeSet::new();
            let mut end = start;
            while end < users.len() && seen.insert(users[end]) {
                end += 1;
            }
            self.batch_segment(&users[start..end], k, &mut out);
            start = end;
        }
        out
    }

    /// Fault order per injection: rate limiter → one uniform roll across
    /// {timeout, unavailable, reject, shadow-ban} → inner call.
    fn try_inject_user(&mut self, profile: &[ItemId]) -> Result<UserId, RecError> {
        self.admit_call()?;
        let mut rng = self.call_rng(0);
        let roll = rng.unit_f64();
        if roll < self.cfg.timeout_prob {
            self.stats.timeouts += 1;
            return Err(RecError::Timeout);
        }
        if roll < self.cfg.timeout_prob + self.cfg.unavailable_prob {
            self.stats.unavailable += 1;
            return Err(RecError::ServiceUnavailable);
        }
        if roll < self.cfg.timeout_prob + self.cfg.unavailable_prob + self.cfg.reject_inject_prob {
            self.stats.rejected_injections += 1;
            return Err(RecError::AccountSuspended);
        }
        if roll < self.cfg.inject_fault_rate() {
            // Shadow ban: the attacker gets an account id back, but the
            // profile never reaches the model. Ghost ids live above
            // GHOST_BASE so they cannot collide with real platform ids.
            let id = UserId(GHOST_BASE + self.n_ghosts);
            self.n_ghosts += 1;
            self.ghosts.insert(id);
            self.stats.shadow_bans += 1;
            return Ok(id);
        }
        self.inner.try_inject_user(profile)
    }

    fn catalog_size(&self) -> usize {
        self.inner.catalog_size()
    }

    fn wait(&mut self, ticks: u64) {
        self.clock += ticks;
        self.inner.wait(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::BlackBoxRecommender;

    struct Fixed {
        n_items: usize,
        n_users: usize,
    }

    impl BlackBoxRecommender for Fixed {
        fn top_k(&self, _user: UserId, k: usize) -> Vec<ItemId> {
            (0..self.n_items as u32).take(k).map(ItemId).collect()
        }
        fn inject_user(&mut self, _profile: &[ItemId]) -> UserId {
            let id = UserId(self.n_users as u32);
            self.n_users += 1;
            id
        }
        fn catalog_size(&self) -> usize {
            self.n_items
        }
    }

    fn outcome_sig(r: &Result<Vec<ItemId>, RecError>) -> String {
        match r {
            Ok(v) => format!("ok:{}", v.len()),
            Err(e) => format!("err:{e}"),
        }
    }

    #[test]
    fn transparent_config_never_faults() {
        let mut f =
            FaultyRecommender::new(Fixed { n_items: 20, n_users: 0 }, FaultConfig::default());
        for i in 0..200 {
            assert!(f.try_top_k(UserId(0), 5).is_ok(), "call {i}");
            assert!(f.try_inject_user(&[ItemId(1)]).is_ok());
        }
        assert_eq!(f.stats().total_errors(), 0);
        assert_eq!(f.calls(), 400);
        assert_eq!(f.clock(), 400);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = FaultConfig::chaos(42);
        let mut a = FaultyRecommender::new(Fixed { n_items: 20, n_users: 0 }, cfg.clone());
        let mut b = FaultyRecommender::new(Fixed { n_items: 20, n_users: 0 }, cfg);
        for _ in 0..500 {
            let ra = a.try_top_k(UserId(1), 10);
            let rb = b.try_top_k(UserId(1), 10);
            assert_eq!(outcome_sig(&ra), outcome_sig(&rb));
            let ia = a.try_inject_user(&[ItemId(3)]);
            let ib = b.try_inject_user(&[ItemId(3)]);
            assert_eq!(ia.is_ok(), ib.is_ok());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn rate_limit_fires_and_recovers_after_waiting() {
        let cfg = FaultConfig {
            rate_limit: Some(RateLimit { window: 10, max_calls: 3 }),
            ..FaultConfig::default()
        };
        let mut f = FaultyRecommender::new(Fixed { n_items: 5, n_users: 0 }, cfg);
        for _ in 0..3 {
            assert!(f.try_top_k(UserId(0), 2).is_ok());
        }
        let err = f.try_top_k(UserId(0), 2).unwrap_err();
        let RecError::RateLimited { retry_after } = err else {
            panic!("expected rate limit, got {err}");
        };
        f.wait(retry_after);
        assert!(f.try_top_k(UserId(0), 2).is_ok(), "fresh window after waiting");
    }

    #[test]
    fn suspended_accounts_stay_suspended() {
        let cfg = FaultConfig { suspend_prob: 1.0, ..FaultConfig::default() };
        let mut f = FaultyRecommender::new(Fixed { n_items: 5, n_users: 0 }, cfg);
        assert_eq!(f.try_top_k(UserId(7), 2), Err(RecError::AccountSuspended));
        assert!(f.is_suspended(UserId(7)));
        // Still suspended on the next call — and that path draws no roll.
        assert_eq!(f.try_top_k(UserId(7), 2), Err(RecError::AccountSuspended));
        assert_eq!(f.stats().suspensions, 2);
    }

    #[test]
    fn shadow_ban_returns_ghost_id_that_reads_suspended() {
        let cfg = FaultConfig { shadow_ban_prob: 1.0, ..FaultConfig::default() };
        let mut f = FaultyRecommender::new(Fixed { n_items: 5, n_users: 0 }, cfg);
        let ghost = f.try_inject_user(&[ItemId(0)]).expect("shadow ban looks like success");
        assert!(ghost.0 >= super::GHOST_BASE);
        assert!(f.is_ghost(ghost));
        // The model never saw the profile.
        assert_eq!(f.inner().n_users, 0);
        assert_eq!(f.try_top_k(ghost, 3), Err(RecError::AccountSuspended));
    }

    #[test]
    fn truncation_returns_partial_list() {
        let cfg = FaultConfig { truncate_prob: 1.0, truncate_keep: 0.5, ..FaultConfig::default() };
        let mut f = FaultyRecommender::new(Fixed { n_items: 20, n_users: 0 }, cfg);
        let err = f.try_top_k(UserId(0), 10).unwrap_err();
        let RecError::TruncatedList { items } = err else { panic!("expected truncation") };
        assert_eq!(items.len(), 5);
        assert_eq!(items[0], ItemId(0));
    }

    #[test]
    fn chaos_preset_is_hostile_but_valid() {
        let cfg = FaultConfig::chaos(1);
        assert!(cfg.validate().is_ok());
        assert!(cfg.query_fault_rate() + cfg.suspend_prob >= 0.18);
        assert!(cfg.inject_fault_rate() >= 0.18);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(FaultConfig { timeout_prob: 1.2, ..FaultConfig::default() }.validate().is_err());
        assert!(FaultConfig { timeout_prob: 0.6, unavailable_prob: 0.6, ..FaultConfig::default() }
            .validate()
            .is_err());
        assert!(FaultConfig { truncate_prob: 0.1, truncate_keep: 1.5, ..FaultConfig::default() }
            .validate()
            .is_err());
        assert!(FaultConfig {
            rate_limit: Some(RateLimit { window: 0, max_calls: 5 }),
            ..FaultConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn batched_faults_match_the_per_user_loop() {
        let cfg = FaultConfig::chaos(7);
        let mut batched = FaultyRecommender::new(Fixed { n_items: 30, n_users: 0 }, cfg.clone());
        let mut looped = FaultyRecommender::new(Fixed { n_items: 30, n_users: 0 }, cfg);
        // `% 5` with chunks of 8 puts repeated accounts inside one batch:
        // a suspension fired mid-batch must reach the user's next entry.
        let users: Vec<UserId> = (0..48u32).map(|u| UserId(u % 5)).collect();
        for chunk in users.chunks(8) {
            let rb = batched.try_top_k_batch(chunk, 10);
            let rl: Vec<_> = chunk.iter().map(|&u| looped.try_top_k(u, 10)).collect();
            assert_eq!(rb, rl, "batched and per-user fault sequences diverged");
        }
        assert_eq!(batched.clock(), looped.clock());
        assert_eq!(batched.stats(), looped.stats());
    }

    #[test]
    fn faulty_wrappers_stack() {
        // Chaos on top of chaos still satisfies the interface.
        let inner =
            FaultyRecommender::new(Fixed { n_items: 10, n_users: 0 }, FaultConfig::default());
        let mut outer = FaultyRecommender::new(inner, FaultConfig::default());
        assert!(outer.try_top_k(UserId(0), 3).is_ok());
        assert_eq!(outer.catalog_size(), 10);
        // Waits propagate to the inner clock.
        outer.wait(5);
        assert_eq!(outer.clock(), 6);
        assert_eq!(outer.inner().clock(), 6);
    }
}
