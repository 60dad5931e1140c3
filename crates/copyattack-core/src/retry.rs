//! Retrying platform calls against an unreliable target.
//!
//! The attacker's cost model (§4.5: "a limited number of queries (or
//! interactions)") does not pause for a flaky platform: every attempt —
//! including retries of failed calls — spends metered budget, and backoff
//! delays are spent in *logical time* through
//! [`FallibleBlackBox::wait`], so a
//! seeded run is exactly reproducible.

use ca_recsys::{FallibleBlackBox, RecError, SplitMix64};

/// Capped exponential backoff with seeded jitter.
///
/// Attempt `i` (0-based) waits `min(base_delay · 2^i, max_delay)` logical
/// ticks, stretched by up to `jitter` (a fraction, e.g. `0.25` = up to 25%
/// extra) drawn from the caller's [`SplitMix64`]. A
/// [`RecError::RateLimited`] overrides the computed delay with the
/// platform's own `retry_after` hint when that hint is longer.
///
/// On top of the per-attempt schedule, `max_total_wait` caps the
/// *cumulative* logical ticks one [`RetryPolicy::run`] invocation may spend
/// waiting. A rate limiter that keeps handing out large `retry_after`
/// hints would otherwise stall a campaign unboundedly; once the budget is
/// exhausted the call degrades to the typed failure that triggered the
/// final give-up.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in logical ticks.
    pub base_delay: u64,
    /// Ceiling on any single backoff wait.
    pub max_delay: u64,
    /// Jitter fraction in `[0, 1]`: each wait is stretched by
    /// `delay · jitter · U[0,1)`.
    pub jitter: f64,
    /// Cumulative wait budget (logical ticks) per `run`/`run_after`
    /// invocation. A wait that would push the running total past this cap
    /// is not taken; the triggering error is returned instead.
    pub max_total_wait: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 4, base_delay: 2, max_delay: 64, jitter: 0.25, max_total_wait: 1024 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        Self { max_retries: 0, base_delay: 0, max_delay: 0, jitter: 0.0, max_total_wait: 0 }
    }

    /// Sanity-checks the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_retries > 0 && self.max_delay < self.base_delay {
            return Err(format!(
                "max_delay {} below base_delay {}",
                self.max_delay, self.base_delay
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!("jitter {} outside [0, 1]", self.jitter));
        }
        if self.max_retries > 0 && self.max_total_wait < self.base_delay {
            return Err(format!(
                "max_total_wait {} cannot fund even one base_delay {} wait",
                self.max_total_wait, self.base_delay
            ));
        }
        Ok(())
    }

    /// The deterministic pre-jitter backoff for 0-based retry `attempt`:
    /// `min(base_delay · 2^attempt, max_delay)`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let exp = self.base_delay.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        exp.min(self.max_delay)
    }

    /// The logical-tick wait before retry `attempt` after `err`, with
    /// jitter drawn from `rng`. Honors a rate limiter's `retry_after` hint
    /// when it exceeds the computed backoff.
    pub fn delay_for(&self, attempt: u32, err: &RecError, rng: &mut SplitMix64) -> u64 {
        let base = self.backoff(attempt);
        let jittered = base + (base as f64 * self.jitter * rng.unit_f64()) as u64;
        match err {
            RecError::RateLimited { retry_after } => jittered.max(*retry_after),
            _ => jittered,
        }
    }

    /// Runs `call` against `platform`, retrying retryable errors up to
    /// `max_retries` times with backoff spent via
    /// [`FallibleBlackBox::wait`], subject to the cumulative
    /// `max_total_wait` budget. Non-retryable errors (suspensions,
    /// truncations — which carry data the caller should use) return
    /// immediately. Every attempt goes through `platform`, so metering
    /// wrappers charge retries to the attacker's budget.
    pub fn run<B: FallibleBlackBox, T>(
        &self,
        platform: &mut B,
        rng: &mut SplitMix64,
        mut call: impl FnMut(&mut B) -> Result<T, RecError>,
    ) -> Result<T, RecError> {
        match call(platform) {
            Ok(v) => Ok(v),
            Err(e) => self.run_after(e, platform, rng, call),
        }
    }

    /// Continues the retry schedule after a first attempt that already
    /// happened elsewhere and failed with `err` — the batched-query case,
    /// where the initial attempt for every user went out in one
    /// `try_top_k_batch` and only the failed entries fall back to per-user
    /// retries. [`RetryPolicy::run`] makes its first attempt and hands any
    /// failure here, so both spend the same waits, calls, and metered
    /// attempts after the same first failure.
    pub fn run_after<B: FallibleBlackBox, T>(
        &self,
        first_err: RecError,
        platform: &mut B,
        rng: &mut SplitMix64,
        mut call: impl FnMut(&mut B) -> Result<T, RecError>,
    ) -> Result<T, RecError> {
        let mut err = first_err;
        let mut attempt = 0u32;
        let mut waited = 0u64;
        loop {
            if !err.is_retryable() || attempt >= self.max_retries {
                return Err(err);
            }
            let delay = self.delay_for(attempt, &err, rng);
            match waited.checked_add(delay).filter(|&w| w <= self.max_total_wait) {
                // Budget exhausted: degrade to the typed failure instead
                // of waiting out a dead platform.
                None => return Err(err),
                Some(w) => waited = w,
            }
            platform.wait(delay);
            attempt += 1;
            match call(platform) {
                Ok(v) => return Ok(v),
                Err(e) => err = e,
            }
        }
    }
}

/// How the attack loop behaves when the platform misbehaves.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Retry schedule for individual platform calls.
    pub retry: RetryPolicy,
    /// Minimum fraction of pretend users that must answer a reward query
    /// for the round to count. Below this quorum, the sample is *skipped*
    /// (treated like a non-query step) instead of biasing the reward
    /// toward the accounts that happened to get through.
    pub min_quorum: f64,
    /// Re-establish suspended pretend users from their stored profiles
    /// (costs platform calls, charged to the attacker's metered budget).
    pub reestablish: bool,
    /// Seed for retry jitter (independent of the agent's policy seed).
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self { retry: RetryPolicy::default(), min_quorum: 0.5, reestablish: true, seed: 0x5EED }
    }
}

impl ResilienceConfig {
    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.retry.validate()?;
        if !(0.0..=1.0).contains(&self.min_quorum) {
            return Err(format!("min_quorum {} outside [0, 1]", self.min_quorum));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_recsys::{FaultConfig, FaultyRecommender, ItemId, UserId};

    /// A platform that fails the first `fail_first` calls, then succeeds.
    struct EventuallyUp {
        fail_first: u32,
        calls: u32,
        err: RecError,
    }

    impl FallibleBlackBox for EventuallyUp {
        fn try_top_k(&mut self, _u: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                Err(self.err.clone())
            } else {
                Ok(vec![ItemId(1); k])
            }
        }
        fn try_inject_user(&mut self, _p: &[ItemId]) -> Result<UserId, RecError> {
            Ok(UserId(0))
        }
        fn catalog_size(&self) -> usize {
            10
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: 2,
            max_delay: 20,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0), 2);
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(2), 8);
        assert_eq!(p.backoff(3), 16);
        assert_eq!(p.backoff(4), 20, "capped at max_delay");
        assert_eq!(p.backoff(63), 20);
        assert_eq!(p.backoff(200), 20, "shift overflow saturates at the cap");
    }

    #[test]
    fn delay_honors_retry_after() {
        let p = RetryPolicy {
            max_retries: 3,
            base_delay: 1,
            max_delay: 4,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(7);
        let d = p.delay_for(0, &RecError::RateLimited { retry_after: 50 }, &mut rng);
        assert_eq!(d, 50, "platform hint beats the computed backoff");
        let d = p.delay_for(0, &RecError::Timeout, &mut rng);
        assert_eq!(d, 1);
    }

    #[test]
    fn run_retries_until_success_and_waits_in_logical_time() {
        let p = RetryPolicy {
            max_retries: 3,
            base_delay: 2,
            max_delay: 16,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let inner = EventuallyUp { fail_first: 2, calls: 0, err: RecError::Timeout };
        // FaultyRecommender with a transparent config is used purely as a
        // logical clock so the waits are observable.
        let mut platform = FaultyRecommender::new(inner, FaultConfig::default());
        let mut rng = SplitMix64::new(1);
        let list = p.run(&mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3)).unwrap();
        assert_eq!(list.len(), 3);
        // 3 call ticks + backoffs 2 and 4 after the two failures.
        assert_eq!(platform.clock(), 3 + 2 + 4);
    }

    #[test]
    fn run_after_continues_the_schedule_like_run() {
        // Handing run_after the failure of an externally-made first attempt
        // must reproduce run()'s waits and attempt counts exactly.
        let p = RetryPolicy {
            max_retries: 3,
            base_delay: 2,
            max_delay: 16,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let inner = EventuallyUp { fail_first: 2, calls: 0, err: RecError::Timeout };
        let mut platform = FaultyRecommender::new(inner, FaultConfig::default());
        let mut rng = SplitMix64::new(1);
        let first = platform.try_top_k(UserId(0), 3).unwrap_err();
        let list =
            p.run_after(first, &mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3)).unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(platform.clock(), 3 + 2 + 4, "same logical ticks as the run() path");
    }

    #[test]
    fn run_after_fails_fast_on_non_retryable_first_error() {
        let p = RetryPolicy::default();
        let mut platform = EventuallyUp { fail_first: 0, calls: 0, err: RecError::Timeout };
        let mut rng = SplitMix64::new(1);
        let r = p.run_after(RecError::AccountSuspended, &mut platform, &mut rng, |pf| {
            pf.try_top_k(UserId(0), 3)
        });
        assert_eq!(r, Err(RecError::AccountSuspended));
        assert_eq!(platform.calls, 0, "no retry calls issued");
    }

    #[test]
    fn run_after_gives_up_after_max_retries() {
        let p = RetryPolicy {
            max_retries: 2,
            base_delay: 1,
            max_delay: 4,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut platform = EventuallyUp { fail_first: 100, calls: 0, err: RecError::Timeout };
        let mut rng = SplitMix64::new(1);
        let r = p
            .run_after(RecError::Timeout, &mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3));
        assert_eq!(r, Err(RecError::Timeout));
        assert_eq!(platform.calls, 2, "2 retries after the external first attempt");
    }

    #[test]
    fn run_gives_up_after_max_retries() {
        let p = RetryPolicy {
            max_retries: 2,
            base_delay: 1,
            max_delay: 4,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut platform = EventuallyUp { fail_first: 100, calls: 0, err: RecError::Timeout };
        let mut rng = SplitMix64::new(1);
        let r = p.run(&mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3));
        assert_eq!(r, Err(RecError::Timeout));
        assert_eq!(platform.calls, 3, "1 attempt + 2 retries");
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let p = RetryPolicy::default();
        let mut platform =
            EventuallyUp { fail_first: 100, calls: 0, err: RecError::AccountSuspended };
        let mut rng = SplitMix64::new(1);
        let r = p.run(&mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3));
        assert_eq!(r, Err(RecError::AccountSuspended));
        assert_eq!(platform.calls, 1, "suspension is not retried");
    }

    #[test]
    fn cumulative_wait_budget_degrades_to_typed_failure() {
        // A rate limiter keeps handing out a huge retry_after hint; the
        // cumulative budget caps the stall and surfaces the typed error
        // well before max_retries is exhausted.
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: 1,
            max_delay: 4,
            jitter: 0.0,
            max_total_wait: 100,
        };
        let inner = EventuallyUp {
            fail_first: 100,
            calls: 0,
            err: RecError::RateLimited { retry_after: 60 },
        };
        let mut platform = FaultyRecommender::new(inner, FaultConfig::default());
        let mut rng = SplitMix64::new(3);
        let r = p.run(&mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3));
        assert_eq!(r, Err(RecError::RateLimited { retry_after: 60 }));
        // One 60-tick wait fits the budget; the second (120 total) does
        // not, so the loop stops after two calls and one wait.
        assert_eq!(platform.clock(), 2 + 60);
    }

    #[test]
    fn wait_budget_applies_to_run_after_too() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: 1,
            max_delay: 4,
            jitter: 0.0,
            max_total_wait: 50,
        };
        let mut platform = EventuallyUp {
            fail_first: 100,
            calls: 0,
            err: RecError::RateLimited { retry_after: 60 },
        };
        let mut rng = SplitMix64::new(3);
        let first = RecError::RateLimited { retry_after: 60 };
        let r =
            p.run_after(first.clone(), &mut platform, &mut rng, |pf| pf.try_top_k(UserId(0), 3));
        assert_eq!(r, Err(first));
        assert_eq!(platform.calls, 0, "a wait the budget cannot fund is never taken");
    }

    #[test]
    fn same_seed_same_jitter_sequence() {
        let p = RetryPolicy {
            max_retries: 8,
            base_delay: 3,
            max_delay: 100,
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let delays = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..8).map(|a| p.delay_for(a, &RecError::Timeout, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(delays(9), delays(9));
        assert_ne!(delays(9), delays(10), "different seeds should jitter differently");
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(RetryPolicy {
            max_retries: 1,
            base_delay: 10,
            max_delay: 5,
            jitter: 0.0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy { jitter: 1.5, ..RetryPolicy::default() }.validate().is_err());
        assert!(RetryPolicy { max_total_wait: 0, ..RetryPolicy::default() }.validate().is_err());
        assert!(RetryPolicy::none().validate().is_ok());
        assert!(ResilienceConfig { min_quorum: -0.1, ..Default::default() }.validate().is_err());
        assert!(ResilienceConfig::default().validate().is_ok());
    }
}
