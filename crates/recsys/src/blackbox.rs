//! The black-box attack surface (§3, §4.5).
//!
//! Under the paper's threat model the attacker can do exactly two things to
//! the target platform:
//!
//! 1. create a new account and perform interactions (= inject a profile);
//! 2. look at the Top-k recommendation list shown to an account it controls
//!    (= query).
//!
//! Everything else — model architecture, parameters, other users' data — is
//! hidden. Keeping this boundary as a trait means the attack code in
//! `copyattack-core` *cannot* cheat: it never sees model internals, only
//! this interface.
//!
//! Two flavors of the boundary exist:
//!
//! - [`BlackBoxRecommender`] — the *infallible* surface used by simulation
//!   targets that always answer (the original paper setting);
//! - [`FallibleBlackBox`] — the *deployed-platform* surface where every call
//!   can fail with a [`RecError`] (rate limits, timeouts, suspensions…).
//!   Every infallible recommender is automatically fallible through a
//!   blanket impl that never errors, so attack code written against
//!   `FallibleBlackBox` runs unchanged on both.

use crate::faults::RecError;
use crate::ids::{ItemId, UserId};

/// Query-and-inject interface to a deployed recommender.
pub trait BlackBoxRecommender {
    /// The Top-k recommendation list for `user`, best first, excluding items
    /// the user already interacted with (as a deployed system would).
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId>;

    /// Batched Top-k: one list per entry of `users`, in order — semantically
    /// `users.len()` independent queries issued together, which is how the
    /// attack loop measures its Eq. 1 reward over all pretend users at once.
    ///
    /// The default loops [`BlackBoxRecommender::top_k`] so external
    /// implementations keep compiling; models in this workspace override it
    /// to score the whole batch through the shared
    /// [`ScoringEngine`](crate::engine::ScoringEngine). A platform may also
    /// answer from its own cache of earlier answers, as every engine-backed
    /// one does through [`AnswerCache`](crate::engine::AnswerCache).
    /// Either way the result must equal the per-user loop
    /// element-for-element.
    // ca-audit: allow(nested-vec) — k-sized per-query batch result, not dataset-scale state
    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        users.iter().map(|&u| self.top_k(u, k)).collect()
    }

    /// Creates a new account whose profile is `profile` (in interaction
    /// order) and returns its id. The platform may refresh representations
    /// (fold-in) as part of registering the interactions.
    fn inject_user(&mut self, profile: &[ItemId]) -> UserId;

    /// Number of items in the platform's catalog (public knowledge: the
    /// attacker can browse the site).
    fn catalog_size(&self) -> usize;
}

/// The fallible attack surface of an *unreliable* deployed platform.
///
/// Mirrors [`BlackBoxRecommender`] but every interaction can fail with a
/// [`RecError`]. Resilient attack loops (retry policies, partial rewards,
/// account re-establishment) are written against this trait; simulation
/// targets get it for free via the blanket impl below.
pub trait FallibleBlackBox {
    /// Fallible Top-k query for `user`.
    fn try_top_k(&mut self, user: UserId, k: usize) -> Result<Vec<ItemId>, RecError>;

    /// Batched fallible Top-k: one outcome per entry of `users`, in order.
    /// Each entry fails independently — a rate-limited account does not
    /// poison its batch-mates — so callers can degrade failed entries to
    /// the per-user retry path. The default loops
    /// [`FallibleBlackBox::try_top_k`], preserving per-user fault draws on
    /// unreliable platforms.
    fn try_top_k_batch(
        &mut self,
        users: &[UserId],
        k: usize,
    ) -> Vec<Result<Vec<ItemId>, RecError>> {
        users.iter().map(|&u| self.try_top_k(u, k)).collect()
    }

    /// Fallible account creation with `profile`.
    fn try_inject_user(&mut self, profile: &[ItemId]) -> Result<UserId, RecError>;

    /// Number of items in the platform's catalog.
    fn catalog_size(&self) -> usize;

    /// Advances the platform's *logical clock* by `ticks` without issuing a
    /// call — how a retry policy "sleeps" through a backoff delay or a
    /// `retry_after` hint. Reliable platforms have no clock; the default is
    /// a no-op.
    fn wait(&mut self, ticks: u64) {
        let _ = ticks;
    }
}

/// Every infallible recommender is a fallible one that never fails. This is
/// what keeps the original simulation targets and their tests working after
/// the attacker-facing API moved to `Result`.
impl<T: BlackBoxRecommender> FallibleBlackBox for T {
    fn try_top_k(&mut self, user: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
        Ok(BlackBoxRecommender::top_k(self, user, k))
    }

    fn try_top_k_batch(
        &mut self,
        users: &[UserId],
        k: usize,
    ) -> Vec<Result<Vec<ItemId>, RecError>> {
        // One infallible batch query, so engine-backed recommenders answer
        // the whole batch with a single (possibly parallel) scoring pass.
        BlackBoxRecommender::top_k_batch(self, users, k).into_iter().map(Ok).collect()
    }

    fn try_inject_user(&mut self, profile: &[ItemId]) -> Result<UserId, RecError> {
        Ok(BlackBoxRecommender::inject_user(self, profile))
    }

    fn catalog_size(&self) -> usize {
        BlackBoxRecommender::catalog_size(self)
    }
}

/// Attempt-level metering for the attack surface.
///
/// Counts queries and injections so experiments can report attacker cost
/// (the paper's "limited number of queries (or interactions)"). It counts
/// *attempts*: a query that fails and is retried three times costs four
/// metered queries — the honest accounting of attacker cost against a
/// flaky platform, where every network call spends budget whether or not
/// it succeeds. A batch costs one query per user. Infallible recommenders
/// are metered through the blanket [`FallibleBlackBox`] impl.
pub struct MeteredFallible<R> {
    inner: R,
    query_attempts: u64,
    failed_queries: u64,
    inject_attempts: u64,
    failed_injections: u64,
}

impl<R> MeteredFallible<R> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            query_attempts: 0,
            failed_queries: 0,
            inject_attempts: 0,
            failed_injections: 0,
        }
    }

    /// Top-k attempts so far (successful + failed).
    pub fn queries(&self) -> u64 {
        self.query_attempts
    }

    /// Top-k attempts that returned an error.
    pub fn failed_queries(&self) -> u64 {
        self.failed_queries
    }

    /// Injection attempts so far (successful + failed).
    pub fn inject_attempts(&self) -> u64 {
        self.inject_attempts
    }

    /// Injections that landed (attempts minus failures).
    pub fn injections(&self) -> u64 {
        self.inject_attempts - self.failed_injections
    }

    /// Injection attempts that returned an error.
    pub fn failed_injections(&self) -> u64 {
        self.failed_injections
    }

    /// Unwraps the inner platform.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Shared reference to the inner platform (owner-side evaluation).
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: FallibleBlackBox> FallibleBlackBox for MeteredFallible<R> {
    fn try_top_k(&mut self, user: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
        self.query_attempts += 1;
        let r = self.inner.try_top_k(user, k);
        if r.is_err() {
            self.failed_queries += 1;
        }
        r
    }

    fn try_top_k_batch(
        &mut self,
        users: &[UserId],
        k: usize,
    ) -> Vec<Result<Vec<ItemId>, RecError>> {
        // One attempt per user in the batch, failures counted per entry.
        self.query_attempts += users.len() as u64;
        let rs = self.inner.try_top_k_batch(users, k);
        self.failed_queries += rs.iter().filter(|r| r.is_err()).count() as u64;
        rs
    }

    fn try_inject_user(&mut self, profile: &[ItemId]) -> Result<UserId, RecError> {
        self.inject_attempts += 1;
        let r = self.inner.try_inject_user(profile);
        if r.is_err() {
            self.failed_injections += 1;
        }
        r
    }

    fn catalog_size(&self) -> usize {
        self.inner.catalog_size()
    }

    fn wait(&mut self, ticks: u64) {
        self.inner.wait(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal fake: recommends the newest items, profile-agnostic.
    struct Newest {
        n_items: usize,
        n_users: usize,
    }

    impl BlackBoxRecommender for Newest {
        fn top_k(&self, _user: UserId, k: usize) -> Vec<ItemId> {
            (0..self.n_items as u32).rev().take(k).map(ItemId).collect()
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

    #[test]
    fn fallible_batch_is_metered_per_user_with_failures() {
        /// Fails queries for odd user ids.
        struct OddDown;
        impl FallibleBlackBox for OddDown {
            fn try_top_k(&mut self, u: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
                if u.0 % 2 == 1 {
                    Err(RecError::Timeout)
                } else {
                    Ok(vec![ItemId(0); k])
                }
            }
            fn try_inject_user(&mut self, _p: &[ItemId]) -> Result<UserId, RecError> {
                Ok(UserId(0))
            }
            fn catalog_size(&self) -> usize {
                4
            }
        }
        let mut m = MeteredFallible::new(OddDown);
        let users: Vec<UserId> = (0..5u32).map(UserId).collect();
        let rs = m.try_top_k_batch(&users, 2);
        assert_eq!(rs.len(), 5);
        assert_eq!(m.queries(), 5, "a 5-user batch is 5 attempts");
        assert_eq!(m.failed_queries(), 2, "users 1 and 3 failed");
        assert!(rs[1].is_err() && rs[3].is_err());
        assert!(rs[0].is_ok() && rs[2].is_ok() && rs[4].is_ok());
    }

    #[test]
    fn default_batch_matches_sequential_queries() {
        let mut rec = Newest { n_items: 8, n_users: 0 };
        let users = [UserId(0), UserId(1)];
        let batch = BlackBoxRecommender::top_k_batch(&rec, &users, 3);
        for (i, &u) in users.iter().enumerate() {
            assert_eq!(batch[i], rec.top_k(u, 3));
        }
        let fallible = rec.try_top_k_batch(&users, 3);
        for (i, r) in fallible.into_iter().enumerate() {
            assert_eq!(r.expect("blanket impl never fails"), batch[i]);
        }
    }

    #[test]
    fn blanket_fallible_impl_never_fails() {
        let mut rec = Newest { n_items: 6, n_users: 0 };
        let list = rec.try_top_k(UserId(0), 3).expect("infallible blanket");
        assert_eq!(list.len(), 3);
        let id = rec.try_inject_user(&[ItemId(2)]).expect("infallible blanket");
        assert_eq!(id, UserId(0));
        assert_eq!(FallibleBlackBox::catalog_size(&rec), 6);
        rec.wait(100); // no clock on a reliable platform: no-op
    }

    #[test]
    fn metered_fallible_counts_attempts_and_failures() {
        /// Fails every other query.
        struct Flaky {
            calls: u64,
        }
        impl FallibleBlackBox for Flaky {
            fn try_top_k(&mut self, _u: UserId, k: usize) -> Result<Vec<ItemId>, RecError> {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    Err(RecError::Timeout)
                } else {
                    Ok(vec![ItemId(0); k])
                }
            }
            fn try_inject_user(&mut self, _p: &[ItemId]) -> Result<UserId, RecError> {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    Err(RecError::ServiceUnavailable)
                } else {
                    Ok(UserId(9))
                }
            }
            fn catalog_size(&self) -> usize {
                4
            }
        }

        let mut m = MeteredFallible::new(Flaky { calls: 0 });
        assert!(m.try_top_k(UserId(0), 2).is_ok());
        assert!(m.try_top_k(UserId(0), 2).is_err());
        assert!(m.try_inject_user(&[]).is_ok());
        assert!(m.try_inject_user(&[]).is_err());
        assert_eq!(m.queries(), 2);
        assert_eq!(m.failed_queries(), 1);
        assert_eq!(m.inject_attempts(), 2);
        assert_eq!(m.injections(), 1);
        assert_eq!(m.failed_injections(), 1);
    }
}
