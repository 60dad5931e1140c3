//! Deterministic parallel runtime for the offline pipeline.
//!
//! Every parallel construct in this workspace routes through this crate,
//! and every one of them obeys a single contract: **the result is bitwise
//! identical at any thread count**. That holds because nothing here lets
//! scheduling order leak into results:
//!
//! - [`map`] returns outputs in input order — each slot is the pure
//!   function of its input, so which worker computed it is invisible;
//!   a caller that reduces the outputs folds them serially, in that order;
//! - [`join`] runs two independent closures of different result types
//!   side by side and returns both results as a pair — each closure owns
//!   its inputs and random streams, so neither can see which thread ran it
//!   or when the other finished;
//! - [`SeedSplit`] derives statistically independent RNG seeds from a
//!   parent seed and a *stable task index* (SplitMix64-style mixing), so a
//!   task's random stream is a function of its position in the work tree,
//!   not of the thread that ran it.
//!
//! Thread count comes from one process-wide knob: the `CA_THREADS`
//! environment variable (read once), defaulting to
//! `std::thread::available_parallelism()`, overridable at runtime with
//! [`set_threads`] (used by benches and parity tests to sweep thread counts
//! inside one process). Workers are plain `std::thread::scope` threads —
//! no pools, no external dependencies, no unsafe.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Runtime override set by [`set_threads`]; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `CA_THREADS` (or `available_parallelism`) — resolved once per process.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// The process-wide worker count used by every construct in this crate.
///
/// Resolution order: the [`set_threads`] override if one is active, else
/// the `CA_THREADS` environment variable (parsed once, first use wins),
/// else `std::thread::available_parallelism()`. Always at least 1.
pub fn threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    *ENV_THREADS.get_or_init(|| {
        std::env::var("CA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Overrides the process-wide thread count (`Some(n)`) or restores the
/// `CA_THREADS`/`available_parallelism` default (`None`).
///
/// Safe to flip at any time: every construct in this crate produces
/// bitwise-identical results at any thread count, so a concurrent override
/// can change *wall-clock*, never *values*.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Derives per-task RNG seeds from a parent seed and a stable task index.
///
/// The derivation is two rounds of the SplitMix64 finalizer over
/// `parent ⊕ (index + 1) · φ64`, which decorrelates sibling streams even
/// for adjacent indices and never collides a child with its parent
/// (index + 1 keeps child 0 distinct). Because the index names the task's
/// *position* (child number, minibatch slot, target number) rather than an
/// execution order, the same work tree yields the same seeds at any thread
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedSplit {
    seed: u64,
}

impl SeedSplit {
    /// Wraps a parent seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// This node's own seed (feed to `StdRng::seed_from_u64`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The splitter for stable child task `index`.
    pub fn child(&self, index: u64) -> SeedSplit {
        SeedSplit { seed: split_seed(self.seed, index) }
    }
}

/// Functional form of [`SeedSplit::child`]: the derived seed for stable
/// task `index` under `parent`.
pub fn split_seed(parent: u64, index: u64) -> u64 {
    let mut z = parent ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Two SplitMix64 finalizer rounds.
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Runs two independent closures and returns both results: `(a(), b())`.
///
/// At [`threads`] ≥ 2, `a` runs on one scoped worker while `b` runs on the
/// calling thread; at one thread both run on the caller, `a` first. The
/// closures share nothing mutable and each owns the random streams it
/// draws from, so the pair is the same at any thread count — only wall
/// time changes. A panic in `a` reaches the caller through
/// [`std::panic::resume_unwind`] once `b` has returned.
///
/// Unlike [`map`], the two results may have different types; the fan-out
/// is fixed at two, so a caller adds at most one thread.
#[expect(
    clippy::disallowed_methods,
    reason = "ca-par is the runtime every other crate's threads go through"
)]
pub fn join<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    if threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(a);
        let rb = b();
        let ra = worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (ra, rb)
    })
}

/// Deterministic parallel map: `out[i] = f(i, &items[i])`, in input order.
///
/// Work is handed out as contiguous chunks through an atomic cursor (cheap
/// dynamic load balancing for uneven tasks like per-target attacks);
/// since each output slot depends only on its own input, scheduling cannot
/// affect the result. Runs inline on the calling thread when one worker
/// suffices.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let t = threads().min(n);
    if t <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    // Chunk grain: enough chunks for balancing, few enough to keep the
    // cursor cold. Purely a scheduling choice — results are order-blind.
    let grain = n.div_ceil(t * 4).max(1);
    let n_chunks = n.div_ceil(grain);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    #[expect(
        clippy::disallowed_methods,
        reason = "ca-par is the runtime every other crate's threads go through"
    )]
    std::thread::scope(|scope| {
        for _ in 0..t {
            scope.spawn(|| loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let start = c * grain;
                let end = (start + grain).min(n);
                let out: Vec<R> =
                    items[start..end].iter().enumerate().map(|(j, x)| f(start + j, x)).collect();
                parts.lock().expect("ca-par worker poisoned the part list").push((start, out));
            });
        }
    });
    let mut parts = parts.into_inner().expect("ca-par worker poisoned the part list");
    parts.sort_unstable_by_key(|&(start, _)| start);
    debug_assert_eq!(parts.iter().map(|(_, p)| p.len()).sum::<usize>(), n);
    parts.into_iter().flat_map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that sets the thread override, so one test's
    /// override cannot land in the middle of another's.
    static OVERRIDE: Mutex<()> = Mutex::new(());

    fn hold_override() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` at several worker counts and asserts all results agree.
    fn at_thread_counts<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
        let _held = hold_override();
        set_threads(Some(1));
        let base = f();
        for t in [2, 3, 8] {
            set_threads(Some(t));
            assert_eq!(f(), base, "thread count {t} changed the result");
        }
        set_threads(None);
        base
    }

    #[test]
    fn threads_is_at_least_one() {
        let _held = hold_override();
        set_threads(None);
        assert!(threads() >= 1);
        set_threads(Some(6));
        assert_eq!(threads(), 6);
        set_threads(None);
    }

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let out = at_thread_counts(|| map(&items, |i, &x| x * 2 + i as u64));
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |_, &x| x).is_empty());
        assert_eq!(map(&[7u32], |i, &x| x + i as u32), vec![7]);
    }

    #[test]
    fn join_at_one_thread_runs_a_then_b_on_the_caller() {
        let _held = hold_override();
        set_threads(Some(1));
        let caller = std::thread::current().id();
        let log = Mutex::new(Vec::new());
        let record = |name: &'static str| {
            log.lock().unwrap().push((name, std::thread::current().id()));
            name
        };
        assert_eq!(join(|| record("a"), || record("b")), ("a", "b"));
        assert_eq!(log.into_inner().unwrap(), vec![("a", caller), ("b", caller)]);
        set_threads(None);
    }

    #[test]
    fn join_at_two_threads_runs_a_on_a_worker_and_b_on_the_caller() {
        let _held = hold_override();
        set_threads(Some(2));
        let caller = std::thread::current().id();
        let (a, b) = join(|| std::thread::current().id(), || std::thread::current().id());
        assert_ne!(a, caller);
        assert_eq!(b, caller);
        set_threads(None);
    }

    #[test]
    fn join_returns_the_one_thread_pair_at_any_thread_count() {
        // Two results of different types, as the set-up chains return.
        let items: Vec<u64> = (0..1000).collect();
        at_thread_counts(|| {
            join(
                || items.iter().fold(0u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x)),
                || items.iter().map(|&x| format!("{x:x}")).collect::<String>(),
            )
        });
    }

    #[test]
    fn join_passes_a_panic_in_a_to_the_caller() {
        let _held = hold_override();
        for t in [1, 2] {
            set_threads(Some(t));
            let caught = std::panic::catch_unwind(|| join(|| panic!("a failed"), || 7));
            let payload = caught.expect_err("the panic in `a` must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"a failed"), "at {t} threads");
        }
        set_threads(None);
    }

    #[test]
    fn seed_split_is_stable_and_decorrelated() {
        let root = SeedSplit::new(42);
        assert_eq!(root.child(3).seed(), root.child(3).seed());
        assert_eq!(root.child(3).seed(), split_seed(42, 3));
        // Siblings and parent/child must not collide.
        #[expect(
            clippy::disallowed_types,
            reason = "membership-only set in a test; never iterated"
        )]
        let mut seen = std::collections::HashSet::new();
        seen.insert(root.seed());
        for i in 0..1000 {
            assert!(seen.insert(root.child(i).seed()), "seed collision at child {i}");
        }
        // Nested derivation differs from flat derivation.
        assert_ne!(root.child(0).child(0).seed(), root.child(0).seed());
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Heavier tasks at the front so dynamic scheduling actually
        // reorders execution; output order must be unaffected.
        let items: Vec<usize> = (0..64).collect();
        let out = at_thread_counts(|| {
            map(&items, |_, &x| {
                let spin = if x < 8 { 20_000 } else { 10 };
                let mut acc = x as u64;
                for i in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                (x, acc)
            })
        });
        assert!(out.iter().enumerate().all(|(i, &(x, _))| x == i));
    }
}
