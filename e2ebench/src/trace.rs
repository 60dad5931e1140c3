//! Span recording at the benchmark's layer boundaries.
//!
//! Wall-clock time is read here, at the benchmark's edge; the program
//! itself stays free of it. A span records its name, start, end, parent
//! and the run it belongs to, and spans stay in memory until the benchmark
//! writes them out. A thread-local stack of open spans gives each new span
//! its parent, so the spans of the platform wrapper ([`Traced`]) nest
//! under whichever attack call issued them.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use copyattack::recsys::{BlackBoxRecommender, ItemId, UserId};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-boundary name, such as `engine.round`.
    pub name: &'static str,
    /// Unique id, counting from 1.
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Id shared by every span of one attack run; 0 outside runs.
    pub run: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Workers sharing the wall clock while the span ran: 1 on the driving
    /// thread, the fan-out width inside `ca-par` workers.
    pub lanes: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Where a thread's next span attaches.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    id: u64,
    run: u64,
    lanes: u32,
}

/// Outside every span: a root on the driving thread.
const ROOT: Ctx = Ctx { id: 0, run: 0, lanes: 1 };

thread_local! {
    static OPEN: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// Counters of the batched rounds, which a span cannot carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundCounts {
    /// Σ users × catalog size: the scores the rounds computed.
    pub score_cells: u64,
    /// Σ distinct items injected since each round's previous round.
    pub touched: u64,
    /// Σ catalog size: the denominator of the touched share.
    pub catalog: u64,
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_run: AtomicU64,
    spans: Mutex<Vec<Span>>,
    rounds: Mutex<RoundCounts>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            rounds: Mutex::new(RoundCounts::default()),
        })
    }

    /// Times `f` as span `name` under this thread's innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let at = current().unwrap_or(ROOT);
        let _open = self.open(name, at, at.run);
        f()
    }

    /// Like [`Tracer::span`], but the span starts a run: it and every span
    /// below it share a fresh run id.
    pub fn run_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let at = current().unwrap_or(ROOT);
        // Ids only need to be unique; they publish no other data.
        let run = self.next_run.fetch_add(1, Ordering::Relaxed) + 1;
        let _open = self.open(name, at, run);
        f()
    }

    fn open(&self, name: &'static str, at: Ctx, run: u64) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        OPEN.with(|s| s.borrow_mut().push(Ctx { id, run, lanes: at.lanes }));
        Open {
            tracer: self,
            name,
            id,
            parent: at.id,
            run,
            lanes: at.lanes,
            start_ns: self.now_ns(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Counts one batched round: `users` queries over `catalog` items, with
    /// `touched` distinct items injected since the previous round.
    pub fn note_round(&self, users: usize, touched: usize, catalog: usize) {
        let mut r = self.rounds.lock().expect("the round counters are never held across a panic");
        r.score_cells += (users * catalog) as u64;
        r.touched += touched as u64;
        r.catalog += catalog as u64;
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("the span store is never held across a panic").clone()
    }

    /// The batched-round counters.
    pub fn round_counts(&self) -> RoundCounts {
        *self.rounds.lock().expect("the round counters are never held across a panic")
    }
}

/// An open span; dropping it, also while unwinding, records it.
struct Open<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    run: u64,
    lanes: u32,
    start_ns: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            run: self.run,
            start_ns: self.start_ns,
            end_ns,
            lanes: self.lanes,
        };
        // A poisoned store means another thread panicked mid-push; losing
        // this span beats panicking inside `drop`.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// This thread's innermost open span, to hand to fan-out workers.
pub fn current() -> Option<Ctx> {
    OPEN.with(|s| s.borrow().last().copied())
}

/// Runs `f` on a fan-out worker as if inside `ctx`, with `lanes` workers
/// sharing the wall clock. Without a context it just runs `f`.
pub fn adopt<T>(ctx: Option<Ctx>, lanes: u32, f: impl FnOnce() -> T) -> T {
    let Some(ctx) = ctx else { return f() };
    OPEN.with(|s| s.borrow_mut().push(Ctx { lanes, ..ctx }));
    let out = f();
    OPEN.with(|s| {
        s.borrow_mut().pop();
    });
    out
}

/// [`Tracer::span`] when tracing, a bare call otherwise.
pub fn span<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// [`Tracer::run_span`] when tracing, a bare call otherwise.
pub fn run_span<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.run_span(name, f),
        None => f(),
    }
}

/// The per-layer self-time metrics; the last takes what no layer claims.
pub const LAYERS: [&str; 13] = [
    "datagen.generate_s",
    "train.source_mf_s",
    "train.target_mf_s",
    "train.gnn_s",
    "train.victims_s",
    "core.build_s",
    "core.policy_self_s",
    "engine.round_s",
    "engine.single_s",
    "platform.inject_s",
    "platform.clone_s",
    "eval.promotion_s",
    "trace.unattributed_s",
];

/// The layer metric a span's self time counts toward. The benchmark's own
/// spans (the root, set-up glue, passes and runs, and so idle fan-out
/// workers) count as unattributed.
fn layer_of(name: &str) -> &'static str {
    match name {
        "datagen.generate" | "datagen.split" => "datagen.generate_s",
        "train.source_mf" => "train.source_mf_s",
        "train.target_mf" => "train.target_mf_s",
        "train.gnn" => "train.gnn_s",
        "train.victims" => "train.victims_s",
        "core.build" => "core.build_s",
        "core.prepare" | "core.run" => "core.policy_self_s",
        "engine.round" => "engine.round_s",
        "engine.single" => "engine.single_s",
        "platform.inject" => "platform.inject_s",
        "platform.clone" => "platform.clone_s",
        "eval.promotion" => "eval.promotion_s",
        _ => "trace.unattributed_s",
    }
}

/// Self time per layer, in wall seconds. A span's self time is its
/// duration minus its children's. Inside a fan-out of `lanes` workers a
/// span counts `1/lanes` of its duration, so idle workers stay in the
/// parent's share and the layers always add up to the roots' wall time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let names: BTreeMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let share = s.secs() / f64::from(s.lanes.max(1));
        *out.entry(layer_of(s.name)).or_default() += share;
        if let Some(parent) = names.get(&s.parent) {
            *out.entry(layer_of(parent)).or_default() -= share;
        }
    }
    out
}

/// Durations of every span called `name`, in microseconds, ascending.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut d: Vec<f64> = spans.iter().filter(|s| s.name == name).map(|s| s.secs() * 1e6).collect();
    d.sort_by(f64::total_cmp);
    d
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 112);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"lanes\": {}}}",
            s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns, s.lanes
        );
    }
    std::fs::write(path, out)
}

/// The victim behind a timing wrapper: `top_k_batch`, `top_k`,
/// `inject_user`, `catalog_size` and `clone` forward to the victim's own
/// implementations, all but `catalog_size` inside a span.
///
/// Forwarding `top_k_batch` matters: the trait's default would answer a
/// batched reward round with one `top_k` per user and so time a different
/// program.
pub struct Traced<R> {
    inner: R,
    tracer: Arc<Tracer>,
    /// Batched rounds this copy of the platform answered.
    rounds: Cell<u64>,
    /// Distinct items injected since this copy's last batched round.
    touched: RefCell<BTreeSet<u32>>,
}

impl<R> Traced<R> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: R, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer, rounds: Cell::new(0), touched: RefCell::new(BTreeSet::new()) }
    }

    /// Batched rounds answered since this copy was made.
    pub fn rounds(&self) -> u64 {
        self.rounds.get()
    }

    /// The victim.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Clone> Clone for Traced<R> {
    /// A fresh copy of the platform, as each episode's environment gets:
    /// the victim's clone is timed and the counters start empty.
    fn clone(&self) -> Self {
        let inner = self.tracer.span("platform.clone", || self.inner.clone());
        Self::new(inner, Arc::clone(&self.tracer))
    }
}

impl<R: BlackBoxRecommender> BlackBoxRecommender for Traced<R> {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.tracer.span("engine.single", || self.inner.top_k(user, k))
    }

    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        self.rounds.set(self.rounds.get() + 1);
        let touched = std::mem::take(&mut *self.touched.borrow_mut()).len();
        self.tracer.note_round(users.len(), touched, self.inner.catalog_size());
        self.tracer.span("engine.round", || self.inner.top_k_batch(users, k))
    }

    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        self.touched.get_mut().extend(profile.iter().map(|v| v.0));
        let inner = &mut self.inner;
        self.tracer.span("platform.inject", || inner.inject_user(profile))
    }

    fn catalog_size(&self) -> usize {
        self.inner.catalog_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, id: u64, parent: u64, ms: (u64, u64), lanes: u32) -> Span {
        Span {
            name,
            id,
            parent,
            run: 0,
            start_ns: ms.0 * 1_000_000,
            end_ns: ms.1 * 1_000_000,
            lanes,
        }
    }

    /// Self times add up to the root's wall time, with a two-lane
    /// fan-out's idle share left to the span that fanned out.
    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = [
            mk("traced", 1, 0, (0, 100), 1),
            mk("attack_phase", 2, 1, (10, 90), 1),
            mk("run", 3, 2, (10, 80), 2),
            mk("core.run", 4, 3, (20, 70), 2),
            mk("engine.round", 5, 4, (30, 40), 2),
            mk("run", 6, 2, (10, 50), 2),
        ];
        let t = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t["engine.round_s"], 0.005));
        assert!(close(t["core.policy_self_s"], 0.020));
        // Root 20 ms, phase 80 − (70 + 40)/2 = 25 ms, runs 10 + 20 ms.
        assert!(close(t["trace.unattributed_s"], 0.075));
        assert!(close(t.values().sum::<f64>(), 0.100));
    }

    /// The wrapper hands whole batches to the victim, never the per-user
    /// default; it counts rounds per copy and times clones.
    #[test]
    fn traced_forwards_batches_and_counts_per_copy() {
        #[derive(Clone)]
        struct BatchOnly;
        impl BlackBoxRecommender for BatchOnly {
            fn top_k(&self, _: UserId, _: usize) -> Vec<ItemId> {
                unreachable!("a batched round must not fall back to per-user scoring")
            }
            fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
                users.iter().map(|_| (0..k as u32).map(ItemId).collect()).collect()
            }
            fn inject_user(&mut self, _: &[ItemId]) -> UserId {
                UserId(0)
            }
            fn catalog_size(&self) -> usize {
                10
            }
        }
        let tracer = Tracer::new();
        let mut rec = Traced::new(BatchOnly, Arc::clone(&tracer));
        rec.inject_user(&[ItemId(1), ItemId(2), ItemId(1)]);
        assert_eq!(rec.top_k_batch(&[UserId(0), UserId(1)], 3).len(), 2);
        assert_eq!(rec.rounds(), 1);
        assert_eq!(rec.clone().rounds(), 0);
        let rc = tracer.round_counts();
        assert_eq!((rc.score_cells, rc.touched, rc.catalog), (20, 2, 10));
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["platform.inject", "engine.round", "platform.clone"]);
    }
}
