//! Pins the allocation-free BPR training step.
//!
//! `ca_train::fit` owns one gradient slot per minibatch position, and each
//! model keeps its forward and backward scratch in that slot, so once the
//! buffers have grown a training step touches the heap not at all. What is
//! left is per-fit and per-epoch set-up (model init, the GNN's cache
//! rebuilds, validation), amortised over every trained pair.
//!
//! This binary installs a counting global allocator. It counts on the
//! calling thread only, so tests running side by side on the harness's
//! threads do not see each other's allocations.

use copyattack::gnn::GnnConfig;
use copyattack::mf::BprConfig;
use copyattack::ncf::NcfConfig;
use copyattack::recsys::{Dataset, DatasetBuilder, ItemId};
use copyattack::train::History;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The ceiling on heap allocations per trained pair, set-up included.
const MAX_ALLOCS_PER_PAIR: f64 = 0.5;

thread_local! {
    /// Allocations made by this thread. A const-initialised `Cell` needs no
    /// lazy set-up, so bumping it never re-enters the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, plus a per-thread count of alloc, alloc_zeroed and realloc
/// calls.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the returned memory; the added counting
// touches only a thread-local `Cell<u64>` and never allocates.
#[expect(unsafe_code, reason = "a counting global allocator must implement the unsafe GlobalAlloc")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 300 users × 30 distinct items over a 200-item catalog: 9,000 training
/// pairs per epoch.
fn world() -> Dataset {
    let mut b = DatasetBuilder::new(200);
    for u in 0..300u32 {
        let profile: Vec<ItemId> = (0..30).map(|i| ItemId((u * 37 + i * 13) % 200)).collect();
        b.user(&profile);
    }
    b.build()
}

/// Heap allocations per trained pair over one whole training run.
fn allocs_per_pair(train: impl FnOnce(&mut History)) -> f64 {
    let mut hist = History::new();
    let before = ALLOCS.with(Cell::get);
    train(&mut hist);
    let allocs = ALLOCS.with(Cell::get) - before;
    let pairs: usize = hist.epochs.iter().map(|e| e.pairs).sum();
    assert!(pairs >= 18_000, "expected two epochs of 9,000 pairs, got {pairs} pairs");
    allocs as f64 / pairs as f64
}

#[test]
fn mf_training_makes_at_most_half_an_allocation_per_pair() {
    let ds = world();
    let cfg = BprConfig { max_epochs: 2, seed: 1, ..Default::default() };
    let rate = allocs_per_pair(|h| {
        copyattack::mf::train_observed(&ds, &cfg, h);
    });
    assert!(rate <= MAX_ALLOCS_PER_PAIR, "MF: {rate:.3} allocations per pair");
}

#[test]
fn ncf_training_makes_at_most_half_an_allocation_per_pair() {
    let ds = world();
    let cfg = NcfConfig { max_epochs: 2, seed: 2, ..Default::default() };
    // No validation pairs: NCF's validation scoring is not a training step.
    let rate = allocs_per_pair(|h| {
        copyattack::ncf::train_observed(&ds, &[], &cfg, h);
    });
    assert!(rate <= MAX_ALLOCS_PER_PAIR, "NCF: {rate:.3} allocations per pair");
}

#[test]
fn gnn_training_makes_at_most_half_an_allocation_per_pair() {
    let ds = world();
    let cfg = GnnConfig { max_epochs: 2, seed: 3, ..Default::default() };
    let rate = allocs_per_pair(|h| {
        copyattack::gnn::train_observed(&ds, &[], &cfg, h);
    });
    assert!(rate <= MAX_ALLOCS_PER_PAIR, "GNN: {rate:.3} allocations per pair");
}
