//! The sparse presolve's heap allocations do not grow with the matrix.
//!
//! The presolve keeps its rows, column occurrences, set-asides, component
//! split and output in flat arrays, so one `SparseMatrix::rref` call makes a
//! bounded number of allocations whatever the row count. A counting global
//! allocator — this test binary's own, so the library crates keep
//! `forbid(unsafe_code)` — tallies the allocations one call makes on two
//! XL expansions of an SR-[4,2,2,4] system, cut at 2,000 and 8,000 rows
//! (one `small-mix` XL round on SR-[1,2,2,4] expands to about 2,000).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bosphorus_repro::anf::{Monomial, PolynomialSystem, TermScratch};
use bosphorus_repro::ciphers::aes;
use bosphorus_repro::core::{CancelToken, LinearizationBuilder};
use bosphorus_repro::gf2::SparseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the allocations (and reallocations) of the calling thread, so the
/// test harness's other threads cannot disturb the tally.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// The degree-1 XL expansion of `system`, stopped at `rows` rows, as the
/// sparse matrix the presolve receives.
fn xl_expansion(system: &PolynomialSystem, rows: usize) -> SparseMatrix {
    let mut vars: Vec<_> = system.iter().flat_map(|p| p.variables()).collect();
    vars.sort_unstable();
    vars.dedup();
    let multipliers: Vec<Monomial> = vars.into_iter().map(Monomial::variable).collect();
    let mut builder = LinearizationBuilder::new();
    let mut scratch = TermScratch::new();
    'expansion: for base in system.iter() {
        builder.push(base);
        for m in &multipliers {
            if builder.num_rows() >= rows {
                break 'expansion;
            }
            builder.push_product(base, m, &mut scratch);
        }
    }
    assert_eq!(builder.num_rows(), rows, "the system expands far enough");
    builder.finish().matrix().clone()
}

/// Allocations of one presolve call (the input is built beforehand).
fn presolve_allocations(m: SparseMatrix) -> (usize, usize) {
    let before = allocations();
    let rref = m.rref(&CancelToken::never(), |_| true);
    let made = allocations() - before;
    (made, rref.presolve.dense_rows)
}

#[test]
fn presolve_allocations_do_not_grow_with_the_rows() {
    let mut rng = StdRng::seed_from_u64(1);
    let system = aes::generate(aes::AesParams::small(4), &mut rng).system;
    let (small, small_core) = presolve_allocations(xl_expansion(&system, 2_000));
    let (large, large_core) = presolve_allocations(xl_expansion(&system, 8_000));
    assert!(
        large_core > small_core,
        "the larger expansion leaves a larger dense core ({small_core} vs {large_core} rows)"
    );
    // A few doubling growths of the reused buffers and the dense kernel's
    // bounded per-call scratch; nothing per row, column or rule firing.
    assert!(
        large <= small + 64,
        "2k rows: {small} allocations, 8k rows: {large} allocations"
    );
    assert!(large < 400, "8k rows: {large} allocations");
}
