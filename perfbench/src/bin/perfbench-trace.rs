//! The traced run: per-layer self-time and counters of one workload.
//!
//! `perfbench-trace --workload <name> --seed <n> --seconds <s>` prints
//! every per-layer metric with its unit, then one JSON result line. Exits
//! non-zero without a result if the traced run does not reproduce the
//! untraced one. This binary installs a counting allocator for
//! `alloc.per_event`; the timed binary does not, so its timings carry no
//! counting cost.

use aqf_perfbench::{cli, traced};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts heap acquisitions (`alloc` and `realloc`) and forwards to the
/// system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    match traced::run(
        w,
        args.seed,
        w.requests_per_client(),
        args.budget,
        allocations,
    ) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("traced run failed: {why}");
            ExitCode::FAILURE
        }
    }
}
