//! The counting global allocator — the only unsafe code in the
//! benchmark. Counts every allocation (and the growing side of every
//! reallocation) made by any thread of the process.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain statistics that
// publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, with the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` requested since process start. Monotone.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_see_allocations() {
        let (a0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (a1, b1) = snapshot();
        assert!(a1 > a0, "the allocation was counted");
        assert!(b1 >= b0 + 4096, "its bytes were counted");
        drop(std::hint::black_box(v));
        let (a2, b2) = snapshot();
        assert!(a2 >= a1 && b2 >= b1, "frees never lower the counters");
        let mut s = String::with_capacity(8);
        s.push_str("growing past the first capacity forces a realloc");
        let (a3, b3) = snapshot();
        assert!(a3 > a2 && b3 > b2, "reallocations are counted too");
        std::hint::black_box(s);
    }
}
