//! Per-rank workspace: an arena of reusable matrix buffers.
//!
//! The checkpointed training loop allocates thousands of short-lived
//! [`Dense`](crate::Dense) values per epoch — tape node outputs, backward
//! deltas, carry clones — whose shapes repeat exactly from block to block
//! and epoch to epoch. When a workspace is engaged on a thread, the `Dense`
//! constructors draw their backing `Vec<f32>` from a length-keyed free
//! list instead of the global allocator, and retired tapes return their
//! buffers via [`recycle`]. Steady-state epochs then run allocation-free
//! in the hot loop.
//!
//! # Bitwise-identity contract
//!
//! Buffer reuse never changes results: zero-initialised constructors
//! ([`Dense::zeros`](crate::Dense::zeros)) zero-fill recycled buffers, and
//! the overwrite-only constructor ([`Dense::scratch`](crate::Dense::scratch))
//! is used exclusively by kernels that write every output element before
//! any read. The engine-equivalence suite pins this with `to_bits`
//! comparisons against golden values captured before workspaces existed.
//!
//! # Scoping
//!
//! [`engage`] installs an arena on the *current thread* (one workspace per
//! rank thread — rank threads never share buffers, so no synchronisation is
//! needed). Nested engages reuse the outer arena: a streaming front-end can
//! engage once and keep buffers warm across the per-window trainer calls.
//! [`disable`] suppresses reuse for a scope (the arena-off reference the
//! bit-identity tests compare against).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Arena capacity cap, in `f32` elements (64 Mi ≈ 256 MB). Buffers recycled
/// beyond the cap are dropped, bounding worst-case retention when shapes
/// churn (e.g. a sliding stream whose windows keep growing).
const MAX_ARENA_ELEMS: usize = 1 << 26;

#[derive(Default)]
struct Arena {
    /// Free buffers keyed by exact length.
    free: HashMap<usize, Vec<Vec<f32>>>,
    /// Free index buffers keyed by exact length (CSR column indices and
    /// similar u32 payloads decoded by the out-of-core store).
    free_u32: HashMap<usize, Vec<Vec<u32>>>,
    /// Free row-pointer buffers keyed by exact length (CSR `indptr`).
    free_usize: HashMap<usize, Vec<Vec<usize>>>,
    /// Total elements currently held, in 4-byte units (`usize` counts
    /// double so the cap stays a byte bound across buffer kinds).
    held: usize,
}

thread_local! {
    /// `Some(arena)` while a workspace is engaged on this thread; the outer
    /// count tracks nesting depth so only the outermost guard tears down.
    static ARENA: RefCell<Option<Arena>> = const { RefCell::new(None) };
    static DEPTH: RefCell<usize> = const { RefCell::new(0) };
    static SUPPRESSED: RefCell<usize> = const { RefCell::new(0) };
}

/// Fresh backing-buffer allocations made by `Dense` constructors
/// (process-wide; the benchmark's allocations-per-epoch probe).
static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Buffers served from an engaged arena instead of the allocator.
static REUSED_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Guard returned by [`engage`]; drops the thread's arena when the
/// outermost guard goes out of scope.
pub struct WorkspaceGuard {
    outermost: bool,
}

impl Drop for WorkspaceGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| *d.borrow_mut() -= 1);
        if self.outermost {
            ARENA.with(|a| a.borrow_mut().take());
        }
    }
}

/// Engages a buffer workspace on this thread for the guard's lifetime.
/// Nested engages share the outermost arena. Honors [`disable`] scopes by
/// engaging nothing (reuse simply stays off).
pub fn engage() -> WorkspaceGuard {
    let suppressed = SUPPRESSED.with(|s| *s.borrow() > 0);
    let outermost = DEPTH.with(|d| {
        let mut d = d.borrow_mut();
        *d += 1;
        *d == 1
    });
    if outermost && !suppressed {
        ARENA.with(|a| *a.borrow_mut() = Some(Arena::default()));
    }
    WorkspaceGuard { outermost }
}

/// Guard returned by [`disable`].
pub struct DisableGuard(());

impl Drop for DisableGuard {
    fn drop(&mut self) {
        SUPPRESSED.with(|s| *s.borrow_mut() -= 1);
    }
}

/// Suppresses workspace reuse on this thread for the guard's lifetime:
/// [`engage`] calls inside the scope install nothing: the no-reuse
/// baseline the equivalence tests compare against.
pub fn disable() -> DisableGuard {
    SUPPRESSED.with(|s| *s.borrow_mut() += 1);
    DisableGuard(())
}

/// True when an arena is engaged on this thread.
pub fn is_engaged() -> bool {
    ARENA.with(|a| a.borrow().is_some())
}

/// Takes a buffer of exactly `len` elements, reporting whether it was
/// recycled (`true`: contents are stale bits) or freshly allocated
/// (`false`: already zeroed).
fn take_impl(len: usize) -> (Vec<f32>, bool) {
    let reused = ARENA.with(|a| {
        a.borrow_mut()
            .as_mut()
            .and_then(|arena| match arena.free.get_mut(&len) {
                Some(stack) => {
                    let buf = stack.pop();
                    if buf.is_some() {
                        arena.held -= len;
                    }
                    buf
                }
                None => None,
            })
    });
    match reused {
        Some(buf) => {
            debug_assert_eq!(buf.len(), len);
            REUSED_ALLOCS.fetch_add(1, Ordering::Relaxed);
            (buf, true)
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            (vec![0.0; len], false)
        }
    }
}

/// Takes a buffer of exactly `len` elements with unspecified contents
/// (recycled bits). Counts a fresh allocation when the arena has no buffer
/// of this length or no arena is engaged. Public for the out-of-core
/// store's decode path; in-crate callers go through
/// [`Dense::scratch`](crate::Dense::scratch), which documents the
/// overwrite-only contract.
pub fn take_scratch(len: usize) -> Vec<f32> {
    take_impl(len).0
}

/// Takes a zero-filled buffer of exactly `len` elements — identical
/// semantics to `vec![0.0; len]`, possibly reusing a recycled buffer.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let (mut buf, recycled) = take_impl(len);
    if recycled {
        // Fresh `vec![0.0; _]` is already zeroed; only recycled bits need it.
        buf.fill(0.0);
    }
    buf
}

/// Takes a `u32` buffer of exactly `len` elements with unspecified
/// contents — the out-of-core store decodes CSR column indices into these
/// so steady-state block reads allocate nothing. Counted in the same
/// fresh/reused statistics as the `f32` buffers.
pub fn take_scratch_u32(len: usize) -> Vec<u32> {
    let reused = ARENA.with(|a| {
        a.borrow_mut().as_mut().and_then(|arena| {
            let buf = arena.free_u32.get_mut(&len).and_then(Vec::pop);
            if buf.is_some() {
                arena.held -= len;
            }
            buf
        })
    });
    match reused {
        Some(buf) => {
            REUSED_ALLOCS.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            vec![0; len]
        }
    }
}

/// Takes a `usize` buffer of exactly `len` elements with unspecified
/// contents (CSR row pointers). See [`take_scratch_u32`].
pub fn take_scratch_usize(len: usize) -> Vec<usize> {
    let reused = ARENA.with(|a| {
        a.borrow_mut().as_mut().and_then(|arena| {
            let buf = arena.free_usize.get_mut(&len).and_then(Vec::pop);
            if buf.is_some() {
                arena.held -= 2 * len;
            }
            buf
        })
    });
    match reused {
        Some(buf) => {
            REUSED_ALLOCS.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            vec![0; len]
        }
    }
}

/// Returns a `u32` buffer to this thread's arena (no-op when no workspace
/// is engaged or the arena is at capacity).
pub fn recycle_u32(buf: Vec<u32>) {
    if buf.is_empty() {
        return;
    }
    ARENA.with(|a| {
        if let Some(arena) = a.borrow_mut().as_mut() {
            if arena.held + buf.len() <= MAX_ARENA_ELEMS {
                arena.held += buf.len();
                arena.free_u32.entry(buf.len()).or_default().push(buf);
            }
        }
    });
}

/// Returns a `usize` buffer to this thread's arena (no-op when no
/// workspace is engaged or the arena is at capacity).
pub fn recycle_usize(buf: Vec<usize>) {
    if buf.is_empty() {
        return;
    }
    ARENA.with(|a| {
        if let Some(arena) = a.borrow_mut().as_mut() {
            if arena.held + 2 * buf.len() <= MAX_ARENA_ELEMS {
                arena.held += 2 * buf.len();
                arena.free_usize.entry(buf.len()).or_default().push(buf);
            }
        }
    });
}

/// Counts a fresh backing-buffer allocation made outside the arena paths
/// (the copy constructors' direct fallback), keeping the benchmark's
/// allocations-per-epoch probe complete in both modes.
pub(crate) fn note_fresh() {
    FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Returns a backing buffer to this thread's arena. A no-op (the buffer
/// drops normally) when no workspace is engaged or the arena is at
/// capacity. Zero-length buffers are not retained.
pub fn recycle_buffer(buf: Vec<f32>) {
    if buf.is_empty() {
        return;
    }
    ARENA.with(|a| {
        if let Some(arena) = a.borrow_mut().as_mut() {
            if arena.held + buf.len() <= MAX_ARENA_ELEMS {
                arena.held += buf.len();
                arena.free.entry(buf.len()).or_default().push(buf);
            }
        }
    });
}

/// Returns a matrix's backing buffer to this thread's arena (no-op without
/// an engaged workspace).
pub fn recycle(d: crate::Dense) {
    recycle_buffer(d.into_vec());
}

/// Allocation counters since the last [`reset_alloc_stats`]:
/// `(fresh, reused)` backing-buffer acquisitions by `Dense` constructors.
pub fn alloc_stats() -> (u64, u64) {
    (
        FRESH_ALLOCS.load(Ordering::Relaxed),
        REUSED_ALLOCS.load(Ordering::Relaxed),
    )
}

/// Resets the process-wide allocation counters.
pub fn reset_alloc_stats() {
    FRESH_ALLOCS.store(0, Ordering::Relaxed);
    REUSED_ALLOCS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense;

    #[test]
    fn recycled_buffers_are_reused_and_zeroed() {
        let _ws = engage();
        let mut d = Dense::zeros(7, 3);
        d.data_mut().fill(42.0);
        recycle(d);
        let (_, reused_before) = alloc_stats();
        let d2 = Dense::zeros(7, 3);
        let (_, reused_after) = alloc_stats();
        assert_eq!(reused_after, reused_before + 1, "buffer must be reused");
        assert!(d2.data().iter().all(|&v| v == 0.0), "reuse must re-zero");
    }

    #[test]
    fn scratch_reuses_without_zeroing_cost() {
        let _ws = engage();
        let mut d = Dense::zeros(5, 5);
        d.data_mut().fill(1.5);
        recycle(d);
        // map() fully overwrites, so recycled garbage never leaks out.
        let src = Dense::full(5, 5, 2.0);
        let out = src.map(|v| v + 1.0);
        assert!(out.data().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn no_reuse_without_engaged_workspace() {
        // This test must not run under an engaged scope: fresh thread.
        std::thread::spawn(|| {
            recycle(Dense::zeros(4, 4));
            assert!(!is_engaged());
            let (_, reused0) = alloc_stats();
            let _d = Dense::zeros(4, 4);
            let (_, reused1) = alloc_stats();
            assert_eq!(reused0, reused1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_engage_shares_the_outer_arena() {
        std::thread::spawn(|| {
            let _outer = engage();
            {
                let _inner = engage();
                recycle(Dense::zeros(3, 3));
            }
            // Inner guard dropped: the arena (and its buffer) must survive.
            assert!(is_engaged());
            let (_, reused0) = alloc_stats();
            let _d = Dense::zeros(3, 3);
            let (_, reused1) = alloc_stats();
            assert_eq!(reused1, reused0 + 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn disable_scope_suppresses_engage() {
        std::thread::spawn(|| {
            let _off = disable();
            let _ws = engage();
            assert!(!is_engaged());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn index_buffers_recycle_like_f32_buffers() {
        std::thread::spawn(|| {
            let _ws = engage();
            recycle_u32(vec![7u32; 6]);
            recycle_usize(vec![9usize; 5]);
            let (_, reused0) = alloc_stats();
            let b32 = take_scratch_u32(6);
            let bus = take_scratch_usize(5);
            let (_, reused1) = alloc_stats();
            assert_eq!(reused1, reused0 + 2, "both index buffers must be reused");
            assert_eq!(b32.len(), 6);
            assert_eq!(bus.len(), 5);
            // Length mismatch falls back to a fresh (zeroed) allocation.
            let fresh = take_scratch_u32(4);
            assert_eq!(fresh, vec![0; 4]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn length_mismatch_allocates_fresh() {
        std::thread::spawn(|| {
            let _ws = engage();
            recycle(Dense::zeros(2, 2));
            let (fresh0, _) = alloc_stats();
            let _d = Dense::zeros(3, 3); // different length: no reuse
            let (fresh1, _) = alloc_stats();
            assert_eq!(fresh1, fresh0 + 1);
        })
        .join()
        .unwrap();
    }
}
