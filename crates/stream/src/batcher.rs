//! Delta batching: turning a run of events directly into a §3.2
//! [`GraphDiff`] — no prev/next CSR comparison required.
//!
//! `dgnn_graph::diff` derives the edit lists by merging two *finished*
//! snapshots, an `O(nnz)` scan per pair. The batcher instead watches the
//! events as they stream in and classifies every touched edge against its
//! state at the last flush, so the edit lists cost `O(Δ log Δ)` — paid
//! only for what actually changed. The emitted diff feeds the existing
//! [`dgnn_graph::reconstruct`] unchanged, which is what keeps the window
//! advance `O(Δ + nnz)` (a linear merge) instead of a full
//! `O(nnz log nnz)` rebuild.

use std::cell::RefCell;

use dgnn_graph::GraphDiff;
use dgnn_tensor::Csr;

use crate::event::EdgeEvent;
use crate::streaming::StreamingGraph;

/// Row-major sorted `(src, dst)` pairs — one side of a diff's edit lists.
type EditList = Vec<(u32, u32)>;

/// Accumulates events and emits [`GraphDiff`]s against the last flush.
#[derive(Clone, Debug)]
pub struct DeltaBatcher {
    graph: StreamingGraph,
    /// Append-only journal of touches since the last flush: `(src, dst,
    /// weight before the event)` (`None` = absent). Appending is O(1) per
    /// event; flush stable-sorts once and keeps each edge's *first* entry
    /// — its state at the last flush.
    touched: Vec<((u32, u32), Option<f32>)>,
    events_since_flush: usize,
    /// Memoized [`DeltaBatcher::touched_vertices`] result, valid until
    /// the next [`DeltaBatcher::apply`] or flush. The method is a
    /// per-window hot-path probe (the pre-aggregation reuse cache and the
    /// serve engine both call it), and re-sorting the full journal on
    /// every call was `O(Δ log Δ)` per probe instead of per batch.
    touched_cache: RefCell<Option<Vec<u32>>>,
}

impl DeltaBatcher {
    /// An empty batcher over `n` vertices; the first flush diffs against
    /// the empty graph.
    pub fn new(n: usize) -> Self {
        Self {
            graph: StreamingGraph::new(n),
            touched: Vec::new(),
            events_since_flush: 0,
            touched_cache: RefCell::new(None),
        }
    }

    /// Seeds the batcher with a resident snapshot (already transferred),
    /// so the first flush only ships changes against it.
    pub fn from_snapshot(s: &dgnn_graph::Snapshot) -> Self {
        Self {
            graph: StreamingGraph::from_snapshot(s),
            touched: Vec::new(),
            events_since_flush: 0,
            touched_cache: RefCell::new(None),
        }
    }

    /// The live graph state.
    pub fn graph(&self) -> &StreamingGraph {
        &self.graph
    }

    /// Events absorbed since the last flush.
    pub fn pending_events(&self) -> usize {
        self.events_since_flush
    }

    /// Absorbs one event.
    pub fn apply(&mut self, ev: &EdgeEvent) {
        let before = self.graph.apply(ev);
        self.touched.push(((ev.src, ev.dst), before));
        self.events_since_flush += 1;
        // `get_mut`: no runtime borrow on the ingest hot path.
        self.touched_cache.get_mut().take();
    }

    /// Absorbs a slice of events in order.
    pub fn apply_all(&mut self, events: &[EdgeEvent]) {
        for ev in events {
            self.apply(ev);
        }
    }

    /// The vertices incident to any edge changed since the last flush,
    /// sorted and deduplicated — the seed set a diff subscriber (e.g. the
    /// `dgnn-serve` incremental inference engine) expands into its
    /// per-layer recompute frontier. An edge counts when its presence or
    /// weight bits differ from its first journal entry, the baseline
    /// [`DeltaBatcher::flush`] diffs against: removing an absent edge or
    /// adding and removing one inside the batch changes nothing. Call
    /// before [`DeltaBatcher::flush`] / [`DeltaBatcher::advance`], which
    /// clear the journal. Memoized: the set is computed once per batch
    /// state and served from cache until the next [`DeltaBatcher::apply`]
    /// or flush invalidates it.
    pub fn touched_vertices(&self) -> Vec<u32> {
        let mut cache = self.touched_cache.borrow_mut();
        if let Some(cached) = cache.as_ref() {
            return cached.clone();
        }
        let mut journal = self.touched.clone();
        // Stable: each edge's first entry survives the dedup.
        journal.sort_by_key(|&(key, _)| key);
        journal.dedup_by_key(|&mut (key, _)| key);
        let bits = |w: Option<f32>| w.map(f32::to_bits);
        let mut out: Vec<u32> = journal
            .into_iter()
            .filter(|&((u, v), baseline)| bits(baseline) != bits(self.graph.weight(u, v)))
            .flat_map(|((u, v), _)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        *cache = Some(out.clone());
        out
    }

    /// Emits the accumulated changes as a [`GraphDiff`] relative to the
    /// state at the previous flush and clears the batch.
    ///
    /// `reconstruct(prev, &diff)` over the previously emitted CSR yields
    /// bit-identically the CSR [`StreamingGraph::materialize`] would build.
    pub fn flush(&mut self) -> GraphDiff {
        let (ext_prev, ext_next) = self.flush_structural();
        GraphDiff {
            ext_prev,
            ext_next,
            next_values: self.graph.values_in_csr_order(),
        }
    }

    /// The window-advance hot path: flushes and materializes the next
    /// resident snapshot in one `O(Δ log Δ + nnz)` step. The materialized
    /// value buffer doubles as the diff's `next_values`, so the values are
    /// walked once, not twice, and no receiver-side `reconstruct` merge is
    /// paid on the sender.
    pub fn advance(&mut self) -> (Csr, GraphDiff) {
        let (ext_prev, ext_next) = self.flush_structural();
        let next = self.graph.materialize();
        let diff = GraphDiff {
            ext_prev,
            ext_next,
            next_values: next.values().to_vec(),
        };
        (next, diff)
    }

    /// Sorts the touch journal and derives the structural edit lists,
    /// clearing the batch.
    fn flush_structural(&mut self) -> (EditList, EditList) {
        // Stable sort: the first entry per key is the edge's state at the
        // last flush, and keys come out in the row-major order the diff
        // edit lists require. An edge added and removed inside one batch
        // cancels out naturally.
        self.touched.sort_by_key(|&(key, _)| key);
        let mut ext_prev = Vec::new();
        let mut ext_next = Vec::new();
        let mut i = 0;
        while i < self.touched.len() {
            let ((u, v), baseline) = self.touched[i];
            while i < self.touched.len() && self.touched[i].0 == (u, v) {
                i += 1;
            }
            let now = self.graph.weight(u, v);
            match (baseline, now) {
                (Some(_), None) => ext_prev.push((u, v)),
                (None, Some(_)) => ext_next.push((u, v)),
                // Present on both sides (value-only change, covered by
                // next_values) or touched-and-reverted: no structural edit.
                _ => {}
            }
        }
        self.touched.clear();
        self.events_since_flush = 0;
        self.touched_cache.get_mut().take();
        (ext_prev, ext_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;
    use dgnn_graph::gen::churn;
    use dgnn_graph::{diff, reconstruct};

    #[test]
    fn flush_matches_snapshot_pair_diff() {
        let g = churn(50, 6, 150, 0.25, 7);
        let log = EventLog::replay(&g);
        let mut batcher = DeltaBatcher::new(g.n());
        let mut cursor = 0usize;
        let mut prev = Csr::empty(g.n(), g.n());
        for t in 0..g.t() {
            let events = log.events();
            while cursor < events.len() && events[cursor].time <= t as u64 {
                batcher.apply(&events[cursor]);
                cursor += 1;
            }
            let (next, d) = batcher.advance();
            assert_eq!(&next, g.snapshot(t).adj(), "t = {t}");
            // Receiver side: the diff applied to the previous resident
            // snapshot reconstructs the same CSR bit for bit.
            assert_eq!(reconstruct(&prev, &d), next, "t = {t}");
            if t > 0 {
                // Structural edit lists equal the offline snapshot diff.
                let offline = diff(g.snapshot(t - 1).adj(), g.snapshot(t).adj());
                assert_eq!(d.ext_prev, offline.ext_prev, "t = {t}");
                assert_eq!(d.ext_next, offline.ext_next, "t = {t}");
                assert_eq!(d.next_values, offline.next_values, "t = {t}");
            }
            prev = next;
        }
    }

    #[test]
    fn add_then_remove_in_one_batch_cancels() {
        let mut b = DeltaBatcher::new(3);
        b.apply(&EdgeEvent::add(0, 0, 1, 1.0));
        b.apply(&EdgeEvent::add(0, 1, 2, 1.0));
        b.apply(&EdgeEvent::remove(0, 0, 1));
        let d = b.flush();
        assert!(d.ext_prev.is_empty());
        assert_eq!(d.ext_next, vec![(1, 2)]);
        let next = reconstruct(&Csr::empty(3, 3), &d);
        assert_eq!(next.to_coo(), vec![(1, 2, 1.0)]);
    }

    #[test]
    fn touched_vertices_covers_both_endpoints_and_clears_on_flush() {
        let mut b = DeltaBatcher::new(6);
        b.apply(&EdgeEvent::add(0, 4, 1, 1.0));
        b.apply(&EdgeEvent::add(0, 1, 2, 1.0));
        b.apply(&EdgeEvent::remove(0, 4, 1));
        b.apply(&EdgeEvent::remove(0, 3, 0));
        // Sorted and deduplicated; a reverted add and a remove of an
        // absent edge change nothing and touch no vertex.
        assert_eq!(b.touched_vertices(), vec![1, 2]);
        let _ = b.flush();
        assert!(b.touched_vertices().is_empty());
        b.apply(&EdgeEvent::update(1, 5, 5, 2.0));
        assert_eq!(b.touched_vertices(), vec![5]);
    }

    #[test]
    fn touched_vertices_memoization_matches_fresh_recompute() {
        // Reference: recomputed from the journal on every call, each
        // edge's baseline found by a linear scan for its first entry.
        fn reference(b: &DeltaBatcher) -> Vec<u32> {
            let bits = |w: Option<f32>| w.map(f32::to_bits);
            let mut out: Vec<u32> = Vec::new();
            for (i, &((u, v), w)) in b.touched.iter().enumerate() {
                let first = b.touched[..i].iter().all(|&(key, _)| key != (u, v));
                if first && bits(w) != bits(b.graph.weight(u, v)) {
                    out.extend([u, v]);
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        }
        let g = churn(40, 5, 120, 0.3, 17);
        let log = EventLog::replay(&g);
        let mut b = DeltaBatcher::new(g.n());
        for (i, ev) in log.events().iter().enumerate() {
            b.apply(ev);
            if i % 7 == 0 {
                // Probe mid-batch: the first call fills the cache, the
                // second is served from it; both must pin the reference.
                let expect = reference(&b);
                assert_eq!(b.touched_vertices(), expect, "event {i}, cold");
                assert_eq!(b.touched_vertices(), expect, "event {i}, cached");
            }
            if i % 11 == 0 {
                let _ = b.flush();
                assert!(b.touched_vertices().is_empty(), "flush must invalidate");
            }
        }
    }

    #[test]
    fn remove_then_readd_is_value_only() {
        let s = dgnn_graph::Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
        let mut b = DeltaBatcher::from_snapshot(&s);
        b.apply(&EdgeEvent::remove(1, 0, 1));
        b.apply(&EdgeEvent::add(1, 0, 1, 5.0));
        let d = b.flush();
        assert_eq!(d.edits(), 0, "reverted structure ships as values only");
        let next = reconstruct(s.adj(), &d);
        assert_eq!(next.to_coo(), vec![(0, 1, 5.0), (1, 2, 1.0)]);
    }
}
