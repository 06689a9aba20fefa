//! Where the engine's snapshot blocks come from: the [`SnapshotSource`]
//! abstraction, plus the carry banks that decide where the checkpoint
//! carries `π_b` live between the forward and backward passes.
//!
//! The engine's block forward asks its layout's `SnapshotSource` for each
//! timestep's operator and layer-0 input:
//!
//! * [`TaskSource`] — the all-in-memory view over a prepared [`Task`].
//! * the row split's row block (`vertex_part::RowSplit`) — a rank's
//!   feature rows and its rows of each `Ã_t`.
//! * [`StoreSource`] — the out-of-core path: blocks live in a
//!   [`TieredStore`] and are faulted (or prefetched) per checkpoint
//!   block. Construction *spills* the task's Laplacians and inputs to
//!   the store; training then needs only the store's memory budget, not
//!   the working set. The source carries the §3.1 block schedule
//!   (forward order, then reversed for the backward rerun, which skips
//!   the last block — the engine keeps that tape) and, on each
//!   block entry, asks the store to prefetch the next block's records so
//!   steady-state reads never block on a cold file.
//!
//! Both paths are **bit-identical**: spill frames round-trip raw `f32`
//! bit patterns, so the arithmetic sees the same numbers either way
//! (pinned by `tests/out_of_core_equivalence.rs`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use dgnn_models::{CarryState, LayerCarry};
use dgnn_store::{StoreError, TieredStore};
use dgnn_tensor::{Csr, Dense};

use crate::engine::recycle_carry;
use crate::task::Task;

/// One timestep's worth of training data, as seen by the engine's layer
/// walk. `t` indexes the task timeline.
pub trait SnapshotSource {
    /// The normalized Laplacian `Ã_t`.
    fn lap(&self, t: usize) -> Rc<Csr>;

    /// The layer-0 input at `t`: the feature block, or the §5.5
    /// pre-aggregation `Ã_t·X_t` when [`SnapshotSource::preagg`] is true.
    fn input(&self, t: usize) -> Dense;

    /// Whether [`SnapshotSource::input`] is pre-aggregated (the layer-0
    /// spatial phase is then a plain weight multiply).
    fn preagg(&self) -> bool;

    /// Called when the engine enters a block (both the forward pass and
    /// the backward rerun of every block but the last). Out-of-core
    /// sources use this to prefetch the next scheduled block.
    fn enter_block(&self, _block: &Range<usize>) {}

    /// Bytes this source has faulted from a storage tier so far — the
    /// tier-miss extension of the engine's transfer accounting. Always 0
    /// for in-memory sources.
    fn miss_bytes(&self) -> u64 {
        0
    }

    /// Microseconds this source has spent blocked on a storage tier so
    /// far (only advances while `DGNN_TRACE` is on). Always 0 for
    /// in-memory sources.
    fn wait_us(&self) -> u64 {
        0
    }
}

/// The all-in-memory source: a view over a prepared [`Task`], with the
/// Laplacians `Rc`-shared once at construction.
pub struct TaskSource<'a> {
    task: &'a Task,
    laps: Vec<Rc<Csr>>,
}

impl<'a> TaskSource<'a> {
    /// Wraps a prepared task.
    pub fn new(task: &'a Task) -> Self {
        Self {
            task,
            laps: task.laps.iter().cloned().map(Rc::new).collect(),
        }
    }
}

impl SnapshotSource for TaskSource<'_> {
    fn lap(&self, t: usize) -> Rc<Csr> {
        Rc::clone(&self.laps[t])
    }

    fn input(&self, t: usize) -> Dense {
        match &self.task.preagg {
            Some(pre) => pre[t].clone(),
            None => self.task.features[t].clone(),
        }
    }

    fn preagg(&self) -> bool {
        self.task.preagg.is_some()
    }
}

/// The out-of-core source: snapshot operators and inputs live in a
/// [`TieredStore`] and are faulted per block, one block prefetched ahead.
///
/// # Panics
///
/// [`SnapshotSource::lap`] / [`SnapshotSource::input`] panic (with the
/// underlying typed [`StoreError`] in the message) if a spill file turns
/// unreadable *mid-training* — the files were written moments earlier by
/// [`StoreSource::spill`], so this is an environment failure, not a
/// recoverable state. All up-front I/O is surfaced as `Result`s.
pub struct StoreSource {
    tier: Rc<RefCell<TieredStore>>,
    /// Per-epoch block entry order: the §3.1 schedule forward, then
    /// reversed without the last block for the backward rerun.
    schedule: Vec<Range<usize>>,
    cursor: Cell<usize>,
    preagg: bool,
    /// The spilled task's [`Task::input_revision`]: every key is scoped
    /// by it, so a tier shared between tasks (or between a streaming
    /// run's windows) stays coherent — a rebuilt pre-aggregation gets
    /// fresh keys instead of silently shadowing stale blocks.
    rev: u64,
    /// Timesteps spilled — the key range [`Drop`] reclaims.
    t_count: usize,
}

impl StoreSource {
    fn lap_key(&self, t: usize) -> String {
        format!("lap{t}.r{}", self.rev)
    }

    fn input_key(&self, t: usize) -> String {
        format!("in{t}.r{}", self.rev)
    }
}

impl StoreSource {
    /// Spills `task`'s Laplacians and layer-0 inputs into `tier` and
    /// builds the source. `blocks` is the checkpoint-block schedule the
    /// engine will walk; prefetch follows it one block ahead.
    ///
    /// After this returns, the task's `laps` / `features` / `preagg`
    /// vectors are no longer consulted — a caller reproducing a true
    /// larger-than-memory run can drop them. The spilled keys belong to
    /// the returned source and are reclaimed when it drops; spill the
    /// same task twice into one tier only with both sources live.
    pub fn spill(
        task: &Task,
        tier: Rc<RefCell<TieredStore>>,
        blocks: &[Range<usize>],
    ) -> Result<Self, StoreError> {
        let mut schedule = blocks.to_vec();
        schedule.extend(blocks.iter().rev().skip(1).cloned());
        let src = Self {
            tier,
            schedule,
            cursor: Cell::new(0),
            preagg: task.preagg.is_some(),
            rev: task.input_revision,
            t_count: task.laps.len(),
        };
        {
            let mut t = src.tier.borrow_mut();
            for (i, lap) in task.laps.iter().enumerate() {
                t.put_csr(&src.lap_key(i), lap)?;
            }
            let inputs = task.preagg.as_ref().unwrap_or(&task.features);
            for (i, block) in inputs.iter().enumerate() {
                t.put_dense(&src.input_key(i), block)?;
            }
        }
        Ok(src)
    }

    /// The store's counters (misses, evictions, resident bytes).
    pub fn stats(&self) -> dgnn_store::StoreStats {
        self.tier.borrow().stats()
    }
}

/// A source owns its revision-scoped keys: dropping it reclaims them
/// (memory tier and spill files) so a tier shared across tasks or
/// streaming windows stays bounded by its *live* sources instead of
/// accumulating every superseded revision for the tier's lifetime.
/// Best-effort — files already unlinked (or a tier borrowed elsewhere
/// mid-unwind) are skipped, never panicked on.
impl Drop for StoreSource {
    fn drop(&mut self) {
        let Ok(mut tier) = self.tier.try_borrow_mut() else {
            return;
        };
        for t in 0..self.t_count {
            let _ = tier.remove(&self.lap_key(t));
            let _ = tier.remove(&self.input_key(t));
        }
    }
}

impl SnapshotSource for StoreSource {
    fn lap(&self, t: usize) -> Rc<Csr> {
        self.tier
            .borrow_mut()
            .get_csr(&self.lap_key(t))
            .unwrap_or_else(|e| panic!("out-of-core Laplacian {t} unreadable: {e}"))
    }

    fn input(&self, t: usize) -> Dense {
        let rc = self
            .tier
            .borrow_mut()
            .get_dense(&self.input_key(t))
            .unwrap_or_else(|e| panic!("out-of-core input block {t} unreadable: {e}"));
        (*rc).clone()
    }

    fn preagg(&self) -> bool {
        self.preagg
    }

    fn enter_block(&self, block: &Range<usize>) {
        let len = self.schedule.len();
        if len == 0 {
            return;
        }
        let mut cur = self.cursor.get() % len;
        if self.schedule[cur] != *block {
            // A front-end walking outside the engine schedule (e.g. a
            // forward-only evaluation) resyncs instead of asserting: a
            // stale cursor only costs prefetch accuracy, never bits.
            // Every block but the last appears twice (forward half, then
            // mirrored in the reversed backward half), so resolve to the occurrence
            // *nearest the cursor* — matching the first occurrence
            // unconditionally would snap a backward-pass resync to the
            // forward half and prefetch the forward successor instead of
            // the backward predecessor.
            cur = self
                .schedule
                .iter()
                .enumerate()
                .filter(|(_, b)| *b == block)
                .min_by_key(|&(i, _)| i.abs_diff(cur))
                .map(|(i, _)| i)
                .unwrap_or(cur);
        }
        let next = &self.schedule[(cur + 1) % len];
        let keys: Vec<String> = next
            .clone()
            .flat_map(|t| [self.lap_key(t), self.input_key(t)])
            .collect();
        self.tier
            .borrow_mut()
            .prefetch(keys.iter().map(String::as_str));
        self.cursor.set((cur + 1) % len);
    }

    fn miss_bytes(&self) -> u64 {
        self.tier.borrow().stats().miss_bytes
    }

    fn wait_us(&self) -> u64 {
        self.tier.borrow().stats().wait_us
    }
}

/// Where the engine keeps the per-block carries `π_b` between the forward
/// pass (which produces them in order) and the backward pass (which
/// consumes them in reverse). One bank instance lives across epochs.
pub(crate) trait CarryBank {
    /// Starts an epoch with the model's initial carry (index 0).
    fn begin_epoch(&mut self, initial: CarryState);

    /// The most recently pushed carry — the input of the next forward
    /// block.
    fn last(&self) -> &CarryState;

    /// Appends the carry leaving the block just run (index = pushes so
    /// far this epoch).
    fn push(&mut self, carry: CarryState);

    /// Takes carry `b` (the carry *into* block `b`) for the backward
    /// rerun. Called once per block, in descending order.
    fn take(&mut self, b: usize) -> CarryState;

    /// Ends the epoch, recycling whatever the backward pass did not take.
    fn finish_epoch(&mut self);
}

/// The in-memory bank: the plain `Vec<CarryState>` the engine always had.
#[derive(Default)]
pub(crate) struct MemoryCarryBank {
    slots: Vec<Option<CarryState>>,
}

impl CarryBank for MemoryCarryBank {
    fn begin_epoch(&mut self, initial: CarryState) {
        debug_assert!(self.slots.is_empty(), "epoch not finished");
        self.slots.push(Some(initial));
    }

    fn last(&self) -> &CarryState {
        self.slots
            .last()
            .and_then(Option::as_ref)
            .expect("an epoch is in progress")
    }

    fn push(&mut self, carry: CarryState) {
        self.slots.push(Some(carry));
    }

    fn take(&mut self, b: usize) -> CarryState {
        self.slots[b].take().expect("each carry is taken once")
    }

    fn finish_epoch(&mut self) {
        // The final block's outgoing carry (and nothing else) is left.
        for carry in self.slots.drain(..).flatten() {
            recycle_carry(carry);
        }
    }
}

/// The spilling bank: only the newest carry stays in memory (the next
/// forward block needs it); everything older is sealed into the tiered
/// store and reloaded — one carry prefetched ahead — during the backward
/// pass. With `nb` checkpoint blocks this caps carry memory at `O(1)`
/// carries instead of `O(nb)`.
///
/// # Panics
///
/// Mid-training spill I/O failures panic with the typed [`StoreError`]
/// in the message, for the same reason as [`StoreSource`].
pub(crate) struct SpillCarryBank {
    tier: Rc<RefCell<TieredStore>>,
    /// The newest carry (index `held_idx`), not yet spilled.
    last: Option<CarryState>,
    held_idx: usize,
}

fn carry_key(b: usize) -> String {
    format!("carry{b}")
}

impl SpillCarryBank {
    /// A bank spilling through `tier`.
    pub fn new(tier: Rc<RefCell<TieredStore>>) -> Self {
        Self {
            tier,
            last: None,
            held_idx: 0,
        }
    }

    /// Seals the currently held carry to the store and recycles its
    /// matrices.
    fn spill_last(&mut self) {
        let carry = self.last.take().expect("a carry is held");
        let (meta, mats) = encode_carry(&carry);
        self.tier
            .borrow_mut()
            .spill_record(&carry_key(self.held_idx), &meta, mats)
            .unwrap_or_else(|e| panic!("carry {} unspillable: {e}", self.held_idx));
        recycle_carry(carry);
    }
}

impl CarryBank for SpillCarryBank {
    fn begin_epoch(&mut self, initial: CarryState) {
        debug_assert!(self.last.is_none(), "epoch not finished");
        self.last = Some(initial);
        self.held_idx = 0;
    }

    fn last(&self) -> &CarryState {
        self.last.as_ref().expect("an epoch is in progress")
    }

    fn push(&mut self, carry: CarryState) {
        self.spill_last();
        self.last = Some(carry);
        self.held_idx += 1;
    }

    fn take(&mut self, b: usize) -> CarryState {
        debug_assert!(b < self.held_idx, "backward takes only spilled carries");
        let mut tier = self.tier.borrow_mut();
        if b > 0 {
            // The backward pass walks down: stage the next carry while
            // this block recomputes.
            let key = carry_key(b - 1);
            tier.prefetch([key.as_str()]);
        }
        let (meta, mats) = tier
            .take_record(&carry_key(b))
            .unwrap_or_else(|e| panic!("carry {b} unreadable: {e}"));
        decode_carry(&meta, mats)
    }

    fn finish_epoch(&mut self) {
        if let Some(carry) = self.last.take() {
            recycle_carry(carry);
        }
    }
}

// Carry layer tags in the spill meta words.
const TAG_LSTM: u32 = 0;
const TAG_WINDOW: u32 = 1;
const TAG_EGCN: u32 = 2;

/// Flattens a carry into spill-record form: meta = `(tag, matrix count)`
/// per layer, mats = the carried matrices in layer order.
fn encode_carry(carry: &CarryState) -> (Vec<u32>, Vec<&Dense>) {
    let mut meta = Vec::with_capacity(carry.layers.len() * 2);
    let mut mats: Vec<&Dense> = Vec::new();
    for layer in &carry.layers {
        match layer {
            LayerCarry::Lstm { h, c } => {
                meta.extend([TAG_LSTM, 2]);
                mats.extend([h, c]);
            }
            LayerCarry::Egcn { h, c } => {
                meta.extend([TAG_EGCN, 2]);
                mats.extend([h, c]);
            }
            LayerCarry::Window { frames } => {
                meta.extend([TAG_WINDOW, frames.len() as u32]);
                mats.extend(frames.iter());
            }
        }
    }
    (meta, mats)
}

/// Rebuilds a carry from its spill-record form. Inverse of
/// [`encode_carry`]; bit-exact because the frames round-trip raw bit
/// patterns.
fn decode_carry(meta: &[u32], mats: Vec<Dense>) -> CarryState {
    assert!(
        meta.len().is_multiple_of(2),
        "carry meta comes in (tag, count) pairs"
    );
    let mut mats = mats.into_iter();
    let mut layers = Vec::with_capacity(meta.len() / 2);
    for pair in meta.chunks_exact(2) {
        let (tag, count) = (pair[0], pair[1] as usize);
        layers.push(match tag {
            TAG_LSTM | TAG_EGCN => {
                assert_eq!(count, 2, "state carries hold (h, c)");
                let h = mats.next().expect("carry matrix underrun");
                let c = mats.next().expect("carry matrix underrun");
                if tag == TAG_LSTM {
                    LayerCarry::Lstm { h, c }
                } else {
                    LayerCarry::Egcn { h, c }
                }
            }
            TAG_WINDOW => {
                let frames: VecDeque<Dense> = (0..count)
                    .map(|_| mats.next().expect("carry matrix underrun"))
                    .collect();
                LayerCarry::Window { frames }
            }
            other => panic!("unknown carry layer tag {other}"),
        });
    }
    assert!(mats.next().is_none(), "carry matrix overrun");
    CarryState { layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_models::ModelConfig;
    use dgnn_store::StoreConfig;

    use crate::task::{prepare_task_holdout, TaskOptions};

    fn small_task(seed: u64) -> Task {
        let g = dgnn_graph::gen::churn(30, 7, 80, 0.3, seed);
        let cfg = ModelConfig {
            kind: dgnn_models::ModelKind::CdGcn,
            input_f: 2,
            hidden: 4,
            mprod_window: 3,
            smoothing_window: 3,
        };
        prepare_task_holdout(&g, &cfg, &TaskOptions::default())
    }

    fn shared_tier() -> Rc<RefCell<TieredStore>> {
        Rc::new(RefCell::new(
            TieredStore::open(&StoreConfig::with_budget(0)).unwrap(),
        ))
    }

    #[test]
    fn enter_block_resyncs_to_the_nearest_schedule_occurrence() {
        let task = small_task(1);
        let blocks = vec![0..2usize, 2..4, 4..6];
        let src = StoreSource::spill(&task, shared_tier(), &blocks).unwrap();
        // schedule: [0..2, 2..4, 4..6 | 2..4, 0..2] — the backward pass
        // does not re-enter the last block.
        src.enter_block(&(0..2));
        src.enter_block(&(2..4));
        src.enter_block(&(4..6));
        assert_eq!(src.cursor.get(), 3, "in-schedule walk needs no resync");
        // Jump into the backward half *out of order* (the cursor points at
        // the backward 2..4): the resync must land on the backward
        // occurrence of 0..2 (index 4), whose successor is the next
        // epoch's 0..2 — the forward occurrence (index 0) would prefetch
        // the forward successor 2..4 instead.
        src.enter_block(&(0..2));
        assert_eq!(src.cursor.get(), 0, "resync picked the forward half");
        src.enter_block(&(0..2));
        assert_eq!(src.cursor.get(), 1, "the next epoch continues in order");
    }

    #[test]
    fn enter_block_resync_from_deep_backward_position() {
        let task = small_task(2);
        let blocks = vec![0..2usize, 2..4, 4..6];
        let src = StoreSource::spill(&task, shared_tier(), &blocks).unwrap();
        // Walk forward and into the backward half down to 2..4, then
        // re-enter 2..4 (a forward-only evaluation restarting mid-epoch):
        // nearest occurrence of 2..4 to cursor 4 is the backward index 3.
        for b in [&(0..2), &(2..4), &(4..6), &(2..4)] {
            src.enter_block(b);
        }
        assert_eq!(src.cursor.get(), 4);
        src.enter_block(&(2..4));
        assert_eq!(src.cursor.get(), 4, "resync picked the forward 2..4");
    }

    #[test]
    fn single_block_schedule_enters_once_per_epoch() {
        // nb = 1: the one block is the kept last block, so an epoch enters
        // it once and the cursor never leaves it.
        let task = small_task(7);
        let blocks = std::iter::once(0..6usize).collect::<Vec<_>>();
        let src = StoreSource::spill(&task, shared_tier(), &blocks).unwrap();
        assert_eq!(src.schedule.len(), 1);
        src.enter_block(&(0..6));
        src.enter_block(&(0..6));
        assert_eq!(src.cursor.get(), 0);
    }

    #[test]
    fn shared_tier_keeps_tasks_coherent_via_revision_keys() {
        let a = small_task(3);
        let b = small_task(4);
        assert_ne!(a.input_revision, b.input_revision);
        let tier = shared_tier();
        let blocks = vec![0..3usize, 3..6];
        let src_a = StoreSource::spill(&a, Rc::clone(&tier), &blocks).unwrap();
        // Spilling a second task into the *same* tier must not shadow the
        // first task's blocks.
        let src_b = StoreSource::spill(&b, tier, &blocks).unwrap();
        let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for t in 0..6 {
            assert_eq!(*src_a.lap(t), a.laps[t], "task A Laplacian {t}");
            assert_eq!(*src_b.lap(t), b.laps[t], "task B Laplacian {t}");
            let pre_a = &a.preagg.as_ref().unwrap()[t];
            let pre_b = &b.preagg.as_ref().unwrap()[t];
            assert_eq!(bits(&src_a.input(t)), bits(pre_a), "task A input {t}");
            assert_eq!(bits(&src_b.input(t)), bits(pre_b), "task B input {t}");
        }
    }

    #[test]
    fn dropping_a_source_reclaims_its_spill_keys() {
        let a = small_task(5);
        let b = small_task(6);
        let tier = shared_tier();
        let blocks = vec![0..3usize, 3..6];
        let dgns_files = |tier: &Rc<RefCell<TieredStore>>| {
            std::fs::read_dir(tier.borrow().dir())
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .is_some_and(|x| x == "dgns")
                })
                .count()
        };
        let src_a = StoreSource::spill(&a, Rc::clone(&tier), &blocks).unwrap();
        let after_a = dgns_files(&tier);
        assert_eq!(after_a, 12, "6 Laplacians + 6 inputs");
        let src_b = StoreSource::spill(&b, Rc::clone(&tier), &blocks).unwrap();
        assert_eq!(dgns_files(&tier), 24, "two live revisions coexist");
        // Dropping the superseded source reclaims exactly its keys — a
        // long-lived shared tier is bounded by live sources, not run
        // count.
        drop(src_a);
        assert_eq!(dgns_files(&tier), 12, "revision A reclaimed");
        for t in 0..6 {
            assert_eq!(*src_b.lap(t), b.laps[t], "task B Laplacian {t} intact");
        }
        drop(src_b);
        assert_eq!(dgns_files(&tier), 0, "revision B reclaimed");
    }

    fn sample_carry() -> CarryState {
        CarryState {
            layers: vec![
                LayerCarry::Lstm {
                    h: Dense::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.5),
                    c: Dense::full(3, 2, -1.25),
                },
                LayerCarry::Window {
                    frames: VecDeque::from(vec![Dense::full(2, 2, 7.0), Dense::zeros(2, 2)]),
                },
                LayerCarry::Egcn {
                    h: Dense::full(2, 3, 0.125),
                    c: Dense::full(2, 3, f32::MIN_POSITIVE),
                },
            ],
        }
    }

    #[test]
    fn carry_codec_roundtrips_structure_and_bits() {
        let carry = sample_carry();
        let (meta, mats) = encode_carry(&carry);
        let owned: Vec<Dense> = mats.into_iter().cloned().collect();
        let back = decode_carry(&meta, owned);
        assert_eq!(back.layers.len(), 3);
        match (&back.layers[0], &carry.layers[0]) {
            (LayerCarry::Lstm { h: ha, c: ca }, LayerCarry::Lstm { h: hb, c: cb }) => {
                assert_eq!(ha, hb);
                assert_eq!(ca, cb);
            }
            _ => panic!("layer 0 must stay an LSTM carry"),
        }
        match &back.layers[1] {
            LayerCarry::Window { frames } => {
                assert_eq!(frames.len(), 2);
                assert_eq!(frames[0], Dense::full(2, 2, 7.0));
            }
            _ => panic!("layer 1 must stay a window carry"),
        }
        assert!(matches!(&back.layers[2], LayerCarry::Egcn { .. }));
    }

    #[test]
    fn carry_codec_handles_empty_window() {
        let carry = CarryState {
            layers: vec![LayerCarry::Window {
                frames: VecDeque::new(),
            }],
        };
        let (meta, mats) = encode_carry(&carry);
        assert_eq!(meta, vec![TAG_WINDOW, 0]);
        let back = decode_carry(&meta, mats.into_iter().cloned().collect());
        assert!(matches!(
            &back.layers[0],
            LayerCarry::Window { frames } if frames.is_empty()
        ));
    }

    #[test]
    fn spill_bank_roundtrips_carries_through_the_store() {
        use dgnn_store::StoreConfig;
        let tier = Rc::new(RefCell::new(
            TieredStore::open(&StoreConfig::with_budget(0)).unwrap(),
        ));
        let mut bank = SpillCarryBank::new(Rc::clone(&tier));
        let c0 = sample_carry();
        bank.begin_epoch(c0.clone());
        assert_eq!(bank.last().layers.len(), 3);
        bank.push(sample_carry()); // spills c0
        bank.push(sample_carry()); // spills carry 1
        let back1 = bank.take(1);
        let back0 = bank.take(0);
        for back in [&back0, &back1] {
            match (&back.layers[0], &c0.layers[0]) {
                (LayerCarry::Lstm { h: ha, .. }, LayerCarry::Lstm { h: hb, .. }) => {
                    let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(ha), bits(hb));
                }
                _ => panic!("carry structure lost"),
            }
        }
        bank.finish_epoch();
        // A second epoch reuses the same keys cleanly.
        bank.begin_epoch(c0);
        bank.push(sample_carry());
        assert_eq!(bank.take(0).layers.len(), 3);
        bank.finish_epoch();
    }
}
