//! The one file that names the repository's crates. Every call the
//! benchmark makes into a layer goes through a function here, which opens
//! the benchmark's span `<layer>.<call>` around it; when an entry point
//! changes, this is the file that follows it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dgnn_autograd::ParamStore;
use dgnn_models::{LinkPredHead, Model};
use dgnn_serve::Checkpoint;
use dgnn_store::{StoreConfig, TieredStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::span;

pub use dgnn_core::{
    auc, EpochStats, StreamTrainOptions, Task, TaskOptions, TrainOptions, WindowStats,
};
pub use dgnn_graph::gen::AmlSimConfig;
pub use dgnn_graph::{DynamicGraph, Snapshot, TemporalStats};
pub use dgnn_models::{ModelConfig, ModelKind};
pub use dgnn_serve::{AdvanceReport, InferenceServer, InferenceSession};
pub use dgnn_store::StoreStats;
pub use dgnn_stream::{EdgeEvent, EventLog, StreamWindow, WindowIter, WindowPolicy};
pub use dgnn_telemetry::trace::Event as TraceEvent;
pub use dgnn_tensor::{Csr, Dense};

// ---- telemetry -------------------------------------------------------

/// Nanoseconds on the clock the program's own trace events use.
pub fn now_ns() -> u64 {
    dgnn_telemetry::trace::now_ns()
}

/// Switches the program's own tracing, which also fills
/// `EpochStats::phase` and `StoreStats::wait_us`.
pub fn program_trace(on: bool) {
    dgnn_telemetry::trace::set_enabled(on);
}

/// Drains the program's trace rings: `(events, dropped since last drain)`.
pub fn program_trace_drain() -> (Vec<TraceEvent>, u64) {
    let dropped = dgnn_telemetry::trace::dropped_events();
    (dgnn_telemetry::trace::take_events(), dropped)
}

#[cfg(test)]
pub fn validate_json(text: &str) -> Result<(), String> {
    dgnn_telemetry::jsonlint::validate(text)
}

// ---- tensor ----------------------------------------------------------

/// `(fresh, reused)` buffer acquisitions since the last reset.
pub fn alloc_stats() -> (u64, u64) {
    dgnn_tensor::workspace::alloc_stats()
}

pub fn reset_alloc_stats() {
    dgnn_tensor::workspace::reset_alloc_stats();
}

/// Keeps the calling thread's buffer arena warm across training calls
/// for as long as the guard lives, as `train_streaming` does for itself.
pub fn workspace_engage() -> impl Drop {
    dgnn_tensor::workspace::engage()
}

/// Threads the kernels use by default on this host.
pub fn kernel_threads() -> usize {
    dgnn_tensor::pool::effective_threads()
}

pub fn spmm(a: &Csr, x: &Dense) -> Dense {
    let _s = span("tensor.spmm");
    a.spmm(x)
}

pub fn spmm_transa(a: &Csr, x: &Dense) -> Dense {
    let _s = span("tensor.spmm_transa");
    a.spmm_transa(x)
}

pub fn spmm_rows(a: &Csr, x: &Dense, rows: &[u32]) -> Dense {
    let _s = span("tensor.spmm_rows");
    a.spmm_rows(x, rows)
}

pub fn matmul(a: &Dense, b: &Dense) -> Dense {
    let _s = span("tensor.matmul");
    a.matmul(b)
}

/// Digest of a matrix's bit patterns.
pub fn digest(values: &[f32]) -> u64 {
    dgnn_tensor::digest::digest_f32(values)
}

// ---- graph -----------------------------------------------------------

pub fn churn_skewed(n: usize, t: usize, m: usize, rho: f64, s: f64, seed: u64) -> DynamicGraph {
    let _s = span("graph.churn_skewed");
    dgnn_graph::gen::churn_skewed(n, t, m, rho, s, seed)
}

pub fn amlsim_like(cfg: &AmlSimConfig, seed: u64) -> DynamicGraph {
    let _s = span("graph.amlsim_like");
    dgnn_graph::gen::amlsim_like(cfg, seed)
}

/// The first `T-1` snapshots and the held-out last one.
pub fn split_holdout(g: &DynamicGraph) -> (DynamicGraph, Snapshot) {
    (g.time_slice(0, g.t() - 1), g.snapshot(g.t() - 1).clone())
}

pub fn laplacian(s: &Snapshot) -> Csr {
    let _s = span("graph.laplacian");
    s.laplacian()
}

/// Edits between two consecutive adjacency matrices.
pub fn diff_edits(prev: &Snapshot, next: &Snapshot) -> usize {
    let _s = span("graph.diff");
    dgnn_graph::diff(prev.adj(), next.adj()).edits()
}

pub fn temporal_stats(g: &DynamicGraph) -> TemporalStats {
    TemporalStats::from_graph(g)
}

// ---- core ------------------------------------------------------------

/// A model, its head and its parameters, freshly initialised from `seed`.
pub struct Trainee {
    model: Model,
    head: LinkPredHead,
    params: ParamStore,
}

impl Trainee {
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let model = Model::new(cfg, &mut params, &mut rng);
        let head = LinkPredHead::new(&mut params, cfg.embedding_dim(), 2, &mut rng);
        Self {
            model,
            head,
            params,
        }
    }

    /// Digest of every parameter's bit pattern.
    pub fn digest(&self) -> u64 {
        digest(&self.params.values_flat())
    }
}

pub fn model_config(kind: ModelKind, input_f: usize, hidden: usize) -> ModelConfig {
    ModelConfig {
        kind,
        input_f,
        hidden,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

/// Task preparation; `journal` is the per-transition touched-vertex list
/// a window stream supplies (`None` for a batch timeline).
pub fn prepare_task(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: &ModelConfig,
    opts: &TaskOptions,
    journal: Option<&[Vec<u32>]>,
) -> Task {
    let _s = span("graph.prepare_task");
    dgnn_core::prepare_task_journaled(raw, next, cfg, opts, journal)
}

pub fn train_single(tr: &mut Trainee, task: &Task, opts: &TrainOptions) -> Vec<EpochStats> {
    let _s = span("core.train_single");
    dgnn_core::train_single(&tr.model, &tr.head, &mut tr.params, task, opts)
}

/// Bytes the task's spilled blocks occupy: what the memory tier would
/// need to keep them all resident.
pub fn working_set_bytes(task: &Task) -> u64 {
    let dense = task.preagg.as_ref().unwrap_or(&task.features);
    task.laps
        .iter()
        .map(|l| dgnn_store::encode_csr(l).len() as u64)
        .chain(
            dense
                .iter()
                .map(|d| dgnn_store::encode_dense(d).len() as u64),
        )
        .sum()
}

pub fn train_single_out_of_core(
    tr: &mut Trainee,
    task: &Task,
    opts: &TrainOptions,
    budget: u64,
    spill_dir: &Path,
) -> Result<(Vec<EpochStats>, StoreStats), String> {
    let _s = span("core.train_single_out_of_core");
    let cfg = StoreConfig {
        budget: Some(budget),
        dir: Some(spill_dir.to_path_buf()),
        no_prefetch: false,
    };
    dgnn_core::train_single_out_of_core(&tr.model, &tr.head, &mut tr.params, task, opts, &cfg)
        .map_err(|e| e.to_string())
}

/// `(per-epoch statistics, each rank's parameter digest)`.
pub fn train_distributed(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: ModelConfig,
    task_opts: &TaskOptions,
    opts: &TrainOptions,
    p: usize,
) -> (Vec<EpochStats>, Vec<u64>) {
    let _s = span("core.train_distributed");
    dgnn_core::train_distributed_digest(raw, next, cfg, task_opts, opts, p)
}

pub fn train_streaming(
    log: &EventLog,
    cfg: ModelConfig,
    opts: &StreamTrainOptions,
) -> Vec<WindowStats> {
    let _s = span("core.train_streaming");
    dgnn_core::train_streaming(log, cfg, opts)
}

// ---- stream ----------------------------------------------------------

pub fn event_log(g: &DynamicGraph) -> EventLog {
    let _s = span("stream.event_log_replay");
    EventLog::replay(g)
}

pub fn windows(log: &EventLog) -> WindowIter<'_> {
    dgnn_stream::windows(log, WindowPolicy::Tumbling { width: 1 })
}

/// Applies the next window's events and materialises its snapshot.
pub fn next_window(it: &mut WindowIter<'_>) -> Option<StreamWindow> {
    let _s = span("stream.window_next");
    it.next()
}

// ---- serve -----------------------------------------------------------

pub fn checkpoint_encode(tr: &Trainee) -> Vec<u8> {
    let _s = span("serve.checkpoint_encode");
    Checkpoint::from_store(&tr.model, &tr.head, &tr.params).to_bytes()
}

pub fn checkpoint_decode(bytes: &[u8]) -> Result<Checkpoint, String> {
    let _s = span("serve.checkpoint_decode");
    Checkpoint::from_bytes(bytes).map_err(|e| e.to_string())
}

/// A session over an empty graph with the checkpoint's weights.
pub fn session_open(cp: &Checkpoint, features: Dense) -> Result<InferenceSession, String> {
    let _s = span("serve.session_open");
    InferenceSession::from_checkpoint(cp, features).map_err(|e| e.to_string())
}

pub fn session_ingest(session: &mut InferenceSession, events: &[EdgeEvent]) {
    let _s = span("serve.ingest");
    session.ingest(events);
}

pub fn session_advance(session: &mut InferenceSession) -> AdvanceReport {
    let _s = span("serve.advance");
    session.advance()
}

/// Final-layer activations of the from-scratch forward.
pub fn session_full_forward(session: &InferenceSession) -> Dense {
    let _s = span("serve.full_forward");
    session
        .full_forward()
        .pop()
        .expect("a serve model has at least one layer")
}

/// The session's live graph as a snapshot.
pub fn session_snapshot(session: &InferenceSession) -> Snapshot {
    session.graph().materialize_snapshot()
}

/// Whether the cached activations equal the from-scratch forward bit for
/// bit; the repository's guard panics on a mismatch.
pub fn session_matches_full(session: &InferenceSession) -> bool {
    catch_unwind(AssertUnwindSafe(|| session.assert_matches_full())).is_ok()
}

/// Publishes the session's state as a server's first snapshot.
pub fn publish(session: InferenceSession) -> InferenceServer {
    let _s = span("serve.publish");
    InferenceServer::new(session)
}

pub fn server_advance(server: &InferenceServer, events: &[EdgeEvent]) -> AdvanceReport {
    let _s = span("serve.ingest_and_advance");
    server.ingest_and_advance(events)
}

pub fn predict_nodes(server: &InferenceServer, nodes: &[u32]) -> Dense {
    let _s = span("serve.predict_nodes");
    server.predict_nodes(nodes).0
}

pub fn score_links(server: &InferenceServer, pairs: &[(u32, u32)]) -> Vec<f32> {
    let _s = span("serve.score_links");
    server.score_links(pairs).0
}

/// Whether the published snapshot's digest matches its own contents.
pub fn published_digest_ok(server: &InferenceServer) -> bool {
    let snap = server.snapshot();
    snap.recompute_digest() == snap.digest
}

/// The published final-layer embeddings.
pub fn published_embeddings(server: &InferenceServer) -> Dense {
    server.snapshot().embeddings.clone()
}

// ---- store -----------------------------------------------------------

/// Seals `blocks` dense blocks of `rows x cols` into `dir` under a budget
/// of one block, then reads each back: every read faults the file tier.
/// Returns the bytes moved (written plus read).
pub fn store_put_get(dir: &Path, blocks: usize, rows: usize, cols: usize) -> Result<u64, String> {
    let _s = span("store.put_get");
    let block = Dense::from_fn(rows, cols, |r, c| (r * 31 + c) as f32);
    let bytes = dgnn_store::encode_dense(&block).len() as u64;
    let cfg = StoreConfig {
        budget: Some(bytes + bytes / 2),
        dir: Some(dir.to_path_buf()),
        no_prefetch: true,
    };
    let mut store = TieredStore::open(&cfg).map_err(|e| e.to_string())?;
    for i in 0..blocks {
        store
            .put_dense(&format!("probe{i}"), &block)
            .map_err(|e| e.to_string())?;
    }
    for i in 0..blocks {
        let got = store
            .get_dense(&format!("probe{i}"))
            .map_err(|e| e.to_string())?;
        if got.data() != block.data() {
            return Err(format!("block {i} read back different"));
        }
    }
    Ok(2 * bytes * blocks as u64)
}

// ---- sim -------------------------------------------------------------

/// One all-to-all of `floats` f32 values per peer between two ranks,
/// `reps` times after a warm-up; returns the median microseconds.
pub fn alltoall_us(floats: usize, reps: usize) -> f64 {
    let _s = span("sim.run_ranks_alltoall");
    let times = dgnn_sim::run_ranks(2, |comm| {
        let mut samples = Vec::with_capacity(reps);
        for rep in 0..=reps {
            comm.barrier();
            let t0 = now_ns();
            let parts = (0..comm.world())
                .map(|_| dgnn_sim::Payload::Floats(vec![1.0; floats]))
                .collect();
            std::hint::black_box(comm.all_to_all(parts));
            if rep > 0 {
                samples.push((now_ns() - t0) as f64 / 1e3);
            }
        }
        crate::stats::median(&samples)
    });
    times[0]
}

/// The §7 model's epoch estimate in milliseconds for snapshot
/// partitioning over `p` ranks.
pub fn model_epoch_ms(stats: TemporalStats, cfg: &ModelConfig, p: usize, nb: usize) -> f64 {
    let kind = match cfg.kind {
        ModelKind::CdGcn => dgnn_sim::ModelKind::CdGcn,
        ModelKind::EvolveGcn => dgnn_sim::ModelKind::EvolveGcn,
        ModelKind::TmGcn => dgnn_sim::ModelKind::TmGcn,
    };
    let mut perf = dgnn_sim::PerfConfig::new(kind, stats, p, nb);
    perf.input_f = cfg.input_f;
    perf.hidden = cfg.hidden;
    perf.mprod_window = cfg.mprod_window;
    dgnn_sim::estimate_epoch(&perf).total_ms()
}
