//! The two streaming workloads. `stream_train` is the repository's own
//! continual-learning loop over an event log; `stream_serve` composes
//! the whole pipeline from public pieces, one closed window at a time:
//! events, task preparation, warm-started training, checkpoint, a served
//! refresh, queries.

use std::collections::VecDeque;
use std::time::Instant;

use super::{check_losses, loss_bits, report_last_epoch, report_task, Ctx, Phases};
use crate::adapter::{
    self, AmlSimConfig, DynamicGraph, EdgeEvent, EpochStats, EventLog, InferenceSession,
    ModelConfig, ModelKind, Snapshot, StreamTrainOptions, StreamWindow, Task, TaskOptions,
    TrainOptions, Trainee, WindowPolicy,
};
use crate::stats::median;

/// Windows that only build history before the first one trains.
const MIN_HISTORY: usize = 2;
const EPOCHS_PER_WINDOW: usize = 2;
const NB: usize = 2;

fn stream_options(seed: u64, history: usize, lr: f32) -> StreamTrainOptions {
    StreamTrainOptions {
        policy: WindowPolicy::Tumbling { width: 1 },
        history,
        min_history: MIN_HISTORY,
        epochs_per_window: EPOCHS_PER_WINDOW,
        train: TrainOptions {
            epochs: EPOCHS_PER_WINDOW,
            lr,
            nb: NB,
            seed,
            threads: None,
        },
        task: TaskOptions {
            seed,
            ..TaskOptions::default()
        },
    }
}

/// The trailing history a window trains on, kept as `train_streaming`
/// keeps it: up to `history` training snapshots plus the newest, held
/// out, and the touched-vertex journal of each transition between them.
struct History {
    cap: usize,
    snapshots: VecDeque<Snapshot>,
    transitions: VecDeque<Vec<u32>>,
}

impl History {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            snapshots: VecDeque::new(),
            transitions: VecDeque::new(),
        }
    }

    /// Appends a closed window; returns whether enough history exists to
    /// train on.
    fn push(&mut self, w: &StreamWindow) -> bool {
        if !self.snapshots.is_empty() {
            self.transitions.push_back(w.touched.clone());
        }
        self.snapshots.push_back(w.snapshot.clone());
        while self.snapshots.len() > self.cap + 1 {
            self.snapshots.pop_front();
            self.transitions.pop_front();
        }
        self.snapshots.len() > MIN_HISTORY
    }

    /// Prepares the task of the current window: all but the newest
    /// snapshot to train on, the newest held out, and the journal of the
    /// training slice's own transitions.
    fn task(&self, n: usize, cfg: &ModelConfig, opts: &TaskOptions) -> Task {
        let t = self.snapshots.len() - 1;
        let train: Vec<Snapshot> = self.snapshots.iter().take(t).cloned().collect();
        let next = self.snapshots.back().expect("history is not empty");
        let journal: Vec<Vec<u32>> = self.transitions.iter().take(t - 1).cloned().collect();
        let raw = DynamicGraph::new(n, train);
        adapter::prepare_task(&raw, next, cfg, opts, Some(&journal))
    }
}

/// What a pass over the log leaves behind for checks and metrics.
#[derive(Default)]
struct Pass {
    /// Loss bit patterns per trained window.
    bits: Vec<Vec<u64>>,
    epochs: Vec<EpochStats>,
    train_ms: Vec<f64>,
    events: Vec<f64>,
    touched_frac: Vec<f64>,
    /// Time `next_window` took per window, in seconds.
    close_s: Vec<f64>,
    last_task: Option<Task>,
}

// ---- stream_train ----------------------------------------------------

// An AML-style transaction stream at 2% churn per step, sized so that a
// pass over the log is one to two seconds on the reference host.
const ST_N: usize = 8_192;
const ST_STEPS: usize = 9;
const ST_TXNS: usize = 15_000;
const ST_HISTORY: usize = 4;
const ST_LR: f32 = 0.05;

fn aml_log(seed: u64) -> EventLog {
    let cfg = AmlSimConfig {
        n: ST_N,
        t: ST_STEPS,
        communities: 16,
        transactions_per_step: ST_TXNS,
        churn: 0.02,
        rings: 48,
        ring_size: 6,
        ..AmlSimConfig::default()
    };
    adapter::event_log(&adapter::amlsim_like(&cfg, seed))
}

/// `train_streaming` taken apart into the public calls it makes, so that
/// the traced run has a span per layer. Must train the same bits.
fn decomposed_pass(log: &EventLog, cfg: ModelConfig, opts: &StreamTrainOptions) -> Pass {
    let _ws = adapter::workspace_engage();
    let mut tr = Trainee::new(cfg, opts.train.seed);
    let mut history = History::new(opts.history);
    let mut pass = Pass::default();
    let mut it = adapter::windows(log);
    loop {
        let t0 = Instant::now();
        let Some(w) = adapter::next_window(&mut it) else {
            break;
        };
        pass.close_s.push(t0.elapsed().as_secs_f64());
        pass.events.push(w.events as f64);
        pass.touched_frac
            .push(w.touched.len() as f64 / log.n() as f64);
        if !history.push(&w) {
            continue;
        }
        let task = history.task(log.n(), &cfg, &opts.task);
        let t0 = Instant::now();
        let epochs = adapter::train_single(&mut tr, &task, &opts.train);
        pass.train_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.bits.push(loss_bits(&epochs));
        pass.epochs.extend(epochs);
        pass.last_task = Some(task);
    }
    pass
}

pub fn stream_train(ctx: &mut Ctx) {
    let cfg = adapter::model_config(ModelKind::CdGcn, 2, 8);
    let seed = ctx.seed;
    let opts = stream_options(seed, ST_HISTORY, ST_LR);
    ctx.note("n", ST_N as f64);
    ctx.note("steps", ST_STEPS as f64);
    ctx.note("transactions_per_step", ST_TXNS as f64);
    ctx.note("history", ST_HISTORY as f64);
    ctx.note("hidden", cfg.hidden as f64);
    // Set-up ends with one untimed pass, whose losses every timed pass
    // must repeat and whose last window gives the quality figures.
    let build = || {
        let log = aml_log(seed);
        let warm = adapter::train_streaming(&log, cfg, &opts);
        (log, warm)
    };
    let (log, warm) = ctx.setup(build);
    ctx.note("events", log.len() as f64);
    let reference: Vec<Vec<u64>> = warm.iter().map(|w| loss_bits(&w.epochs)).collect();
    ctx.check("the stream trained at least two windows", warm.len() >= 2);
    let losses: Vec<f64> = warm
        .iter()
        .flat_map(|w| w.epochs.iter().map(|e| e.loss))
        .collect();
    check_losses(ctx, "stream", &losses);
    let auc = warm.last().map_or(0.0, |w| w.auc);
    ctx.check(
        "the last window ranks held-out edges better than chance",
        auc > 0.5,
    );
    ctx.set("core.holdout_auc", auc);
    if let Some(w) = warm.last() {
        report_last_epoch(ctx, &w.epochs);
    }

    let mut phases = Phases::default();
    let mut last = Pass::default();
    ctx.fill(|ctx, _| {
        let (bits, ms) = if ctx.trace {
            let (pass, ms) = ctx.timed(|| decomposed_pass(&log, cfg, &opts));
            if ctx.sample_is_traced() {
                for (ms, epochs) in pass
                    .train_ms
                    .iter()
                    .zip(pass.epochs.chunks(EPOCHS_PER_WINDOW))
                {
                    phases.add_call(epochs, *ms);
                }
            }
            let bits = pass.bits.clone();
            last = pass;
            (bits, ms)
        } else {
            let (stats, ms) = ctx.timed(|| adapter::train_streaming(&log, cfg, &opts));
            (stats.iter().map(|w| loss_bits(&w.epochs)).collect(), ms)
        };
        ctx.steps(bits.len() as u64, ms / bits.len().max(1) as f64);
        ctx.check(
            "the pass repeats train_streaming's per-window losses bit for bit",
            bits == reference,
        );
    });

    if ctx.trace {
        phases.report(ctx, 0.0);
        report_stream(ctx, &last);
        if let Some(task) = &last.last_task {
            report_task(ctx, task, cfg.hidden);
        }
    } else {
        ctx.setup_again(build);
    }
}

/// Sets the stream layer's counts from a pass.
fn report_stream(ctx: &mut Ctx, pass: &Pass) {
    ctx.set("stream.events_per_window", median(&pass.events));
    ctx.set("stream.touched_frac", median(&pass.touched_frac));
    let total = |v: &[f64]| v.iter().sum::<f64>();
    if total(&pass.close_s) > 0.0 {
        ctx.set(
            "stream.apply_events_per_s",
            total(&pass.events) / total(&pass.close_s),
        );
    }
}

// ---- stream_serve ----------------------------------------------------

// The paper's churn model at 2% per step; EvolveGCN because its layers
// compose as a spatial stack, which serving needs.
const SS_N: usize = 16_384;
const SS_STEPS: usize = 8;
const SS_EDGES: usize = 100_000;
const SS_HISTORY: usize = 4;
/// Adam restarts with every window; a larger rate makes EvolveGCN's loss
/// jump between windows instead of falling.
const SS_LR: f32 = 0.01;
/// Query batches answered after each refresh, alternating node lookups
/// and link scores.
const SS_BATCHES: usize = 64;
const BATCH: usize = 256;

/// Batches of node ids, and as many batches of vertex pairs.
pub type QuerySets = (Vec<Vec<u32>>, Vec<Vec<(u32, u32)>>);

/// Deterministic query sets: `count` batches of node ids and of pairs.
pub fn query_sets(n: usize, count: usize, seed: u64) -> QuerySets {
    // A small LCG: the queries need to be spread out, not random.
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as u32
    };
    let nodes = (0..count)
        .map(|_| (0..BATCH).map(|_| next()).collect())
        .collect();
    let pairs = (0..count)
        .map(|_| (0..BATCH).map(|_| (next(), next())).collect())
        .collect();
    (nodes, pairs)
}

/// What the first timed portion of a `stream_serve` step hands on: the
/// closed window trained on and a session holding the new weights over
/// the window's graph, not yet published.
struct Refreshed {
    window: StreamWindow,
    close_s: f64,
    task: Task,
    epochs: Vec<EpochStats>,
    train_ms: f64,
    ckpt_bytes: usize,
    session: Result<InferenceSession, String>,
    /// Checkpoint bytes to advanced session, in milliseconds.
    refresh_ms: f64,
}

/// The window's snapshot as the events a serving session ingests.
fn snapshot_events(s: &Snapshot) -> Vec<EdgeEvent> {
    let adj = s.adj();
    (0..adj.rows())
        .flat_map(|r| {
            adj.row_iter(r)
                .map(move |(c, v)| EdgeEvent::add(0, r as u32, c, v))
        })
        .collect()
}

pub fn stream_serve(ctx: &mut Ctx) {
    let cfg = adapter::model_config(ModelKind::EvolveGcn, 2, 16);
    let seed = ctx.seed;
    let opts = stream_options(seed, SS_HISTORY, SS_LR);
    ctx.note("n", SS_N as f64);
    ctx.note("steps", SS_STEPS as f64);
    ctx.note("edges_per_snapshot", SS_EDGES as f64);
    ctx.note("history", SS_HISTORY as f64);
    ctx.note("hidden", cfg.hidden as f64);
    ctx.note("query_batches_per_window", SS_BATCHES as f64);
    let build = || {
        adapter::event_log(&adapter::churn_skewed(
            SS_N, SS_STEPS, SS_EDGES, 0.02, 0.9, seed,
        ))
    };
    let log = ctx.setup(build);
    ctx.note("events", log.len() as f64);
    let (nodes, pairs) = query_sets(SS_N, SS_BATCHES / 2, seed);

    let mut phases = Phases::default();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    let mut refresh_ms = Vec::new();
    let mut last = Pass::default();
    let mut last_auc = f64::NAN;
    ctx.fill(|ctx, sample| {
        let mut tr = Trainee::new(cfg, seed);
        let mut history = History::new(SS_HISTORY);
        let mut pass = Pass::default();
        let mut it = adapter::windows(&log);
        let mut window = 0u32;
        loop {
            crate::spans::set_group(sample * 1000 + window);
            window += 1;
            if history.snapshots.len() < MIN_HISTORY {
                // History only: nothing to train on or serve yet.
                match adapter::next_window(&mut it) {
                    Some(w) => history.push(&w),
                    None => break,
                };
                continue;
            }
            // From the window's events to a session holding new weights
            // over the window's graph.
            let (refreshed, mut step_ms) = ctx.timed(|| {
                let t0 = Instant::now();
                let window = adapter::next_window(&mut it)?;
                let close_s = t0.elapsed().as_secs_f64();
                history.push(&window);
                let task = history.task(SS_N, &cfg, &opts.task);
                let t0 = Instant::now();
                let epochs = adapter::train_single(&mut tr, &task, &opts.train);
                let train_ms = t0.elapsed().as_secs_f64() * 1e3;
                let bytes = adapter::checkpoint_encode(&tr);
                let t1 = Instant::now();
                let session = adapter::checkpoint_decode(&bytes).and_then(|cp| {
                    let mut s = adapter::session_open(&cp, task.features[task.t - 1].clone())?;
                    adapter::session_ingest(&mut s, &snapshot_events(&window.snapshot));
                    adapter::session_advance(&mut s);
                    Ok(s)
                });
                Some(Refreshed {
                    window,
                    close_s,
                    task,
                    epochs,
                    train_ms,
                    ckpt_bytes: bytes.len(),
                    session,
                    refresh_ms: t1.elapsed().as_secs_f64() * 1e3,
                })
            });
            let Some(r) = refreshed else { break };
            let session = match r.session {
                Ok(s) => s,
                Err(e) => {
                    ctx.check(&format!("the checkpoint was served: {e}"), false);
                    break;
                }
            };
            ctx.check(
                "the session equals a from-scratch forward before it is published",
                adapter::session_matches_full(&session),
            );
            let (server, publish_ms) = ctx.timed(|| adapter::publish(session));
            ctx.check(
                "the published snapshot's digest matches its contents",
                adapter::published_digest_ok(&server),
            );
            let ((), query_ms) = ctx.timed(|| {
                for (nodes, pairs) in nodes.iter().zip(&pairs) {
                    std::hint::black_box(adapter::predict_nodes(&server, nodes));
                    std::hint::black_box(adapter::score_links(&server, pairs));
                }
            });
            step_ms += publish_ms + query_ms;
            ctx.steps(1, step_ms);

            refresh_ms.push(r.refresh_ms + publish_ms);
            if ctx.sample_is_traced() {
                phases.add_call(&r.epochs, r.train_ms);
            }
            pass.close_s.push(r.close_s);
            pass.events.push(r.window.events as f64);
            pass.touched_frac
                .push(r.window.touched.len() as f64 / SS_N as f64);
            pass.bits.push(loss_bits(&r.epochs));
            pass.epochs.extend(r.epochs);
            ctx.set("serve.ckpt_bytes", r.ckpt_bytes as f64);
            let task = r.task;
            // Held-out pairs of the newest snapshot, scored as a client would.
            let held: Vec<(u32, u32)> = task
                .test
                .src
                .iter()
                .copied()
                .zip(task.test.dst.iter().copied())
                .collect();
            last_auc = adapter::auc(&adapter::score_links(&server, &held), &task.test.labels);
            pass.last_task = Some(task);
        }
        let same = reference.get_or_insert_with(|| pass.bits.clone()) == &pass.bits;
        ctx.check(
            "the pass repeats the first pass's per-window losses bit for bit",
            same,
        );
        last = pass;
    });

    let losses: Vec<f64> = last.epochs.iter().map(|e| e.loss).collect();
    check_losses(ctx, "last pass", &losses);
    ctx.check(
        "the served scores rank held-out edges better than chance",
        last_auc > 0.5,
    );
    report_last_epoch(ctx, &last.epochs);
    ctx.set("core.holdout_auc", last_auc);

    if ctx.trace {
        phases.report(ctx, 0.0);
        ctx.set("serve.refresh_ms", median(&refresh_ms));
        report_stream(ctx, &last);
        if let Some(task) = &last.last_task {
            report_task(ctx, task, cfg.hidden);
        }
    } else {
        ctx.setup_again(build);
    }
}
