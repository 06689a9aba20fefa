//! The three batch-training workloads: resident, out of core, and
//! snapshot-partitioned over two rank threads. All train on the paper's
//! churn model with Zipf-skewed endpoints.

use super::{check_losses, loss_bits, probes, report_last_epoch, report_task, Ctx, Phases};
use crate::adapter::{
    self, DynamicGraph, EpochStats, ModelConfig, ModelKind, Snapshot, StoreStats, Task,
    TaskOptions, TrainOptions, Trainee,
};

// Sized on the 2-core reference host so that one sample is about a
// second: the median step is then taken over some ten samples in a 10 s
// run.
const N: usize = 16_384;
/// Training snapshots; one more is generated and held out.
const T: usize = 8;
const EDGES: usize = 100_000;
const CHURN: f64 = 0.1;
const ZIPF: f64 = 0.9;
const LR: f32 = 0.05;
/// Checkpoint blocks of two snapshots each: the recompute pass and the
/// store's prefetch schedule both have something to walk.
const NB: usize = 4;

/// Epochs per single-rank call. Two, so that a call has an epoch with a
/// warm buffer workspace as well as the cold first one.
const EPOCHS: usize = 2;

/// Epochs per distributed call, which prepares its task inside the call:
/// more epochs keep that share of a step small, as a real run would.
const DIST_EPOCHS: usize = 4;
const RANKS: usize = 2;
/// Epochs of the single-rank run the distributed losses are held against.
const DIST_TWIN_EPOCHS: usize = 2;

struct Input {
    raw: DynamicGraph,
    next: Snapshot,
}

fn generate(seed: u64) -> Input {
    let g = adapter::churn_skewed(N, T + 1, EDGES, CHURN, ZIPF, seed);
    let (raw, next) = adapter::split_holdout(&g);
    Input { raw, next }
}

fn task_options(seed: u64) -> TaskOptions {
    TaskOptions {
        seed,
        ..TaskOptions::default()
    }
}

fn train_options(seed: u64, epochs: usize, threads: Option<usize>) -> TrainOptions {
    TrainOptions {
        epochs,
        lr: LR,
        nb: NB,
        seed,
        threads,
    }
}

fn note_sizes(ctx: &mut Ctx, cfg: &ModelConfig, epochs: usize) {
    ctx.note("n", N as f64);
    ctx.note("train_snapshots", T as f64);
    ctx.note("edges_per_snapshot", EDGES as f64);
    ctx.note("churn", CHURN);
    ctx.note("hidden", cfg.hidden as f64);
    ctx.note("epochs_per_sample", epochs as f64);
    ctx.note("nb", NB as f64);
}

fn report_store(ctx: &mut Ctx, s: &StoreStats, epochs: &[EpochStats], budget: u64) {
    let per_epoch = epochs.len().max(1) as f64;
    let faults = (s.prefetch_hits + s.demand_misses).max(1) as f64;
    ctx.set(
        "store.miss_bytes_per_epoch",
        s.miss_bytes as f64 / per_epoch,
    );
    ctx.set("store.demand_misses", s.demand_misses as f64);
    ctx.set("store.prefetch_hits", s.prefetch_hits as f64);
    ctx.set("store.prefetch_hit_ratio", s.prefetch_hits as f64 / faults);
    ctx.set("store.evictions", s.evictions as f64);
    ctx.set(
        "store.peak_resident_frac",
        s.peak_resident_bytes as f64 / budget as f64,
    );
    ctx.set(
        "store.wait_ms_per_epoch",
        s.wait_us as f64 / 1e3 / per_epoch,
    );
    ctx.set("store.spilled_bytes", s.spilled_bytes as f64);
}

/// What one single-rank training call returned.
type Call = Result<(Vec<EpochStats>, Option<StoreStats>), String>;

/// `train_mem` and `train_ooc`: the same task, model and calls, the
/// second through the tiered store under half the working set.
fn train_resident_or_spilled(ctx: &mut Ctx, out_of_core: bool) {
    let cfg = adapter::model_config(ModelKind::CdGcn, 2, 6);
    note_sizes(ctx, &cfg, EPOCHS);
    let seed = ctx.seed;
    let opts = train_options(seed, EPOCHS, None);
    let spill_dir = if out_of_core {
        ctx.scratch_dir("spill")
    } else {
        std::path::PathBuf::new()
    };
    let call = |task: &Task, budget: u64, opts: &TrainOptions, tr: &mut Trainee| -> Call {
        if out_of_core {
            adapter::train_single_out_of_core(tr, task, opts, budget, &spill_dir)
                .map(|(epochs, store)| (epochs, Some(store)))
        } else {
            Ok((adapter::train_single(tr, task, opts), None))
        }
    };
    // Set-up ends with one untimed single-epoch call: page faults and
    // lazily started pools are not what an epoch costs.
    let build = || {
        let input = generate(seed);
        let task = adapter::prepare_task(&input.raw, &input.next, &cfg, &task_options(seed), None);
        let budget = adapter::working_set_bytes(&task) / 2;
        let warm = call(
            &task,
            budget,
            &train_options(seed, 1, None),
            &mut Trainee::new(cfg, seed),
        );
        (task, budget, warm.err())
    };
    let (task, budget, warm_error) = ctx.setup(build);
    match warm_error {
        None => ctx.check("the warm-up call returned", true),
        Some(e) => ctx.check(&format!("the warm-up call returned: {e}"), false),
    }
    if out_of_core {
        ctx.note("store_budget_bytes", budget as f64);
    }

    let mut phases = Phases::default();
    let mut reference: Option<(Vec<u64>, u64)> = None;
    let mut last: Option<(Vec<EpochStats>, Option<StoreStats>)> = None;
    ctx.fill(|ctx, _| {
        // Every sample starts from the same fresh parameters, so every
        // sample is the same work and must return the same bits.
        let mut tr = Trainee::new(cfg, seed);
        let (result, ms) = ctx.timed(|| call(&task, budget, &opts, &mut tr));
        match result {
            Ok((epochs, store)) => {
                ctx.steps(EPOCHS as u64, ms / EPOCHS as f64);
                if ctx.sample_is_traced() {
                    phases.add_call(&epochs, ms);
                }
                let bits = (loss_bits(&epochs), tr.digest());
                let same = reference.get_or_insert_with(|| bits.clone()) == &bits;
                ctx.check(
                    "the sample repeats the first sample's losses and parameters",
                    same,
                );
                last = Some((epochs, store));
            }
            Err(e) => ctx.check(&format!("training returned: {e}"), false),
        }
    });

    if let Some((epochs, store)) = &last {
        let losses: Vec<f64> = epochs.iter().map(|e| e.loss).collect();
        check_losses(ctx, "last sample", &losses);
        report_last_epoch(ctx, epochs);
        if let Some(store) = store {
            report_store(ctx, store, epochs, budget);
            ctx.check(
                "the memory tier stayed within its budget",
                store.peak_resident_bytes <= budget,
            );
            ctx.check("the budget made the file tier fault", store.miss_bytes > 0);
        }
    }
    if out_of_core {
        // The in-memory twin, untimed: the store must not change a bit.
        let mut twin = Trainee::new(cfg, seed);
        let twin_bits = (
            loss_bits(&adapter::train_single(&mut twin, &task, &opts)),
            twin.digest(),
        );
        ctx.check(
            "losses and parameters equal the in-memory twin's bit for bit",
            reference.as_ref() == Some(&twin_bits),
        );
    }
    if ctx.trace {
        phases.report(ctx, 0.0);
        report_task(ctx, &task, cfg.hidden);
        if out_of_core {
            probes::store(ctx);
        }
    } else {
        ctx.setup_again(build);
    }
    if out_of_core {
        ctx.remove_scratch_dir(&spill_dir);
    }
}

pub fn train_mem(ctx: &mut Ctx) {
    train_resident_or_spilled(ctx, false);
}

pub fn train_ooc(ctx: &mut Ctx) {
    train_resident_or_spilled(ctx, true);
}

/// TM-GCN over two rank threads of one kernel thread each: the host has
/// two cores, so more would measure the scheduler.
pub fn train_dist(ctx: &mut Ctx) {
    let cfg = adapter::model_config(ModelKind::TmGcn, 2, 16);
    note_sizes(ctx, &cfg, DIST_EPOCHS);
    ctx.note("ranks", RANKS as f64);
    let seed = ctx.seed;
    let topts = task_options(seed);
    let opts = train_options(seed, DIST_EPOCHS, Some(1));
    let call = |input: &Input, epochs: usize, p: usize| {
        let opts = TrainOptions { epochs, ..opts };
        adapter::train_distributed(&input.raw, &input.next, cfg, &topts, &opts, p)
    };
    let build = || {
        let input = generate(seed);
        call(&input, 1, RANKS);
        input
    };
    let input = ctx.setup(build);

    let mut phases = Phases::default();
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    let mut last: Option<Vec<EpochStats>> = None;
    ctx.fill(|ctx, _| {
        let ((epochs, digests), ms) = ctx.timed(|| call(&input, DIST_EPOCHS, RANKS));
        ctx.steps(DIST_EPOCHS as u64, ms / DIST_EPOCHS as f64);
        if ctx.sample_is_traced() {
            phases.add_call(&epochs, ms);
        }
        ctx.check(
            "every rank ends with the same parameters",
            digests.len() == RANKS && digests.iter().all(|d| *d == digests[0]),
        );
        let bits = (loss_bits(&epochs), digests);
        let same = reference.get_or_insert_with(|| bits.clone()) == &bits;
        ctx.check(
            "the sample repeats the first sample's losses and parameters",
            same,
        );
        last = Some(epochs);
    });

    let epochs = last.unwrap_or_default();
    let losses: Vec<f64> = epochs.iter().map(|e| e.loss).collect();
    check_losses(ctx, "last sample", &losses);
    report_last_epoch(ctx, &epochs);
    // Paper Fig. 6: distributing the timeline does not change training.
    let (twin, _) = call(&input, DIST_TWIN_EPOCHS, 1);
    let close = twin.len() == DIST_TWIN_EPOCHS
        && twin
            .iter()
            .zip(&epochs)
            .all(|(a, b)| ((a.loss - b.loss) / a.loss).abs() <= 1e-5);
    ctx.check("losses follow the single-rank run within 1e-5", close);

    if ctx.trace {
        // The call prepares its task inside itself; the same preparation
        // timed out here says how much of the call that was.
        let t0 = std::time::Instant::now();
        let task = adapter::prepare_task(&input.raw, &input.next, &cfg, &topts, None);
        phases.report(ctx, t0.elapsed().as_secs_f64() * 1e3);
        report_task(ctx, &task, cfg.hidden);
        probes::sim(ctx, &task, &cfg, RANKS, NB, phases.epoch_ms());
    } else {
        ctx.setup_again(build);
    }
}
