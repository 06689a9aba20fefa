//! The six workloads and what they share: the run's context, a clock
//! that runs only inside timed portions, the repeated set-up, and the
//! loop that fills `--seconds` with samples.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, EpochStats, Task, TraceEvent};
use crate::host;
use crate::report::Outcome;
use crate::spans::{self, SpanRec};
use crate::stats::median;

mod probes;
mod serve;
mod stream;
mod train;

/// How often the untraced run sets up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// The root span of every timed portion: layer spans under it are what
/// the timed wall is attributed to.
const TIMED: &str = "bench.timed";

/// One run's inputs and everything it accumulates.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Outcome,
    /// Wall and processor time of the timed portions so far.
    wall_ns: u64,
    cpu_ns: u64,
    /// Wall time per step, one entry per sample or per step.
    step_ms: Vec<f64>,
    steps: u64,
    samples: u32,
    /// The same for the traced run's plain samples: every second sample
    /// of a traced run has tracing switched off, so that the two kinds
    /// are measured minutes, not runs, apart.
    plain_step_ms: Vec<f64>,
    plain_steps: u64,
    sample_is_plain: bool,
    setup_s: Vec<f64>,
    program_events: Vec<TraceEvent>,
    program_dropped: u64,
}

impl Ctx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            out: Outcome::default(),
            wall_ns: 0,
            cpu_ns: 0,
            step_ms: Vec::new(),
            steps: 0,
            samples: 0,
            plain_step_ms: Vec::new(),
            plain_steps: 0,
            sample_is_plain: false,
            setup_s: Vec::new(),
            program_events: Vec::new(),
            program_dropped: 0,
        }
    }

    /// Records a resolved size or other fact beside the numbers.
    pub fn note(&mut self, key: &'static str, v: f64) {
        self.out.notes.push((key, v));
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.out.values.insert(name, v);
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.out.checks.check(what, ok);
    }

    /// Makes an empty directory of this run's own for spill files, and
    /// counts that as an operation. The name carries the process and the
    /// clock: runs that share a checkout, or a process number, never
    /// share a directory.
    pub fn scratch_dir(&mut self, kind: &str) -> PathBuf {
        let since_epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let name = format!("{kind}-{}-{since_epoch}", std::process::id());
        let dir = writable_out_dir().join(name);
        let made = std::fs::create_dir_all(&dir);
        self.check_io(&format!("{} was created", dir.display()), made);
        dir
    }

    /// Removes a directory [`Ctx::scratch_dir`] made. Tidying up is the
    /// benchmark's own business, not an output of the program: a failure
    /// is said on standard error and not counted.
    pub fn remove_scratch_dir(&self, dir: &Path) {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("dgnn-benchmark: {} was not removed: {e}", dir.display());
        }
    }

    /// A check on a file operation; a failure is named with its error.
    fn check_io(&mut self, what: &str, result: std::io::Result<()>) {
        match result {
            Ok(()) => self.check(what, true),
            Err(e) => self.check(&format!("{what}: {e}"), false),
        }
    }

    /// Builds the workload's inputs, with whatever warm-up call the
    /// workload makes before its first step, and times it: the first of
    /// the set-up times.
    pub fn setup<S>(&mut self, build: impl FnOnce() -> S) -> S {
        let _s = spans::span("bench.setup");
        let t0 = Instant::now();
        let kept = build();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        kept
    }

    /// Times the set-up again, [`SETUP_REPS`] times in all, each result
    /// dropped before the next is built. Call after [`Ctx::fill`], which
    /// has read the peak resident set by then.
    pub fn setup_again<S>(&mut self, build: impl Fn() -> S) {
        for _ in 1..SETUP_REPS {
            let t0 = Instant::now();
            drop(build());
            self.setup_s.push(t0.elapsed().as_secs_f64());
        }
    }

    /// Runs `f` on the clock and returns its wall time in milliseconds.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let _s = spans::span(TIMED);
        let (cpu0, t0) = (host::cpu_ns(), Instant::now());
        let r = f();
        let wall = t0.elapsed().as_nanos() as u64;
        self.wall_ns += wall;
        self.cpu_ns += host::cpu_ns() - cpu0;
        (r, wall as f64 / 1e6)
    }

    /// Repeats `sample` until the timed portions fill `--seconds`, then
    /// reads the peak resident set. Each call is one sample: it times its
    /// own work through [`Ctx::timed`] and reports it through
    /// [`Ctx::steps`]. In a traced run the odd samples are plain ones.
    pub fn fill(&mut self, mut sample: impl FnMut(&mut Ctx, u32)) {
        while (self.wall_ns as f64) < self.seconds * 1e9 {
            let id = self.samples;
            spans::set_group(id);
            if id == 0 {
                adapter::reset_alloc_stats();
            }
            self.sample_is_plain = self.trace && id % 2 == 1;
            set_tracing(self.trace && !self.sample_is_plain);
            let steps_before = self.steps + self.plain_steps;
            sample(self, id);
            if id == 0 {
                // The first sample is the same work on every run of a
                // seed, however many samples the time allows after it.
                let (fresh, reused) = adapter::alloc_stats();
                let steps = (self.steps - steps_before).max(1) as f64;
                self.set("tensor.ws_fresh_allocs_per_step", fresh as f64 / steps);
                self.set("tensor.ws_reused_per_step", reused as f64 / steps);
            }
            self.samples += 1;
            self.drain_program_trace();
            if self.steps + self.plain_steps == steps_before {
                // A sample that failed before its first step: its check
                // is counted; do not spin on it until the time is up.
                break;
            }
        }
        self.sample_is_plain = false;
        set_tracing(self.trace);
        // Read now: twins and repeated set-ups built for checks from here
        // on are not the workload's memory.
        if let Some(rss) = host::peak_rss_mib() {
            self.set("peak_rss_mb", rss);
        }
    }

    /// Whether the current sample records spans and phase times: every
    /// second sample of a traced run, none of an untraced one.
    pub fn sample_is_traced(&self) -> bool {
        self.trace && !self.sample_is_plain
    }

    /// Reports `count` steps that took `ms_each` on average.
    pub fn steps(&mut self, count: u64, ms_each: f64) {
        if self.sample_is_plain {
            self.plain_steps += count;
            self.plain_step_ms.push(ms_each);
        } else {
            self.steps += count;
            self.step_ms.push(ms_each);
        }
    }

    /// Moves the program's own trace events out of its rings before they
    /// wrap; called outside timed portions.
    fn drain_program_trace(&mut self) {
        if self.trace {
            let (events, dropped) = adapter::program_trace_drain();
            self.program_events.extend(events);
            self.program_dropped += dropped;
        }
    }

    /// Turns what the run accumulated into its metrics.
    fn finish(&mut self) {
        let steps = self.steps.max(1) as f64;
        if self.trace {
            let (traced, plain) = (median(&self.step_ms), median(&self.plain_step_ms));
            self.set("telemetry.traced_step_ms", traced);
            self.set("telemetry.plain_step_ms", plain);
            if plain > 0.0 {
                self.set("telemetry.trace_overhead_frac", traced / plain - 1.0);
            }
            self.set("telemetry.steps", self.steps as f64);
            self.set("telemetry.samples", f64::from(self.samples));
            self.drain_program_trace();
            let spans = spans::take();
            self.metrics_from_spans(&spans, steps);
            self.set("telemetry.spans", spans.len() as f64);
            self.set("telemetry.program_events", self.program_events.len() as f64);
            self.set("telemetry.dropped_events", self.program_dropped as f64);
            self.write_trace(&spans);
        } else {
            self.set("step_ms", median(&self.step_ms));
            self.set("cpu_ms_per_step", self.cpu_ns as f64 / 1e6 / steps);
            self.set("setup_s", median(&self.setup_s));
        }
        self.note("steps", self.steps as f64);
        self.note("samples", f64::from(self.samples));
        self.note("timed_wall_s", self.wall_ns as f64 / 1e9);
    }

    /// The metrics that are read off the span table: each layer's self
    /// time inside timed portions, the share of the timed wall that
    /// layers account for, and the median duration of single calls.
    fn metrics_from_spans(&mut self, spans: &[SpanRec], steps: f64) {
        let timed = subtrees(spans, TIMED);
        let by_layer = spans::layer_self_ms(&timed);
        for (layer, name) in [
            ("core", "core.self_ms_per_step"),
            ("graph", "graph.self_ms_per_step"),
            ("stream", "stream.self_ms_per_step"),
            ("serve", "serve.self_ms_per_step"),
        ] {
            self.set(name, by_layer.get(layer).copied().unwrap_or(0.0) / steps);
        }
        self.set("telemetry.span_coverage", spans::coverage(&timed));
        for (name, call) in [
            ("graph.prep_ms", "graph.prepare_task"),
            ("graph.laplacian_ms", "graph.laplacian"),
            ("graph.diff_ms", "graph.diff"),
            ("stream.window_close_ms", "stream.window_next"),
            ("serve.ckpt_encode_ms", "serve.checkpoint_encode"),
            ("serve.ckpt_decode_ms", "serve.checkpoint_decode"),
            ("serve.bulk_ingest_ms", "serve.ingest"),
            ("serve.bulk_forward_ms", "serve.advance"),
            ("serve.full_forward_ms", "serve.full_forward"),
        ] {
            let ms: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == call)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            if !ms.is_empty() {
                self.set(name, median(&ms));
            }
        }
    }

    /// Writes the benchmark's spans and the program's own events as one
    /// Chrome trace, `trace-<workload>.json` in the output directory.
    fn write_trace(&mut self, spans: &[SpanRec]) {
        let text = crate::trace_file::render(spans, &self.program_events);
        let path = writable_out_dir().join(format!("trace-{}.json", self.workload));
        let written = std::fs::write(&path, text);
        self.check_io(&format!("{} was written", path.display()), written);
    }
}

/// Where a run writes its traces and spill files: `benchmark/out` under
/// the working directory, or, where nothing can be written there (a
/// read-only source tree), `out` beside the executable, which the build
/// wrote to a moment ago. Both are inside the checkout.
fn writable_out_dir() -> PathBuf {
    let preferred = PathBuf::from("benchmark/out");
    let beside_exe = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("out")));
    let writable = |dir: &PathBuf| {
        let probe = dir.join(format!(".probe-{}", std::process::id()));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&probe, b"probe"))
            .and_then(|()| std::fs::remove_file(&probe))
            .is_ok()
    };
    [Some(preferred.clone()), beside_exe]
        .into_iter()
        .flatten()
        .find(writable)
        // Neither: the run's file operations fail and are counted.
        .unwrap_or(preferred)
}

/// Switches the benchmark's spans and the program's own tracing together.
fn set_tracing(on: bool) {
    adapter::program_trace(on);
    spans::set_enabled(on);
}

/// The spans named `root` and everything under them, re-indexed, each
/// `root` made a root.
fn subtrees(spans: &[SpanRec], root: &str) -> Vec<SpanRec> {
    let mut new_index: Vec<Option<u32>> = vec![None; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.name == root {
            None
        } else {
            match s.parent.and_then(|p| new_index[p as usize]) {
                Some(p) => Some(p),
                None => continue,
            }
        };
        new_index[i] = Some(out.len() as u32);
        out.push(SpanRec {
            parent,
            ..s.clone()
        });
    }
    out
}

/// Training calls of the traced run: their wall times and the phase
/// times the program reports per epoch.
#[derive(Default)]
pub struct Phases {
    epochs: Vec<EpochStats>,
    calls_ms: Vec<f64>,
}

/// Reads one phase's microseconds out of an epoch's statistics.
type PhaseUs = fn(&EpochStats) -> u64;

impl Phases {
    /// Adds one training call that took `call_ms` and returned `epochs`.
    pub fn add_call(&mut self, epochs: &[EpochStats], call_ms: f64) {
        self.epochs.extend_from_slice(epochs);
        self.calls_ms.push(call_ms);
    }

    fn per_epoch_ms(&self, us: PhaseUs) -> Vec<f64> {
        self.epochs.iter().map(|e| us(e) as f64 / 1e3).collect()
    }

    /// Mean wall time of an epoch: the calls' time shared out evenly.
    pub fn epoch_ms(&self) -> f64 {
        self.calls_ms.iter().sum::<f64>() / self.epochs.len().max(1) as f64
    }

    /// Sets the `core.*` phase metrics and the collectives' share of them.
    /// `prep_ms_per_call` is task preparation a call does inside itself,
    /// as measured on the same input outside: it is time accounted for,
    /// though no phase.
    pub fn report(&self, ctx: &mut Ctx, prep_ms_per_call: f64) {
        let medians: [(&'static str, PhaseUs); 6] = [
            ("core.forward_ms", |e| e.phase.forward_us),
            ("core.recompute_ms", |e| e.phase.recompute_us),
            ("core.backward_ms", |e| e.phase.backward_us),
            ("core.optimizer_ms", |e| e.phase.optimizer_us),
            ("sim.comm_ms", |e| e.phase.comm_us),
            ("sim.comm_wait_ms", |e| e.phase.comm_wait_us),
        ];
        for (name, us) in medians {
            ctx.set(name, median(&self.per_epoch_ms(us)));
        }
        let total = |us: PhaseUs| self.per_epoch_ms(us).iter().sum::<f64>();
        let busy = total(|e| e.phase.busy_us()).max(f64::MIN_POSITIVE);
        let calls = self.calls_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let prep = prep_ms_per_call * self.calls_ms.len() as f64;
        ctx.set("core.job_ms", median(&self.calls_ms));
        ctx.set("core.phase_coverage", (busy + prep) / calls);
        ctx.set(
            "core.recompute_share",
            total(|e| e.phase.recompute_us) / busy,
        );
        ctx.set("sim.comm_share", total(|e| e.phase.comm_us) / busy);
    }
}

/// Sets the quality, transfer-accounting and exchange counts of the last
/// epoch of a training call.
pub fn report_last_epoch(ctx: &mut Ctx, epochs: &[EpochStats]) {
    let Some(last) = epochs.last() else { return };
    ctx.set("core.final_loss", last.loss);
    ctx.set("graph.gd_bytes_per_epoch", last.transfer_gd_bytes as f64);
    ctx.set(
        "graph.naive_bytes_per_epoch",
        last.transfer_naive_bytes as f64,
    );
    ctx.set("graph.gd_ratio", last.gd_speedup());
    ctx.set("sim.comm_bytes_per_epoch", last.comm_bytes as f64);
}

/// The traced run's look at a prepared task: how its first-layer
/// pre-aggregation was built, and the tensor and graph probes on its last
/// operator, at the model's hidden width, and its last two snapshots.
pub fn report_task(ctx: &mut Ctx, task: &Task, width: usize) {
    let r = &task.preagg_reuse;
    ctx.set("graph.preagg_recomputed_frac", r.recomputed_fraction());
    ctx.set("graph.preagg_full_rebuilds", r.full_builds as f64);
    probes::tensor(ctx, &task.laps[task.t - 1], width);
    probes::graph(
        task.graph.snapshot(task.t - 2),
        task.graph.snapshot(task.t - 1),
    );
}

/// Checks a loss trajectory: every value finite, the last below the first.
pub fn check_losses(ctx: &mut Ctx, what: &str, losses: &[f64]) {
    ctx.check(
        &format!("{what}: every loss is finite"),
        !losses.is_empty() && losses.iter().all(|l| l.is_finite()),
    );
    ctx.check(
        &format!("{what}: the last loss is below the first"),
        losses.len() >= 2 && losses[losses.len() - 1] < losses[0],
    );
}

/// Bit patterns of a loss trajectory, for exact comparison.
pub fn loss_bits(epochs: &[EpochStats]) -> Vec<u64> {
    epochs.iter().map(|e| e.loss.to_bits()).collect()
}

/// Runs one workload to its outcome. A panic inside it is caught and
/// counted as a failed operation.
pub fn run(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut ctx = Ctx::new(workload, seed, seconds, trace);
    set_tracing(trace);
    let body: fn(&mut Ctx) = match workload {
        "train_mem" => train::train_mem,
        "train_ooc" => train::train_ooc,
        "train_dist" => train::train_dist,
        "stream_train" => stream::stream_train,
        "stream_serve" => stream::stream_serve,
        "serve_mixed" => serve::serve_mixed,
        other => unreachable!("{other} is not in the catalog"),
    };
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
    ctx.check("the workload ran to its end without a panic", ran.is_ok());
    ctx.finish();
    ctx.note("kernel_threads", adapter::kernel_threads() as f64);
    ctx.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: 0,
            end_ns: 10,
            parent,
            group: 0,
        }
    }

    #[test]
    fn only_timed_subtrees_count_towards_coverage() {
        let spans = [
            rec("bench.setup", None),
            rec("graph.prepare_task", Some(0)),
            rec(TIMED, None),
            rec("core.train_single", Some(2)),
            rec("tensor.spmm", None),
            rec("bench.other", None),
            rec(TIMED, Some(5)),
            rec("serve.advance", Some(6)),
        ];
        let kept = subtrees(&spans, TIMED);
        let names: Vec<_> = kept.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                (TIMED, None),
                ("core.train_single", Some(0)),
                (TIMED, None),
                ("serve.advance", Some(2)),
            ]
        );
    }

    #[test]
    fn the_clock_counts_only_timed_portions() {
        let mut ctx = Ctx::new("train_mem", 1, 0.02, false);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut calls = 0;
        ctx.fill(|ctx, _| {
            let ((), ms) = ctx.timed(|| std::thread::sleep(std::time::Duration::from_millis(15)));
            ctx.steps(3, ms / 3.0);
            calls += 1;
        });
        assert_eq!(calls, 2, "untimed waiting does not use the budget");
        assert_eq!((ctx.steps, ctx.samples), (6, 2));
        assert!(ctx.out.values.contains_key("peak_rss_mb"));
    }

    #[test]
    fn a_sample_without_steps_ends_the_loop() {
        let mut ctx = Ctx::new("train_mem", 1, 60.0, false);
        ctx.fill(|ctx, _| ctx.check("the call returned", false));
        assert_eq!((ctx.samples, ctx.out.checks.failed), (1, 1));
    }
}
