//! `serve_mixed`: writes beside reads on the serving tier. One client in
//! a closed loop sends an event batch, waits for the advance, then sends
//! sixteen query batches; every tenth event batch is a burst.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::stream::query_sets;
use super::{probes, Ctx};
use crate::adapter::{self, Dense, EdgeEvent, InferenceSession, ModelKind, Trainee};
use crate::stats::{median, tail};

const N: usize = 20_000;
const INPUT_F: usize = 16;
const HIDDEN: usize = 32;
/// Edges loaded before the loop starts: bounded degree and no hubs, so a
/// touched vertex's two-hop ball stays a small part of the graph.
const BULK_EDGES: usize = 60_000;
/// Rounds per cycle; a cycle is the step.
const ROUNDS: usize = 10;
/// Events of an ordinary round: the trickle a live service sees, which
/// keeps the advance on the incremental frontier.
const TRICKLE: usize = 10;
/// Events of each cycle's last round: a burst that touches enough of the
/// graph for the frontier to reach most rows.
const BURST: usize = 2_000;
const BATCHES_PER_ROUND: usize = 16;

/// Events in round `round` of a cycle: the last one is the burst.
fn batch_len(round: usize) -> usize {
    if round == ROUNDS - 1 {
        BURST
    } else {
        TRICKLE
    }
}

fn features() -> Dense {
    Dense::from_fn(N, INPUT_F, |r, c| {
        ((r * 31 + c * 7) % 23) as f32 / 23.0 - 0.5
    })
}

/// The client's view of the graph: the edges it has added and not yet
/// removed, and the generator its next events come from.
struct Client {
    rng: StdRng,
    edges: Vec<(u32, u32)>,
    clock: u64,
}

impl Client {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            edges: Vec::with_capacity(BULK_EDGES + BURST),
            clock: 0,
        }
    }

    fn fresh_edge(&mut self) -> (u32, u32) {
        loop {
            let e = (
                self.rng.gen_range(0..N as u32),
                self.rng.gen_range(0..N as u32),
            );
            if e.0 != e.1 {
                return e;
            }
        }
    }

    fn bulk(&mut self) -> Vec<EdgeEvent> {
        (0..BULK_EDGES)
            .map(|_| {
                let (u, v) = self.fresh_edge();
                self.edges.push((u, v));
                EdgeEvent::add(0, u, v, 1.0)
            })
            .collect()
    }

    /// The next batch: adds, removes and weight updates in equal shares,
    /// removes and updates always of an edge that is there.
    fn batch(&mut self, len: usize) -> Vec<EdgeEvent> {
        self.clock += 1;
        (0..len)
            .map(|_| match self.rng.gen_range(0..3u8) {
                0 => {
                    let (u, v) = self.fresh_edge();
                    self.edges.push((u, v));
                    EdgeEvent::add(self.clock, u, v, 1.0)
                }
                1 => {
                    let at = self.rng.gen_range(0..self.edges.len());
                    let (u, v) = self.edges.swap_remove(at);
                    EdgeEvent::remove(self.clock, u, v)
                }
                _ => {
                    let (u, v) = self.edges[self.rng.gen_range(0..self.edges.len())];
                    EdgeEvent::update(self.clock, u, v, 2.0)
                }
            })
            .collect()
    }
}

/// A session with the checkpoint's weights over the bulk-loaded graph.
fn loaded_session(bytes: &[u8], bulk: &[EdgeEvent]) -> Result<InferenceSession, String> {
    let cp = adapter::checkpoint_decode(bytes)?;
    let mut session = adapter::session_open(&cp, features())?;
    adapter::session_ingest(&mut session, bulk);
    adapter::session_advance(&mut session);
    Ok(session)
}

pub fn serve_mixed(ctx: &mut Ctx) {
    let cfg = adapter::model_config(ModelKind::EvolveGcn, INPUT_F, HIDDEN);
    let seed = ctx.seed;
    ctx.note("n", N as f64);
    ctx.note("input_f", INPUT_F as f64);
    ctx.note("hidden", HIDDEN as f64);
    ctx.note("bulk_edges", BULK_EDGES as f64);
    ctx.note("rounds_per_cycle", ROUNDS as f64);
    ctx.note("trickle_events", TRICKLE as f64);
    ctx.note("burst_events", BURST as f64);
    ctx.note("query_batches_per_round", BATCHES_PER_ROUND as f64);

    // The weights are a fresh initialisation: serving cost does not
    // depend on what they were trained to.
    let build = move || {
        let mut client = Client::new(seed);
        let bulk = client.bulk();
        let bytes = adapter::checkpoint_encode(&Trainee::new(cfg, seed));
        let server = loaded_session(&bytes, &bulk).map(adapter::publish);
        (client, bulk, bytes, server)
    };
    let (mut client, bulk, bytes, server) = ctx.setup(build);
    ctx.set("serve.ckpt_bytes", bytes.len() as f64);
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            ctx.check(&format!("the checkpoint was served: {e}"), false);
            return;
        }
    };
    let (nodes, pairs) = query_sets(N, BATCHES_PER_ROUND / 2, seed);

    let mut rounds_done = 0usize;
    let mut trickle_ms = Vec::new();
    let mut burst_ms = Vec::new();
    let mut trickle_frontier = Vec::new();
    let mut burst_frontier = Vec::new();
    let mut predict_us = Vec::new();
    let mut score_us = Vec::new();
    let mut versions_in_order = true;
    let mut version: Option<u64> = None;
    ctx.fill(|ctx, cycle| {
        let mut cycle_ms = 0.0;
        for round in 0..ROUNDS {
            crate::spans::set_group(cycle * ROUNDS as u32 + round as u32);
            let burst = round == ROUNDS - 1;
            let events = client.batch(batch_len(round));
            rounds_done += 1;
            let (report, ms) = ctx.timed(|| adapter::server_advance(&server, &events));
            cycle_ms += ms;
            versions_in_order &= version.is_none_or(|v| report.version == v + 1);
            version = Some(report.version);
            let frontier = report.frontier_rows.last().copied().unwrap_or(0) as f64 / N as f64;
            if burst {
                burst_ms.push(ms);
                burst_frontier.push(frontier);
            } else {
                trickle_ms.push(ms);
                trickle_frontier.push(frontier);
            }
            let ((), ms) = ctx.timed(|| {
                for (nodes, pairs) in nodes.iter().zip(&pairs) {
                    let t0 = Instant::now();
                    std::hint::black_box(adapter::predict_nodes(&server, nodes));
                    let t1 = Instant::now();
                    std::hint::black_box(adapter::score_links(&server, pairs));
                    predict_us.push((t1 - t0).as_secs_f64() * 1e6);
                    score_us.push(t1.elapsed().as_secs_f64() * 1e6);
                }
            });
            cycle_ms += ms;
        }
        ctx.steps(1, cycle_ms);
    });
    ctx.check(
        "every advance published the next version",
        versions_in_order,
    );
    ctx.check(
        "the last published snapshot's digest matches its contents",
        adapter::published_digest_ok(&server),
    );

    // A shadow session fed the same events in one window: its
    // from-scratch forward must equal what the server ended up serving.
    // The events are generated again rather than kept through the timed
    // region, where they would make the process's peak memory grow with
    // the number of cycles it ran.
    let shadow = loaded_session(&bytes, &bulk).map(|mut s| {
        let mut replay = Client::new(seed);
        replay.bulk();
        let sent: Vec<EdgeEvent> = (0..rounds_done)
            .flat_map(|round| replay.batch(batch_len(round % ROUNDS)))
            .collect();
        adapter::session_ingest(&mut s, &sent);
        adapter::session_advance(&mut s);
        s
    });
    match &shadow {
        Ok(shadow) => {
            let full = adapter::session_full_forward(shadow);
            let served = adapter::published_embeddings(&server);
            let same = full.shape() == served.shape()
                && full
                    .data()
                    .iter()
                    .zip(served.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            ctx.check(
                "served embeddings equal the shadow's full forward bit for bit",
                same,
            );
        }
        Err(e) => ctx.check(&format!("the shadow session opened: {e}"), false),
    }

    if ctx.trace {
        let advance = median(&trickle_ms);
        let (pct, advance_tail) = tail(&trickle_ms);
        ctx.set("serve.advance_ms", advance);
        ctx.set("serve.advance_tail_ms", advance_tail);
        ctx.set("serve.advance_tail_pct", pct);
        ctx.set("serve.burst_advance_ms", median(&burst_ms));
        ctx.set("serve.frontier_frac", median(&trickle_frontier));
        ctx.set("serve.burst_frontier_frac", median(&burst_frontier));
        let (pct, predict_tail) = tail(&predict_us);
        ctx.set("serve.predict_us", median(&predict_us));
        ctx.set("serve.predict_tail_us", predict_tail);
        ctx.set("serve.score_us", median(&score_us));
        ctx.set("serve.score_tail_us", tail(&score_us).1);
        ctx.set("serve.query_tail_pct", pct);
        if let Ok(shadow) = &shadow {
            let full_ms = probes::full_forward_ms(shadow);
            ctx.set("serve.advance_over_full", advance / full_ms);
            let graph = adapter::session_snapshot(shadow);
            probes::tensor(ctx, &adapter::laplacian(&graph), HIDDEN);
            if let Ok(before) = loaded_session(&bytes, &bulk) {
                probes::graph(&adapter::session_snapshot(&before), &graph);
            }
        }
    } else {
        ctx.setup_again(build);
    }
}
