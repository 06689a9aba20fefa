//! The communication layer: rank threads exchanging real data through
//! channels — the NCCL stand-in used by the distributed trainers.
//!
//! Every *ordered pair* of ranks owns a dedicated lane, so rank threads
//! exchange owned buffers peer-to-peer with no shared inbox contention.
//! On top of the lanes, [`Comm`] implements the collectives
//! (`all_to_all`, `all_reduce_sum`, `all_gather`, `barrier`)
//! under a **determinism contract**: reductions combine contributions in
//! fixed rank order 0..P−1, collective matching uses a per-rank monotone
//! operation counter (out-of-order arrivals are buffered and re-ordered),
//! and volume accounting counts payload bytes per send. Results — loss
//! streams, transfer/comm accounting, final parameters — are bit-identical
//! across rank counts and thread counts; `tests/distributed_equivalence.rs`
//! pins every rank's replica to the same bits.
//!
//! Failure semantics: a rank panicking mid-collective must not strand its
//! peers in a blocking receive. Every blocked receive polls a shared
//! poison flag; when a rank unwinds, its peers abort with a [`RankAbort`]
//! payload, and [`try_run_ranks`] surfaces the *originating* rank's panic
//! as a typed [`RankPanic`] instead of deadlocking. [`run_ranks`] resumes
//! the original payload, so panics propagate to the caller exactly as a
//! plain `std::thread` join would.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use dgnn_autograd::Communicator;
use dgnn_telemetry::trace;
use dgnn_tensor::Dense;

/// Message payloads the trainers exchange.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A dense matrix (feature chunks).
    Dense(Dense),
    /// A flat float vector (gradient all-reduce).
    Floats(Vec<f32>),
    /// Synchronisation-only message.
    Empty,
}

impl Payload {
    fn bytes(&self) -> u64 {
        match self {
            Payload::Dense(d) => 4 * d.len() as u64,
            Payload::Floats(f) => 4 * f.len() as u64,
            Payload::Empty => 0,
        }
    }
}

struct Msg {
    from: usize,
    tag: u64,
    payload: Payload,
}

// Collective ops and point-to-point ops use disjoint tag spaces.
const COLLECTIVE_BIT: u64 = 1 << 63;

/// How long a blocked receive waits before re-checking the poison flag.
/// Purely a failure-detection latency: on the happy path a pending
/// message returns immediately.
const ABORT_POLL: Duration = Duration::from_millis(2);

/// A mark taken by [`Comm::mark`]; scopes byte-volume and collective
/// busy/wait-time accounting to the layout/epoch that holds it.
#[derive(Clone, Copy, Debug)]
pub struct CommMark {
    bytes: u64,
    busy_ns: u64,
    wait_ns: u64,
}

/// One rank's endpoint of the communicator: point-to-point sends plus the
/// SPMD collectives the distributed trainers are written against, over a
/// dedicated lane per ordered rank pair.
pub struct Comm {
    rank: usize,
    world: usize,
    /// 0 while all ranks are healthy; `r + 1` once rank `r` has panicked.
    poison: Arc<AtomicUsize>,
    next_collective: u64,
    bytes_sent: u64,
    busy_ns: u64,
    wait_ns: u64,
    /// `txs[to]`: this rank's outbound lane to rank `to`.
    txs: Vec<Sender<Msg>>,
    /// `rxs[from]`: the inbound lane from rank `from`.
    rxs: Vec<Receiver<Msg>>,
    /// Out-of-order buffer, indexed by source rank.
    pending: Vec<VecDeque<Msg>>,
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Total payload bytes sent by this rank so far (volume accounting).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Nanoseconds spent inside collectives (whole calls, including the
    /// local reduction arithmetic). Advances only while `DGNN_TRACE` is
    /// on — 0 otherwise, so untraced runs pay nothing.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Nanoseconds spent *blocked on peer data* inside receives — the
    /// wait share of [`Comm::busy_ns`]. Advances only while tracing is on.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns
    }

    /// Point-to-point send with a user tag (unique per sender until
    /// consumed).
    pub fn send_tagged(&mut self, to: usize, tag: u64, payload: Payload) {
        assert!(tag & COLLECTIVE_BIT == 0, "high bit is reserved");
        self.send(to, tag, payload);
    }

    /// Point-to-point receive matching [`Comm::send_tagged`].
    pub fn recv_tagged(&mut self, from: usize, tag: u64) -> Payload {
        assert!(tag & COLLECTIVE_BIT == 0, "high bit is reserved");
        self.recv(from, tag)
    }

    /// All-to-all: `parts[q]` goes to rank `q`; returns the chunks
    /// received, indexed by source rank (the self slot passes through
    /// untouched).
    pub fn all_to_all(&mut self, mut parts: Vec<Payload>) -> Vec<Payload> {
        let (rank, world) = (self.rank, self.world);
        assert_eq!(parts.len(), world, "one part per rank required");
        let timer = trace::Timer::start();
        let tag = self.next_tag();
        let own = std::mem::replace(&mut parts[rank], Payload::Empty);
        for (q, part) in parts.into_iter().enumerate() {
            if q != rank {
                self.send(q, tag, part);
            }
        }
        let mut out: Vec<Payload> = Vec::with_capacity(world);
        for q in 0..world {
            if q == rank {
                out.push(Payload::Empty);
            } else {
                let received = self.recv(q, tag);
                out.push(received);
            }
        }
        out[rank] = own;
        self.busy_ns += timer.stop_ns("comm", "collective");
        out
    }

    /// Sum all-reduce over a float vector. The reduction order is fixed
    /// (rank 0, 1, …, P−1) on every rank, so all replicas see
    /// bit-identical results regardless of message arrival order.
    pub fn all_reduce_sum(&mut self, data: &mut [f32]) {
        let (rank, world) = (self.rank, self.world);
        let timer = trace::Timer::start();
        let tag = self.next_tag();
        for q in 0..world {
            if q != rank {
                self.send(q, tag, Payload::Floats(data.to_vec()));
            }
        }
        let mut contributions: Vec<Option<Vec<f32>>> = vec![None; world];
        contributions[rank] = Some(data.to_vec());
        for q in 0..world {
            if q != rank {
                match self.recv(q, tag) {
                    Payload::Floats(f) => contributions[q] = Some(f),
                    other => panic!("expected floats, got {other:?}"),
                }
            }
        }
        for v in data.iter_mut() {
            *v = 0.0;
        }
        for c in contributions.into_iter().flatten() {
            assert_eq!(c.len(), data.len(), "all_reduce length mismatch");
            for (d, x) in data.iter_mut().zip(c) {
                *d += x;
            }
        }
        self.busy_ns += timer.stop_ns("comm", "collective");
    }

    /// Gathers one payload from every rank onto all ranks (all-gather).
    pub fn all_gather(&mut self, payload: Payload) -> Vec<Payload> {
        let (rank, world) = (self.rank, self.world);
        let timer = trace::Timer::start();
        let tag = self.next_tag();
        for q in 0..world {
            if q != rank {
                self.send(q, tag, payload.clone());
            }
        }
        let out = (0..world)
            .map(|q| {
                if q == rank {
                    payload.clone()
                } else {
                    self.recv(q, tag)
                }
            })
            .collect();
        self.busy_ns += timer.stop_ns("comm", "collective");
        out
    }

    /// Opens an accounting scope: a mark whose `*_since` counterparts
    /// report bytes/busy/wait accumulated after the mark. The engine
    /// takes a mark at the top of every epoch so communication is
    /// attributed to the rank's layout (and epoch) that produced it.
    pub fn mark(&self) -> CommMark {
        CommMark {
            bytes: self.bytes_sent,
            busy_ns: self.busy_ns,
            wait_ns: self.wait_ns,
        }
    }

    /// Bytes sent since `mark` was taken on this communicator.
    pub fn bytes_since(&self, mark: CommMark) -> u64 {
        self.bytes_sent - mark.bytes
    }

    /// Microseconds this rank spent inside collectives since `mark`.
    /// Only advances while tracing is on; reports 0 otherwise.
    pub fn busy_us_since(&self, mark: CommMark) -> u64 {
        (self.busy_ns - mark.busy_ns) / 1_000
    }

    /// Microseconds this rank spent blocked on peer data since `mark`.
    /// Only advances while tracing is on; reports 0 otherwise.
    pub fn wait_us_since(&self, mark: CommMark) -> u64 {
        (self.wait_ns - mark.wait_ns) / 1_000
    }

    /// All-to-all specialised to dense chunks.
    pub fn all_to_all_dense(&mut self, parts: Vec<Dense>) -> Vec<Dense> {
        self.all_to_all(parts.into_iter().map(Payload::Dense).collect())
            .into_iter()
            .map(|p| match p {
                Payload::Dense(d) => d,
                other => panic!("expected dense payload, got {other:?}"),
            })
            .collect()
    }

    /// Barrier: completes only when every rank arrives.
    pub fn barrier(&mut self) {
        let _ = self.all_gather(Payload::Empty);
    }

    /// The tag of the next collective: every rank issues collectives in
    /// the same order, so the counter matches them up across ranks.
    fn next_tag(&mut self) -> u64 {
        let tag = COLLECTIVE_BIT | self.next_collective;
        self.next_collective += 1;
        tag
    }

    /// Counted enqueue of `(tag, payload)` on the lane to rank `to`.
    fn send(&mut self, to: usize, tag: u64, payload: Payload) {
        self.bytes_sent += payload.bytes();
        self.txs[to]
            .send(Msg {
                from: self.rank,
                tag,
                payload,
            })
            .expect("peer rank hung up");
    }

    /// Blocking dequeue of the message from `from` carrying `tag`; the
    /// time blocked counts towards [`Comm::wait_ns`] while tracing is on.
    fn recv(&mut self, from: usize, tag: u64) -> Payload {
        if !trace::enabled() {
            return self.pull(from, tag);
        }
        let t0 = trace::now_ns();
        let payload = self.pull(from, tag);
        self.wait_ns += trace::now_ns().saturating_sub(t0);
        payload
    }

    /// Takes the `tag` message off the lane from `from`, buffering
    /// out-of-order arrivals and aborting if a peer panicked.
    fn pull(&mut self, from: usize, tag: u64) -> Payload {
        if let Some(pos) = self.pending[from].iter().position(|m| m.tag == tag) {
            return self.pending[from]
                .remove(pos)
                .expect("position in range")
                .payload;
        }
        loop {
            match self.rxs[from].recv_timeout(ABORT_POLL) {
                Ok(msg) => {
                    debug_assert_eq!(msg.from, from, "lane crossed between ranks");
                    if msg.tag == tag {
                        return msg.payload;
                    }
                    self.pending[from].push_back(msg);
                }
                Err(RecvTimeoutError::Timeout) => self.check_abort(),
                Err(RecvTimeoutError::Disconnected) => panic!("peer rank hung up"),
            }
        }
    }

    /// Panics with a [`RankAbort`] if a peer rank has already panicked —
    /// called from receive loops so no rank blocks on a dead peer.
    fn check_abort(&self) {
        let flag = self.poison.load(Ordering::SeqCst);
        if flag != 0 && flag != self.rank + 1 {
            std::panic::panic_any(RankAbort { origin: flag - 1 });
        }
    }
}

/// The tape's collective ops ([`dgnn_autograd::tape::collective`]) run on
/// the same collectives, tags and byte accounting as direct calls.
impl Communicator for Comm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn all_to_all_dense(&mut self, parts: Vec<Dense>) -> Vec<Dense> {
        Comm::all_to_all_dense(self, parts)
    }

    fn all_reduce_sum(&mut self, data: &mut [f32]) {
        Comm::all_reduce_sum(self, data);
    }
}

/// One endpoint per rank over a `p × p` grid of lanes.
fn build(p: usize, poison: &Arc<AtomicUsize>) -> Vec<Comm> {
    // Lane (from, to) is created in `from`-major order, so `rx_grid[to]`
    // accumulates receivers indexed by source rank.
    let mut tx_rows: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(p);
    let mut rx_grid: Vec<Vec<Receiver<Msg>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for _from in 0..p {
        let mut row = Vec::with_capacity(p);
        for to_grid in rx_grid.iter_mut() {
            let (tx, rx) = channel();
            row.push(tx);
            to_grid.push(rx);
        }
        tx_rows.push(row);
    }
    tx_rows
        .into_iter()
        .zip(rx_grid)
        .enumerate()
        .map(|(rank, (txs, rxs))| Comm {
            rank,
            world: p,
            poison: Arc::clone(poison),
            next_collective: 0,
            bytes_sent: 0,
            busy_ns: 0,
            wait_ns: 0,
            txs,
            rxs,
            pending: (0..p).map(|_| VecDeque::new()).collect(),
        })
        .collect()
}

/// A typed panic payload injected into ranks that must abandon a blocked
/// receive because peer rank `origin` panicked first. Only the origin's
/// own payload escapes `try_run_ranks`; aborts are collateral.
#[derive(Clone, Copy, Debug)]
pub struct RankAbort {
    /// The rank whose panic triggered the teardown.
    pub origin: usize,
}

/// The typed error [`try_run_ranks`] returns when a rank panics: which
/// rank failed first, carrying its original panic payload.
pub struct RankPanic {
    rank: usize,
    payload: Box<dyn Any + Send>,
}

impl RankPanic {
    /// The rank that panicked first.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Best-effort text of the panic payload (`&str`/`String` payloads;
    /// a placeholder otherwise).
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(a) = self.payload.downcast_ref::<RankAbort>() {
            format!("aborted: rank {} panicked first", a.origin)
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// The original panic payload, for `resume_unwind` or downcasting.
    pub fn into_payload(self) -> Box<dyn Any + Send> {
        self.payload
    }
}

impl std::fmt::Debug for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RankPanic {{ rank: {}, message: {:?} }}",
            self.rank,
            self.message()
        )
    }
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message())
    }
}

impl std::error::Error for RankPanic {}

/// Runs `f` on `p` rank threads and returns their results in rank order.
///
/// This stands in for the MPI/NCCL process group of the original system.
/// Payload moves through channels by value, exactly like wire transfers.
///
/// While the ranks run they are registered with the intra-rank thread
/// pool ([`dgnn_tensor::pool::RankScope`]), so the default kernel thread
/// count becomes `available_parallelism / p` — rank-level and intra-rank
/// parallelism compose instead of oversubscribing the host. The calling
/// thread's explicit thread override (if any) is propagated into every
/// rank thread.
///
/// # Panics
/// If any rank panics, re-raises the first panicking rank's original
/// payload on the caller (the other ranks are unblocked and torn down
/// first; see [`try_run_ranks`]).
pub fn run_ranks<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    match try_run_ranks(p, f) {
        Ok(results) => results,
        Err(e) => resume_unwind(e.into_payload()),
    }
}

/// Fallible [`run_ranks`]: a rank panic tears the group down (no
/// deadlock — blocked peers abort via the poison flag) and is returned as
/// a typed [`RankPanic`] identifying the first failing rank.
pub fn try_run_ranks<R, F>(p: usize, f: F) -> Result<Vec<R>, RankPanic>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    assert!(p >= 1);
    let poison = Arc::new(AtomicUsize::new(0));
    let mut comms = build(p, &poison);
    let f = &f;
    let ambient_threads = dgnn_tensor::pool::thread_override();
    let _ranks = dgnn_tensor::pool::RankScope::enter(p);
    // `comms` outlives the scope, so every channel endpoint stays alive
    // until all rank threads have exited: sends cannot fail mid-teardown.
    let outcomes: Vec<Result<R, Box<dyn Any + Send>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter_mut()
            .enumerate()
            .map(|(rank, comm)| {
                let poison = Arc::clone(&poison);
                scope.spawn(move || {
                    let _threads = dgnn_tensor::pool::scoped_threads(ambient_threads);
                    // Tag the thread so spans export under this rank's pid
                    // lane; the tag dies with the scoped thread.
                    trace::set_rank(rank as u32);
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(comm)));
                    if outcome.is_err() {
                        // First panicking rank wins the flag; peers blocked
                        // in receives see it and abort instead of hanging.
                        let _ = poison.compare_exchange(
                            0,
                            rank + 1,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread died outside catch_unwind"))
            .collect()
    });

    if outcomes.iter().all(Result::is_ok) {
        return Ok(outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|_| unreachable!()))
            .collect());
    }
    let origin = poison.load(Ordering::SeqCst).saturating_sub(1);
    let mut fallback = None;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        if let Err(payload) = outcome {
            if rank == origin {
                return Err(RankPanic { rank, payload });
            }
            fallback.get_or_insert(RankPanic { rank, payload });
        }
    }
    Err(fallback.expect("at least one rank failed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_routes_chunks() {
        let results = run_ranks(3, |comm| {
            let parts: Vec<Dense> = (0..3)
                .map(|q| Dense::full(1, 1, (comm.rank() * 10 + q) as f32))
                .collect();
            let got = comm.all_to_all_dense(parts);
            got.iter().map(|d| d.get(0, 0)).collect::<Vec<f32>>()
        });
        // Rank r receives from rank q the value q*10 + r.
        for (r, row) in results.iter().enumerate() {
            for (q, &v) in row.iter().enumerate() {
                assert_eq!(v, (q * 10 + r) as f32);
            }
        }
    }

    #[test]
    fn all_reduce_sums_identically() {
        let results = run_ranks(4, |comm| {
            let mut data = vec![comm.rank() as f32 + 1.0, 1.0];
            comm.all_reduce_sum(&mut data);
            data
        });
        for row in &results {
            assert_eq!(row, &vec![10.0, 4.0]);
        }
    }

    #[test]
    fn tagged_p2p_delivery() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send_tagged(1, 5, Payload::Floats(vec![3.0]));
                comm.send_tagged(1, 6, Payload::Floats(vec![4.0]));
                vec![0.0]
            } else {
                // Receive in reverse send order to exercise the buffer.
                let b = match comm.recv_tagged(0, 6) {
                    Payload::Floats(f) => f[0],
                    _ => panic!(),
                };
                let a = match comm.recv_tagged(0, 5) {
                    Payload::Floats(f) => f[0],
                    _ => panic!(),
                };
                vec![a, b]
            }
        });
        assert_eq!(results[1], vec![3.0, 4.0]);
    }

    #[test]
    fn volume_accounting_counts_bytes() {
        let results = run_ranks(2, |comm| {
            let parts = vec![Dense::zeros(4, 4), Dense::zeros(4, 4)];
            let _ = comm.all_to_all_dense(parts);
            comm.bytes_sent()
        });
        // Each rank sends one 4x4 f32 matrix to the other: 64 bytes.
        assert_eq!(results, vec![64, 64]);
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let results = run_ranks(2, |comm| {
            let mut out = Vec::new();
            for round in 0..5 {
                let parts = vec![
                    Dense::full(1, 1, round as f32),
                    Dense::full(1, 1, round as f32 + 100.0),
                ];
                let got = comm.all_to_all_dense(parts);
                out.push(got[1 - comm.rank()].get(0, 0));
            }
            out
        });
        // Rank 0 receives rank 1's parts[0] (= round); rank 1 receives rank
        // 0's parts[1] (= round + 100).
        assert_eq!(results[0], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(results[1], vec![100.0, 101.0, 102.0, 103.0, 104.0]);
    }

    #[test]
    fn self_send_delivers_on_both_transports() {
        // A rank's lane to itself is an ordinary lane.
        let results = run_ranks(2, |comm| {
            let me = comm.rank();
            comm.send_tagged(me, 9, Payload::Floats(vec![me as f32]));
            match comm.recv_tagged(me, 9) {
                Payload::Floats(f) => f[0],
                _ => panic!(),
            }
        });
        assert_eq!(results, vec![0.0, 1.0]);
    }

    #[test]
    fn world_of_one_runs_collectives() {
        let results = run_ranks(1, |comm| {
            let mut data = vec![2.5f32];
            comm.all_reduce_sum(&mut data);
            let gathered = comm.all_gather(Payload::Floats(vec![1.0]));
            comm.barrier();
            (data[0], gathered.len(), comm.bytes_sent())
        });
        assert_eq!(results, vec![(2.5, 1, 0)]);
    }
}
