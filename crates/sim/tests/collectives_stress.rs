//! Stress tests of the rank-thread collectives while intra-rank thread
//! pools are live: every rank runs pool-parallel kernels between (and
//! interleaved with) collective calls, with randomized payload sizes
//! including zero-row payloads. This pins the invariant the distributed
//! trainers rely on — the communicator's per-rank operation-counter
//! matching is oblivious to what the rank's worker threads are doing.

use dgnn_sim::{run_ranks, Payload};
use dgnn_tensor::{pool, Csr, Dense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Encodes (sender, round, destination) so routing errors are detectable
/// in any received cell.
fn stamp(rank: usize, round: usize, dest: usize) -> f32 {
    (rank * 10_000 + round * 100 + dest) as f32
}

/// One round's all-to-all shape: `rows[src][dst]` and a shared column
/// count, ~1 in 3 payloads empty. Every rank draws the same table from the
/// same seeded stream, so receivers know what to expect without extra
/// coordination.
fn shape_table(rng: &mut StdRng, p: usize) -> (Vec<Vec<usize>>, usize) {
    let rows = (0..p)
        .map(|_| {
            (0..p)
                .map(|_| {
                    if rng.gen_bool(0.33) {
                        0
                    } else {
                        rng.gen_range(1..7)
                    }
                })
                .collect()
        })
        .collect();
    (rows, rng.gen_range(1..5usize))
}

#[test]
fn all_to_all_randomized_payloads_with_zero_rows() {
    const P: usize = 4;
    const ROUNDS: usize = 25;
    const SEED: u64 = 4242;
    let volumes = run_ranks(P, |comm| {
        let _threads = pool::scoped_threads(Some(2));
        let mut shape_rng = StdRng::seed_from_u64(SEED);
        for round in 0..ROUNDS {
            let (rows, cols) = shape_table(&mut shape_rng, P);
            let me = comm.rank();
            let parts: Vec<Dense> = (0..P)
                .map(|dst| Dense::full(rows[me][dst], cols, stamp(me, round, dst)))
                .collect();
            let got = comm.all_to_all_dense(parts);
            for (src, d) in got.iter().enumerate() {
                assert_eq!(
                    d.shape(),
                    (rows[src][me], cols),
                    "round {round}: bad shape from rank {src}"
                );
                assert!(
                    d.data().iter().all(|&v| v == stamp(src, round, me)),
                    "round {round}: bad payload from rank {src}"
                );
            }
        }
        comm.bytes_sent()
    });
    // Byte accounting: every f32 a rank sends to a peer, and nothing for
    // the self slot, which never leaves the rank.
    let mut expected = [0u64; P];
    let mut shape_rng = StdRng::seed_from_u64(SEED);
    for _ in 0..ROUNDS {
        let (rows, cols) = shape_table(&mut shape_rng, P);
        for (me, sent) in expected.iter_mut().enumerate() {
            for dst in (0..P).filter(|&dst| dst != me) {
                *sent += 4 * (rows[me][dst] * cols) as u64;
            }
        }
    }
    assert_eq!(volumes, expected, "volume accounting disagrees with shapes");
}

#[test]
fn collectives_interleave_with_pool_parallel_kernels() {
    const P: usize = 3;
    const ROUNDS: usize = 8;
    let results = run_ranks(P, |comm| {
        // 3 pool threads per rank on top of 3 rank threads: deliberately
        // oversubscribed so pool workers and rank threads contend.
        let _threads = pool::scoped_threads(Some(3));
        let me = comm.rank();
        let mut rng = StdRng::seed_from_u64(1000 + me as u64);
        let mut digests: Vec<f32> = Vec::new();
        for round in 0..ROUNDS {
            // Pool-parallel work between collectives: an SpMM + GEMM big
            // enough to engage the pool, seeded identically on all ranks.
            let n = 300;
            let edges: Vec<(u32, u32)> = {
                let mut g = StdRng::seed_from_u64(round as u64);
                (0..1500)
                    .map(|_| (g.gen_range(0..n as u32), g.gen_range(0..n as u32)))
                    .collect()
            };
            let a = Csr::from_edges(n, &edges);
            let x = Dense::from_fn(n, 24, |r, c| ((r * 31 + c * 7 + round) % 13) as f32 - 6.0);
            let agg = a.spmm(&x);
            let w = Dense::from_fn(24, 24, |r, c| if r == c { 1.5 } else { -0.01 });
            let z = agg.matmul(&w);
            // All ranks computed the same product from the same inputs:
            // the all-reduce of its digest must equal P times one digest.
            let digest = z.sum();
            let mut buf = vec![digest];
            comm.all_reduce_sum(&mut buf);
            assert_eq!(
                buf[0].to_bits(),
                (digest * P as f32).to_bits(),
                "round {round}: ranks computed different kernel results"
            );
            digests.push(buf[0]);

            // Randomized-size all-gather (zero-row payloads included).
            let rows = rng.gen_range(0..5usize);
            let gathered = comm.all_gather(Payload::Dense(Dense::full(rows, 2, me as f32)));
            for (src, p) in gathered.iter().enumerate() {
                match p {
                    Payload::Dense(d) => {
                        assert_eq!(d.cols(), 2);
                        assert!(d.data().iter().all(|&v| v == src as f32));
                    }
                    other => panic!("expected dense, got {other:?}"),
                }
            }
            comm.barrier();
        }
        digests
    });
    // Every rank saw the identical all-reduced digest stream.
    for r in 1..P {
        assert_eq!(results[0], results[r], "digest streams diverge on rank {r}");
    }
}

#[test]
fn rank_pools_do_not_leak_thread_overrides() {
    // The override installed inside run_ranks' rank threads must not
    // survive into the caller, and the caller's override must propagate in.
    let _outer = pool::scoped_threads(Some(5));
    let seen = run_ranks(2, |_comm| pool::effective_threads());
    assert_eq!(
        seen,
        vec![5, 5],
        "caller override should reach rank threads"
    );
    assert_eq!(pool::effective_threads(), 5);
}
