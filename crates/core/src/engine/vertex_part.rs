//! The row split's data (paper §4.1, §6.4, §6.5).
//!
//! Each rank holds a contiguous row block of every snapshot's Laplacian
//! and feature matrix. The temporal component is communication-free (each
//! rank holds its vertices' full timeline); the SpMM requires the
//! irregular neighbor exchange: per timestep, each rank sends exactly the
//! feature rows other ranks' boundary columns reference, using index lists
//! pre-computed at setup (paper §6.4: "the indices are pre-computed").
//!
//! Two trainers bind it (`crate::vertex_dist`): the vertex-partitioning
//! baseline (§4.1) over a hypergraph partition renamed to contiguous
//! parts, and the hybrid's one-group row split (§6.5) over balanced
//! ranges of the original ids.
//!
//! Both sum exactly as the single-rank trainer does. A rank's local
//! columns are numbered by global id, and `Tape::exchange_rows` stacks the
//! exchanged rows in that same order, so every SpMM row sums in global
//! column order. Its backward, the reverse exchange, adds each own row's
//! gradient contributions in rank order, as `Comm::all_reduce_sum` does.
//! Losses are computed from embeddings gathered by `Tape::all_gather`,
//! each rank owning a slice of the sample set (`Layout::row_split`), so
//! the scheme faithfully simulates the sequential algorithm and its
//! convergence matches snapshot partitioning (paper Fig. 6).

use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use dgnn_tensor::{Csr, Dense};

use crate::engine::source::SnapshotSource;
use crate::task::Task;

/// Pre-computed exchange plan for one rank: who needs which of my rows,
/// and which remote rows I need, per timestep.
pub(crate) struct ExchangePlan {
    /// `needed_out[t][q]` = local row indices (within my range) that rank
    /// `q` needs at timestep `t`.
    pub needed_out: Vec<Rc<Vec<Vec<u32>>>>,
    /// Local sparse matrices: my Laplacian rows with columns numbered by
    /// global id over my rows and the remote rows they reference — the
    /// row order of `Tape::exchange_rows`.
    a_loc: Vec<Rc<Csr>>,
}

/// Builds per-rank ranges from a partition (contiguous after renaming).
pub(crate) fn part_ranges(partition: &[usize], p: usize) -> Vec<Range<usize>> {
    let mut sizes = vec![0usize; p];
    for &q in partition {
        sizes[q] += 1;
    }
    let mut ranges = Vec::with_capacity(p);
    let mut start = 0;
    for q in 0..p {
        ranges.push(start..start + sizes[q]);
        start += sizes[q];
    }
    ranges
}

/// Builds the exchange plan of `rank` from the Laplacians, whose rows
/// `ranges` split into ascending contiguous blocks.
pub(crate) fn build_plan(laps: &[Csr], ranges: &[Range<usize>], rank: usize) -> ExchangePlan {
    let p = ranges.len();
    let my = ranges[rank].clone();
    let owner_of = |v: usize| ranges.iter().position(|r| r.contains(&v)).unwrap();
    let mut needed_out = Vec::with_capacity(laps.len());
    let mut a_loc = Vec::with_capacity(laps.len());
    for lap in laps {
        // Remote columns my rows reference, grouped by owner.
        let mut remote: Vec<Vec<u32>> = vec![Vec::new(); p];
        for r in my.clone() {
            for (c, _) in lap.row_iter(r) {
                let cu = c as usize;
                if !my.contains(&cu) {
                    remote[owner_of(cu)].push(c);
                }
            }
        }
        for q in 0..p {
            remote[q].sort_unstable();
            remote[q].dedup();
        }
        // Column remap in global-id order: lower ranks' remote rows, my
        // rows, then higher ranks' remote rows.
        let mut local: Vec<u32> = Vec::new();
        for q in 0..p {
            if q == rank {
                local.extend(my.clone().map(|v| v as u32));
            } else {
                local.extend(&remote[q]);
            }
        }
        debug_assert!(local.windows(2).all(|w| w[0] < w[1]), "ranges ascend");
        let col_map: HashMap<u32, u32> = local
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let triplets: Vec<(u32, u32, f32)> = my
            .clone()
            .flat_map(|r| {
                lap.row_iter(r)
                    .map(|(c, v)| ((r - my.start) as u32, col_map[&c], v))
                    .collect::<Vec<_>>()
            })
            .collect();
        a_loc.push(Rc::new(Csr::from_coo(my.len(), local.len(), &triplets)));

        // What each peer needs *from me* mirrors what I need from them:
        // computed symmetrically from the full Laplacian.
        let mut out_per_q: Vec<Vec<u32>> = vec![Vec::new(); p];
        for q in 0..p {
            if q == rank {
                continue;
            }
            let qr = ranges[q].clone();
            let mut needed: Vec<u32> = Vec::new();
            for r in qr {
                for (c, _) in lap.row_iter(r) {
                    let cu = c as usize;
                    if my.contains(&cu) {
                        needed.push(c - my.start as u32);
                    }
                }
            }
            needed.sort_unstable();
            needed.dedup();
            out_per_q[q] = needed;
        }
        needed_out.push(Rc::new(out_per_q));
    }
    ExchangePlan { needed_out, a_loc }
}

/// One rank's row block of a task: the row split's [`SnapshotSource`],
/// whose inputs are this rank's feature rows and whose operators are its
/// rows of each `Ã_t` over the stacked exchanged rows.
pub(crate) struct RowSplit<'a> {
    task: &'a Task,
    pub rows: Range<usize>,
    pub plan: ExchangePlan,
}

impl<'a> RowSplit<'a> {
    /// Rank `rank`'s block of `task`, whose rows `ranges` split into
    /// ascending contiguous blocks.
    pub fn new(task: &'a Task, ranges: &[Range<usize>], rank: usize) -> Self {
        Self {
            task,
            rows: ranges[rank].clone(),
            plan: build_plan(&task.laps, ranges, rank),
        }
    }
}

impl SnapshotSource for RowSplit<'_> {
    fn lap(&self, t: usize) -> Rc<Csr> {
        Rc::clone(&self.plan.a_loc[t])
    }

    fn input(&self, t: usize) -> Dense {
        let rows = &self.rows;
        self.task.features[t].row_block(rows.start, rows.len())
    }

    fn preagg(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::time_part::tests::{bits, values};
    use crate::task::{prepare_task, TaskOptions};
    use dgnn_autograd::Tape;
    use dgnn_graph::gen::churn;
    use dgnn_models::{ModelConfig, ModelKind};
    use dgnn_partition::balanced_ranges;
    use dgnn_partition::{contiguous_renaming, partition, Hypergraph, PartitionerConfig};

    /// Each rank's SpMM over its stacked rows bit-equals its rows of the
    /// single-rank SpMM on the same graph.
    fn assert_rank_spmm_is_single_rank(laps: &[Csr], ranges: &[Range<usize>], what: &str) {
        let p = ranges.len();
        let n = laps[0].rows();
        let plans: Vec<ExchangePlan> = (0..p).map(|r| build_plan(laps, ranges, r)).collect();
        let x_full = Dense::from_fn(n, 3, |r, c| ((r * 7 + c * 5) % 11) as f32 * 0.37 - 1.3);
        let blocks: Vec<Dense> = ranges
            .iter()
            .map(|r| x_full.row_block(r.start, r.len()))
            .collect();
        for (t, lap) in laps.iter().enumerate() {
            for (rank, my) in ranges.iter().enumerate() {
                // What every peer sends this rank.
                let parts: Vec<Dense> = (0..p)
                    .map(|q| blocks[q].gather_rows(&plans[q].needed_out[t][rank]))
                    .collect();
                let sections: Vec<&Dense> = (0..p)
                    .map(|q| if q == rank { &blocks[rank] } else { &parts[q] })
                    .collect();
                let stacked = Dense::vstack(&sections);
                let got = plans[rank].a_loc[t].spmm(&stacked);
                let want = lap.row_block(my.start, my.len()).spmm(&x_full);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{what}: p = {p}, rank {rank}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn rank_spmm_bit_equals_single_rank_spmm() {
        let g = churn(24, 6, 100, 0.3, 5);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let cfg = ModelConfig {
            kind: ModelKind::TmGcn,
            input_f: 2,
            hidden: 4,
            mprod_window: 3,
            smoothing_window: 3,
        };
        let opts = TaskOptions {
            precompute_first_layer: false,
            ..Default::default()
        };
        let task = prepare_task(&raw, &next, &cfg, &opts);
        for p in [2, 3] {
            assert_rank_spmm_is_single_rank(&task.laps, &balanced_ranges(task.n, p), "balanced");

            let part = partition(
                &Hypergraph::column_net_model(&task.graph),
                &PartitionerConfig::new(p),
            );
            let (perm, _) = contiguous_renaming(&part, p);
            let renamed = prepare_task(&raw.relabel(&perm), &next.relabel(&perm), &cfg, &opts);
            assert_rank_spmm_is_single_rank(&renamed.laps, &part_ranges(&part, p), "hypergraph");
        }
    }

    #[test]
    fn exchange_and_gather_are_bitwise_the_hand_staged_backward() {
        use dgnn_sim::run_ranks;
        // Seven vertices, and three on four ranks, which leaves one rank
        // without rows.
        for p in [2usize, 3, 4] {
            for n in [7usize, 3] {
                let edges: Vec<(u32, u32)> = (0..n as u32)
                    .flat_map(|v| [(v, (v + 1) % n as u32), (v, (v * 3 + 2) % n as u32)])
                    .collect();
                let laps = vec![Csr::from_edges(n, &edges)];
                let ranges = balanced_ranges(n, p);
                run_ranks(p, |comm| {
                    let (rank, w) = (comm.rank(), 3);
                    let plan = build_plan(&laps, &ranges, rank);
                    let send_rows = Rc::clone(&plan.needed_out[0]);
                    let rows = ranges[rank].len();
                    let x_val = values(rows, w, rank);
                    let mut tape = Tape::new();
                    let (x, x2) = (tape.input(x_val.clone()), tape.input(x_val.clone()));
                    let stacked = tape.exchange_rows(comm, x, Rc::clone(&send_rows));
                    let full = tape.all_gather(comm, x2);

                    // The forward exchange and gather, by hand.
                    let sends = send_rows.iter().map(|r| x_val.gather_rows(r)).collect();
                    let parts = comm.all_to_all_dense(sends);
                    let sections: Vec<&Dense> = (0..p)
                        .map(|q| if q == rank { &x_val } else { &parts[q] })
                        .collect();
                    assert_eq!(bits(tape.value(stacked)), bits(&Dense::vstack(&sections)));
                    let gathered = comm.all_gather(dgnn_sim::Payload::Dense(x_val.clone()));
                    let gathered: Vec<Dense> = gathered
                        .into_iter()
                        .map(|pl| match pl {
                            dgnn_sim::Payload::Dense(d) => d,
                            other => panic!("expected dense, got {other:?}"),
                        })
                        .collect();
                    let want = Dense::vstack(&gathered.iter().collect::<Vec<_>>());
                    assert_eq!(bits(tape.value(full)), bits(&want), "gathered");

                    // One backward, then the hand-staged reverse collectives
                    // in the same order: the all-reduce, then the exchange.
                    let (sr, fr) = (tape.value(stacked).rows(), tape.value(full).rows());
                    let (g, gf) = (values(sr, w, 20 + rank), values(fr, w, 30 + rank));
                    tape.backward(vec![(stacked, g.clone()), (full, gf.clone())], Some(comm));
                    let mut flat = gf.data().to_vec();
                    comm.all_reduce_sum(&mut flat);
                    let dz = Dense::from_vec(fr, w, flat);
                    let want = dz.row_block(ranges[rank].start, rows);
                    assert_eq!(bits(tape.grad(x2).unwrap()), bits(&want), "d gather");
                    let mut offset = 0;
                    let mut sections: Vec<Dense> = (0..p)
                        .map(|q| {
                            let len = if q == rank { rows } else { parts[q].rows() };
                            offset += len;
                            g.row_block(offset - len, len)
                        })
                        .collect();
                    let own = std::mem::replace(&mut sections[rank], Dense::zeros(0, w));
                    let recv = comm.all_to_all_dense(sections);
                    let mut dx = Dense::zeros(rows, w);
                    for (q, d) in recv.iter().enumerate() {
                        if q == rank {
                            dx.add_assign(&own);
                        } else {
                            dx.scatter_add_rows(&send_rows[q], d);
                        }
                    }
                    assert_eq!(bits(tape.grad(x).unwrap()), bits(&dx), "d exchange");

                    // A first layer's exchange of constant features is a
                    // constant: the backward sends nothing for it.
                    let mut tape = Tape::new();
                    let x0 = tape.constant(x_val.clone());
                    let stacked = tape.exchange_rows(comm, x0, send_rows);
                    let wv = tape.input(Dense::ones(w, 2));
                    let y = tape.matmul(stacked, wv);
                    let mark = comm.mark();
                    let gy = Dense::ones(tape.value(y).rows(), 2);
                    tape.backward(vec![(y, gy)], Some(comm));
                    assert_eq!(comm.bytes_since(mark), 0, "reverse traffic of a constant");
                    assert!(tape.grad(wv).is_some());
                });
            }
        }
    }
}
