//! The time split's data (paper §4.2, Fig. 3).
//!
//! Timesteps are split contiguously among ranks within every checkpoint
//! block. The spatial phase is communication-free; the temporal phase runs
//! on contiguous vertex chunks after an all-to-all redistribution, and a
//! second all-to-all restores snapshot ownership for the next layer. This
//! module builds who owns which timesteps and the row routes of the two
//! redistributions; `Layout::time_split` binds them to the engine, whose
//! one backward call runs them reversed.

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::RowRoute;
use dgnn_partition::{balanced_ranges, VertexChunks};

/// The timesteps of `block` owned by each rank (contiguous split).
pub(crate) fn owned_per_rank(block: &Range<usize>, p: usize) -> Vec<Vec<usize>> {
    balanced_ranges(block.len(), p)
        .into_iter()
        .map(|r| r.map(|i| block.start + i).collect())
        .collect()
}

/// The row routes of the two redistributions of `block` on `rank`, whose
/// timesteps `owned_all` splits among the ranks: GCN outputs of the owned
/// timesteps to vertex chunks of every block timestep, and temporal
/// outputs (block order) back to the snapshot owners.
pub(crate) fn redistribution_routes(
    chunks: &VertexChunks,
    owned_all: &[Vec<usize>],
    rank: usize,
    block: &Range<usize>,
) -> [Rc<RowRoute>; 2] {
    let chunks: Vec<Range<usize>> = (0..owned_all.len()).map(|q| chunks.range(q)).collect();
    let (owned, my) = (owned_all[rank].len(), chunks[rank].len());
    let to_chunks = RowRoute {
        send: chunks
            .iter()
            .map(|c| (0..owned).map(|i| (i, c.clone())).collect())
            .collect(),
        gather: owned_all
            .iter()
            .enumerate()
            .flat_map(|(q, ts)| (0..ts.len()).map(move |i| vec![(q, i * my..(i + 1) * my)]))
            .collect(),
    };
    let to_owners = RowRoute {
        send: owned_all
            .iter()
            .map(|ts| ts.iter().map(|&t| (t - block.start, 0..my)).collect())
            .collect(),
        gather: (0..owned)
            .map(|i| {
                let blocks = chunks.iter().enumerate();
                blocks
                    .map(|(q, c)| (q, i * c.len()..(i + 1) * c.len()))
                    .collect()
            })
            .collect(),
    };
    [Rc::new(to_chunks), Rc::new(to_owners)]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dgnn_autograd::{Tape, Var};
    use dgnn_sim::{run_ranks, Comm};
    use dgnn_tensor::Dense;

    pub(crate) fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `rows × cols` values unique to `salt`, with a `-0.0` first.
    pub(crate) fn values(rows: usize, cols: usize, salt: usize) -> Dense {
        Dense::from_fn(rows, cols, |r, c| match r * cols + c {
            0 => -0.0,
            k => (k * 7 + salt * 13) as f32 * 0.125 - 3.0,
        })
    }

    fn vstack(mats: &[Dense], width: usize) -> Dense {
        match mats.is_empty() {
            true => Dense::zeros(0, width),
            false => Dense::vstack(&mats.iter().collect::<Vec<_>>()),
        }
    }

    /// The hand-staged code's redistribution of per-owned-timestep
    /// matrices to vertex chunks of every block timestep: forward of the
    /// GCN outputs, backward of the next layer's inputs.
    fn staged_to_chunks(
        comm: &mut Comm,
        mats: &[Dense],
        block: &Range<usize>,
        n: usize,
        width: usize,
    ) -> Vec<Dense> {
        let p = comm.world();
        let chunks = VertexChunks::new(n, p);
        let my = chunks.len_of(comm.rank());
        let send = (0..p).map(|q| {
            let r = chunks.range(q);
            let blocks: Vec<Dense> = mats.iter().map(|m| m.row_block(r.start, r.len())).collect();
            vstack(&blocks, width)
        });
        let recv = comm.all_to_all_dense(send.collect());
        let owned_all = owned_per_rank(block, p);
        let owner_pos = |t| {
            let q = owned_all.iter().position(|ts| ts.contains(&t)).unwrap();
            (q, owned_all[q].iter().position(|&s| s == t).unwrap())
        };
        block
            .clone()
            .map(|t| {
                let (q, pos) = owner_pos(t);
                recv[q].row_block(pos * my, my)
            })
            .collect()
    }

    /// The inverse redistribution, vertex chunks of every block timestep
    /// back to the owners: forward of the temporal outputs, backward of
    /// the GCN outputs.
    fn staged_to_owners(
        comm: &mut Comm,
        mats: &[Dense],
        block: &Range<usize>,
        n: usize,
        width: usize,
    ) -> Vec<Dense> {
        let (p, rank) = (comm.world(), comm.rank());
        let chunks = VertexChunks::new(n, p);
        let owned_all = owned_per_rank(block, p);
        let send = owned_all.iter().map(|ts| {
            let own: Vec<Dense> = ts.iter().map(|&t| mats[t - block.start].clone()).collect();
            vstack(&own, width)
        });
        let recv = comm.all_to_all_dense(send.collect());
        (0..owned_all[rank].len())
            .map(|i| {
                let parts: Vec<Dense> = (0..p)
                    .map(|q| recv[q].row_block(i * chunks.len_of(q), chunks.len_of(q)))
                    .collect();
                vstack(&parts, width)
            })
            .collect()
    }

    /// Asserts `got` equals `want` bit for bit; returns the `-0.0`s.
    fn same_bits(got: Vec<&Dense>, want: &[Dense], what: &str) -> usize {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.into_iter().zip(want) {
            assert_eq!(bits(g), bits(w), "{what}");
        }
        want.iter()
            .flat_map(bits)
            .filter(|&b| b == (-0.0f32).to_bits())
            .count()
    }

    #[test]
    fn all_to_all_is_bitwise_the_hand_staged_redistributions() {
        // Two timesteps on three or four ranks leave ranks without
        // timesteps; three vertices on four ranks leave one without rows.
        for p in [2usize, 3, 4] {
            for (len, n) in [(2usize, 7usize), (5, 3)] {
                let neg_zeros = run_ranks(p, |comm| {
                    let (rank, block) = (comm.rank(), 3..3 + len);
                    let owned_all = owned_per_rank(&block, p);
                    let chunks = VertexChunks::new(n, p);
                    let my = chunks.len_of(rank);
                    let [to_chunks, to_owners] =
                        redistribution_routes(&chunks, &owned_all, rank, &block);
                    let owned = &owned_all[rank];
                    let gcn: Vec<Dense> = owned.iter().map(|&t| values(n, 3, t)).collect();
                    let tmp: Vec<Dense> =
                        block.clone().map(|t| values(my, 2, 9 * t + rank)).collect();
                    let mut tape = Tape::new();
                    let spatial: Vec<Var> = gcn.iter().map(|v| tape.input(v.clone())).collect();
                    let b_out: Vec<Var> = tmp.iter().map(|v| tape.input(v.clone())).collect();
                    let b_in = tape.all_to_all(comm, &spatial, 3, to_chunks);
                    let c_in = tape.all_to_all(comm, &b_out, 2, to_owners);
                    let values_of = |vars: &[Var]| vars.iter().map(|&v| tape.value(v)).collect();
                    let want = staged_to_chunks(comm, &gcn, &block, n, 3);
                    same_bits(values_of(&b_in), &want, "b_in");
                    let want = staged_to_owners(comm, &tmp, &block, n, 2);
                    same_bits(values_of(&c_in), &want, "c_in");

                    // One backward, then the hand-staged reverse
                    // redistributions in the same order.
                    let dc: Vec<Dense> = owned.iter().map(|&t| values(n, 2, 50 + t)).collect();
                    let db: Vec<Dense> = block.clone().map(|t| values(my, 3, 70 + t)).collect();
                    let mut seeds: Vec<(Var, Dense)> = c_in.into_iter().zip(dc.clone()).collect();
                    seeds.extend(b_in.into_iter().zip(db.clone()));
                    tape.backward(seeds, Some(comm));
                    let grads_of =
                        |vars: &[Var]| vars.iter().map(|&v| tape.grad(v).unwrap()).collect();
                    let want = staged_to_chunks(comm, &dc, &block, n, 2);
                    let neg_zeros = same_bits(grads_of(&b_out), &want, "d b_out");
                    let want = staged_to_owners(comm, &db, &block, n, 3);
                    neg_zeros + same_bits(grads_of(&spatial), &want, "d spatial")
                });
                assert!(
                    neg_zeros.iter().sum::<usize>() > 0,
                    "a -0.0 gradient crosses"
                );
            }
        }
    }
}
