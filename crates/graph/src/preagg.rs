//! Incremental first-layer pre-aggregation across consecutive snapshots
//! (ReInc-style aggregation reuse).
//!
//! Consecutive DTDG snapshots share almost all of their edges, so the
//! §5.5 pre-aggregation `Ã_{t+1}·X_{t+1}` differs from `Ã_t·X_t` only on
//! the rows the snapshot transition actually touches. This module builds
//! the whole pre-aggregation timeline by carrying each block forward:
//! snapshot `t+1`'s block starts as a copy of `t`'s and only the *dirty*
//! rows are recomputed, with [`Csr::spmm_rows`] scattered by
//! `Dense::set_rows`.
//!
//! The result is **bit-identical** to building every block from scratch:
//! untouched rows are byte-copied, and `spmm_rows` runs the same serial
//! per-row gather as the full [`Csr::spmm`] (pinned by the tensor crate's
//! own equivalence tests), so no row ever sees a different accumulation
//! order.
//!
//! The dirty rows come from a **touched-vertex journal**
//! (`DeltaBatcher::touched_vertices`, or the endpoints of a
//! [`crate::diff::GraphDiff`]): the dirty set is the one-hop expansion
//! `T ∪ N(T)` under the next operator ([`frontier::expand`]). This is
//! sound only when the journal covers every vertex whose incident edges
//! (structure *or* weight) changed between the underlying snapshots, the
//! features are per-vertex functions of the journaled changes (degree
//! features are), and the operator is **structurally symmetric** — the
//! Eq. (1) normalized Laplacian is, being built from `0.5·(A+Aᵀ)+I`. A
//! timeline without a sound journal (a smoothed one: edge-life and the
//! M-transform mix raw frames across time) is built from scratch, as is
//! any timestep whose frontier crosses [`frontier::recompute_all`].

use dgnn_tensor::{Csr, Dense};

use crate::diff::GraphDiff;
use crate::frontier;

/// How a pre-aggregation timeline was built — returned by
/// [`incremental_preagg`] for telemetry and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Timesteps in the timeline.
    pub timesteps: usize,
    /// Timesteps built from scratch: every one without a journal, else the
    /// first one plus any whose frontier crossed
    /// [`frontier::recompute_all`].
    pub full_builds: usize,
    /// Timesteps built incrementally from their predecessor.
    pub incremental_builds: usize,
    /// Rows recomputed via `spmm_rows` across all incremental builds.
    pub rows_recomputed: u64,
    /// Rows carried over by copy across all incremental builds.
    pub rows_reused: u64,
}

impl ReuseStats {
    /// Fraction of incrementally-built rows that had to be recomputed
    /// (0 when nothing was built incrementally).
    pub fn recomputed_fraction(&self) -> f64 {
        let total = self.rows_recomputed + self.rows_reused;
        if total == 0 {
            0.0
        } else {
            self.rows_recomputed as f64 / total as f64
        }
    }
}

/// The touched-vertex journal implied by a structural [`GraphDiff`]: the
/// endpoints of every inserted or dropped edge, sorted and deduplicated.
///
/// Valid as an [`incremental_preagg`] journal only when value changes are
/// confined to structurally edited edges (e.g. unweighted snapshots) — a
/// `GraphDiff` ships *all* next values and does not say which of them
/// changed. Event-sourced journals (`DeltaBatcher::touched_vertices`)
/// cover weight-only updates too and carry no such caveat.
pub fn journal_from_diff(d: &GraphDiff) -> Vec<u32> {
    let mut out: Vec<u32> = d
        .ext_prev
        .iter()
        .chain(&d.ext_next)
        .flat_map(|&(u, v)| [u, v])
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds the pre-aggregation timeline `out[t] = laps[t]·xs[t]`.
/// `journal[t-1]`, when provided, is the touched-vertex set of the
/// transition into timestep `t` (see the module docs for when a journal is
/// sound): each block then starts as a copy of its predecessor and only
/// the frontier rows are recomputed. Without a journal every block is
/// built from scratch. Bit-identical to `laps[t].spmm(&xs[t])` at every
/// timestep, thread count, and workspace setting.
///
/// # Panics
/// Panics on length mismatches between `laps`, `xs`, and `journal`.
pub fn incremental_preagg(
    laps: &[Csr],
    xs: &[Dense],
    journal: Option<&[Vec<u32>]>,
) -> (Vec<Dense>, ReuseStats) {
    assert_eq!(laps.len(), xs.len(), "operator/feature timeline mismatch");
    let mut stats = ReuseStats {
        timesteps: laps.len(),
        ..ReuseStats::default()
    };
    let Some(journal) = journal else {
        stats.full_builds = laps.len();
        return (laps.iter().zip(xs).map(|(a, x)| a.spmm(x)).collect(), stats);
    };
    assert_eq!(
        journal.len() + 1,
        laps.len(),
        "journal must cover every transition: {} entries for {} timesteps",
        journal.len(),
        laps.len()
    );
    let mut out: Vec<Dense> = Vec::with_capacity(laps.len());
    for (t, (lap, x)) in laps.iter().zip(xs).enumerate() {
        let n = lap.rows();
        let dirty = (t > 0)
            .then(|| {
                frontier::expand(&journal[t - 1], n, |u| {
                    lap.row_iter(u as usize).map(|(c, _)| c)
                })
            })
            .filter(|dirty| !frontier::recompute_all(dirty.len(), n));
        let Some(dirty) = dirty else {
            out.push(lap.spmm(x));
            stats.full_builds += 1;
            continue;
        };
        let mut block = out[t - 1].clone();
        block.set_rows(&dirty, &lap.spmm_rows(x, &dirty));
        stats.incremental_builds += 1;
        stats.rows_recomputed += dirty.len() as u64;
        stats.rows_reused += (n - dirty.len()) as u64;
        out.push(block);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff;
    use crate::features::degree_features;
    use crate::gen::churn;
    use crate::snapshot::Snapshot;

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    fn task_like(n: usize, t: usize, m: usize, rho: f64, seed: u64) -> (Vec<Csr>, Vec<Dense>) {
        let g = churn(n, t, m, rho, seed);
        let laps: Vec<Csr> = g.snapshots().iter().map(Snapshot::laplacian).collect();
        let xs: Vec<Dense> = degree_features(&g).into_frames();
        (laps, xs)
    }

    fn scratch(laps: &[Csr], xs: &[Dense]) -> Vec<Dense> {
        laps.iter().zip(xs).map(|(a, x)| a.spmm(x)).collect()
    }

    fn lap_row_bits_equal(prev: &Csr, next: &Csr, r: usize) -> bool {
        let (pp, pn) = (prev.indptr(), next.indptr());
        let (ia, ib) = (
            &prev.indices()[pp[r]..pp[r + 1]],
            &next.indices()[pn[r]..pn[r + 1]],
        );
        let (va, vb) = (
            &prev.values()[pp[r]..pp[r + 1]],
            &next.values()[pn[r]..pn[r + 1]],
        );
        // Bit compare, not `==`: -0.0 vs 0.0 would compare equal but
        // produce different output bits downstream.
        ia == ib && va.iter().zip(vb).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The oracle the journal expansion is checked against: an exact
    /// bitwise scan marking row `r` dirty iff its operator row changed
    /// (indices or value bits) or any feature row it gathers from changed.
    fn dirty_rows_scan(prev_lap: &Csr, next_lap: &Csr, prev_x: &Dense, next_x: &Dense) -> Vec<u32> {
        let x_dirty: Vec<bool> = (0..next_x.rows())
            .map(|r| {
                prev_x
                    .row(r)
                    .iter()
                    .zip(next_x.row(r))
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .collect();
        (0..next_lap.rows())
            .filter(|&r| {
                !lap_row_bits_equal(prev_lap, next_lap, r)
                    || next_lap.row_iter(r).any(|(c, _)| x_dirty[c as usize])
            })
            .map(|r| r as u32)
            .collect()
    }

    #[test]
    fn journal_less_timeline_is_built_from_scratch() {
        for rho in [0.02, 0.2, 0.6] {
            let (laps, xs) = task_like(80, 6, 300, rho, 5);
            let (blocks, stats) = incremental_preagg(&laps, &xs, None);
            let full = scratch(&laps, &xs);
            for (t, (a, b)) in blocks.iter().zip(&full).enumerate() {
                assert_eq!(bits(a), bits(b), "rho = {rho}, t = {t}");
            }
            assert_eq!(
                stats,
                ReuseStats {
                    timesteps: 6,
                    full_builds: 6,
                    ..ReuseStats::default()
                }
            );
        }
    }

    #[test]
    fn diff_journal_is_bit_identical_to_scratch() {
        // churn snapshots are unweighted, so the structural-diff journal
        // covers every change.
        let g = churn(400, 5, 600, 0.02, 9);
        let laps: Vec<Csr> = g.snapshots().iter().map(Snapshot::laplacian).collect();
        let xs: Vec<Dense> = degree_features(&g).into_frames();
        let journal: Vec<Vec<u32>> = (1..g.t())
            .map(|t| journal_from_diff(&diff(g.snapshot(t - 1).adj(), g.snapshot(t).adj())))
            .collect();
        let (inc, stats) = incremental_preagg(&laps, &xs, Some(&journal));
        let full = scratch(&laps, &xs);
        for (t, (a, b)) in inc.iter().zip(&full).enumerate() {
            assert_eq!(bits(a), bits(b), "t = {t}");
        }
        assert!(stats.incremental_builds > 0, "low churn must reuse");
    }

    #[test]
    fn journal_expansion_covers_exact_scan() {
        // T ∪ N(T) is a sound superset of the bitwise dirty set.
        let g = churn(60, 6, 220, 0.25, 3);
        let laps: Vec<Csr> = g.snapshots().iter().map(Snapshot::laplacian).collect();
        let xs: Vec<Dense> = degree_features(&g).into_frames();
        for t in 1..g.t() {
            let journal = journal_from_diff(&diff(g.snapshot(t - 1).adj(), g.snapshot(t).adj()));
            let expanded = frontier::expand(&journal, laps[t].rows(), |u| {
                laps[t].row_iter(u as usize).map(|(c, _)| c)
            });
            let exact = dirty_rows_scan(&laps[t - 1], &laps[t], &xs[t - 1], &xs[t]);
            for r in &exact {
                assert!(
                    expanded.binary_search(r).is_ok(),
                    "t = {t}: dirty row {r} missing from the journal expansion"
                );
            }
        }
    }

    #[test]
    fn identical_snapshots_copy_everything() {
        let g = churn(50, 1, 180, 0.3, 7);
        let s = g.snapshot(0);
        let laps = vec![s.laplacian(), s.laplacian()];
        let g2 = crate::snapshot::DynamicGraph::new(50, vec![s.clone(), s.clone()]);
        let xs: Vec<Dense> = degree_features(&g2).into_frames();
        let (inc, stats) = incremental_preagg(&laps, &xs, Some(&[Vec::new()]));
        assert_eq!(bits(&inc[0]), bits(&inc[1]));
        assert_eq!(stats.rows_recomputed, 0);
        assert_eq!(stats.rows_reused, 50);
        assert_eq!(stats.incremental_builds, 1);
    }

    #[test]
    fn full_rewrite_degrades_to_scratch_build() {
        // A journal touching every vertex crosses `frontier::recompute_all`.
        let (laps, xs) = task_like(40, 3, 150, 0.9, 11);
        let all: Vec<u32> = (0..40).collect();
        let journal = vec![all.clone(), all];
        let (inc, stats) = incremental_preagg(&laps, &xs, Some(&journal));
        assert_eq!(stats.full_builds, 3);
        assert_eq!(stats.incremental_builds, 0);
        let full = scratch(&laps, &xs);
        for (a, b) in inc.iter().zip(&full) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn stats_recomputed_fraction() {
        let s = ReuseStats {
            timesteps: 3,
            full_builds: 1,
            incremental_builds: 2,
            rows_recomputed: 25,
            rows_reused: 75,
        };
        assert!((s.recomputed_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(ReuseStats::default().recomputed_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "journal must cover every transition")]
    fn short_journal_panics() {
        let (laps, xs) = task_like(20, 3, 60, 0.2, 1);
        let _ = incremental_preagg(&laps, &xs, Some(&[Vec::new()]));
    }
}
