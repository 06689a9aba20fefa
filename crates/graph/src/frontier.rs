//! The dirty frontier of an incremental recompute: which rows can differ
//! after a graph change, and when to stop tracking them and recompute
//! every row instead.
//!
//! Both incremental paths of the workspace run on these two functions:
//! the training-time first-layer pre-aggregation carry ([`crate::preagg`])
//! and the serving tier's per-layer frontier recompute (`dgnn-serve`).
//! Each recomputes only the rows in `T ∪ N(T)` (ReInc / Instant GNN style)
//! with the row-subset product `Csr::spmm_rows` scattered by
//! `Dense::set_rows`, and each degrades to a full product under the same
//! [`recompute_all`] rule.

/// Expands `seeds` by one hop: every seed plus every neighbour
/// `neighbours(seed)` yields, sorted ascending and deduplicated.
///
/// The rows are marked in a bitset (64x smaller than the row set, so the
/// random marks stay cache-resident) and collected by one word-skipping
/// ascending sweep, so the result is sorted without a sort. Duplicate and
/// empty seed lists are fine.
///
/// # Panics
/// Panics when a seed is not below `n`.
pub fn expand<I>(seeds: &[u32], n: usize, mut neighbours: impl FnMut(u32) -> I) -> Vec<u32>
where
    I: IntoIterator<Item = u32>,
{
    let mut mask = vec![0u64; n.div_ceil(64)];
    for &v in seeds {
        assert!((v as usize) < n, "frontier seed {v} out of range (n = {n})");
        mask[v as usize >> 6] |= 1u64 << (v & 63);
        for c in neighbours(v) {
            mask[c as usize >> 6] |= 1u64 << (c & 63);
        }
    }
    let mut out: Vec<u32> = Vec::with_capacity(seeds.len() * 2);
    for (wi, &word) in mask.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            out.push((wi * 64) as u32 + w.trailing_zeros());
            w &= w - 1;
        }
    }
    out
}

/// Whether a frontier of `rows` out of `n` is wide enough to recompute
/// every row with the full product instead: at half of the rows or more.
///
/// Gathering, recomputing and scattering a row subset costs about twice
/// the full product per row, so past one half the subset path stops
/// saving work (measured on the serving burst path and the `reuse` churn
/// sweep). Both paths produce the same bits, so the rule only moves time.
pub fn recompute_all(rows: usize, n: usize) -> bool {
    2 * rows >= n
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_tensor::Csr;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 1000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bitset sweep against a `BTreeSet` of `T ∪ N(T)`, on random
        /// graphs with self-loops and seed lists with repeats (or none),
        /// at sizes on both sides of a 64-bit word boundary.
        #[test]
        fn expand_matches_a_set_reference(
            size_idx in 0usize..6,
            raw_edges in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..300),
            raw_seeds in proptest::collection::vec(0u32..u32::MAX, 0..40),
            loops in any::<bool>(),
        ) {
            let n = SIZES[size_idx];
            let (edges, seeds): (Vec<(u32, u32)>, Vec<u32>) = if n == 0 {
                (Vec::new(), Vec::new())
            } else {
                let m = n as u32;
                let mut edges: Vec<(u32, u32)> =
                    raw_edges.iter().map(|&(u, v)| (u % m, v % m)).collect();
                if loops {
                    edges.extend((0..m).map(|u| (u, u)));
                }
                // Repeat a seed so duplicates are always exercised.
                let mut seeds: Vec<u32> = raw_seeds.iter().map(|&s| s % m).collect();
                if let Some(&s) = seeds.first() {
                    seeds.push(s);
                }
                (edges, seeds)
            };
            let a = Csr::from_edges(n, &edges);
            let mut want = BTreeSet::new();
            for &s in &seeds {
                want.insert(s);
                want.extend(a.row_iter(s as usize).map(|(c, _)| c));
            }
            let neighbours = |u: u32| a.row_iter(u as usize).map(|(c, _)| c);
            let got = expand(&seeds, n, neighbours);
            prop_assert_eq!(got, want.into_iter().collect::<Vec<u32>>(), "n = {}", n);
            prop_assert!(expand(&[], n, neighbours).is_empty(), "n = {}", n);
        }
    }

    #[test]
    #[should_panic(expected = "frontier seed 64 out of range (n = 64)")]
    fn expand_rejects_out_of_range_seeds() {
        let _ = expand(&[3, 64], 64, |_| Vec::new());
    }

    #[test]
    fn recompute_all_starts_at_exactly_half() {
        // The serving case (`wide_windows_recompute_every_row`): four of
        // eight rows dirty takes the full product, three do not.
        assert!(recompute_all(4, 8));
        assert!(!recompute_all(3, 8));
        for n in [1usize, 2, 7, 64, 65, 1000] {
            let half = n.div_ceil(2);
            assert!(recompute_all(half, n), "n = {n}");
            assert!(!recompute_all(half - 1, n), "n = {n}");
            assert!(recompute_all(n, n), "n = {n}");
        }
        assert!(recompute_all(0, 0));
    }
}
