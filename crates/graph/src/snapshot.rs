//! Discrete-time dynamic graphs (DTDG): a sequence of snapshots over a fixed
//! vertex set (paper §2.1).

use std::rc::Rc;

use dgnn_tensor::{normalized_laplacian, Csr, SparseTensor3};

/// One snapshot `G_t = (V, E_t)` stored as a (possibly weighted) adjacency
/// matrix in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    adj: Csr,
}

impl Snapshot {
    /// Wraps an adjacency matrix.
    pub fn new(adj: Csr) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "snapshot adjacency must be square");
        Self { adj }
    }

    /// Builds an unweighted snapshot over `n` vertices from directed edges.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::new(Csr::from_edges(n, edges))
    }

    /// The adjacency matrix.
    pub fn adj(&self) -> &Csr {
        &self.adj
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.rows()
    }

    /// Number of stored (directed) edges.
    pub fn nnz(&self) -> usize {
        self.adj.nnz()
    }

    /// The edge structure as `(u, v)` pairs in CSR order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        self.adj
            .to_coo()
            .into_iter()
            .map(|(u, v, _)| (u, v))
            .collect()
    }

    /// The symmetric-normalized Laplacian `Ã` of paper Eq. (1).
    pub fn laplacian(&self) -> Csr {
        normalized_laplacian(&self.adj)
    }

    /// Renames vertices: edge `(u, v)` becomes `(perm[u], perm[v])`,
    /// preserving values. Used to make hypergraph parts contiguous
    /// (paper §6.4).
    pub fn relabel(&self, perm: &[u32]) -> Snapshot {
        assert_eq!(perm.len(), self.n(), "permutation length mismatch");
        let triplets: Vec<(u32, u32, f32)> = self
            .adj
            .to_coo()
            .into_iter()
            .map(|(u, v, w)| (perm[u as usize], perm[v as usize], w))
            .collect();
        Snapshot::new(Csr::from_coo(self.n(), self.n(), &triplets))
    }
}

/// A dynamic graph `G = G_1, ..., G_T` over a shared vertex set.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    n: usize,
    snapshots: Vec<Snapshot>,
}

impl DynamicGraph {
    /// Wraps a snapshot sequence; all snapshots must share the vertex count.
    pub fn new(n: usize, snapshots: Vec<Snapshot>) -> Self {
        assert!(
            snapshots.iter().all(|s| s.n() == n),
            "snapshots must share the vertex set"
        );
        Self { n, snapshots }
    }

    /// Number of vertices `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of timesteps `T`.
    pub fn t(&self) -> usize {
        self.snapshots.len()
    }

    /// Snapshot at timestep `t`.
    pub fn snapshot(&self, t: usize) -> &Snapshot {
        &self.snapshots[t]
    }

    /// All snapshots.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Total stored edges across all snapshots (Table 1's `nnz`).
    pub fn total_nnz(&self) -> u64 {
        self.snapshots.iter().map(|s| s.nnz() as u64).sum()
    }

    /// Per-snapshot edge counts.
    pub fn nnz_series(&self) -> Vec<u64> {
        self.snapshots.iter().map(|s| s.nnz() as u64).collect()
    }

    /// The adjacency tensor `A` as `T` sparse slices.
    pub fn to_sparse_tensor(&self) -> SparseTensor3 {
        SparseTensor3::new(self.snapshots.iter().map(|s| s.adj().clone()).collect())
    }

    /// Builds a dynamic graph from an adjacency tensor.
    pub fn from_sparse_tensor(tensor: SparseTensor3) -> Self {
        let slices = tensor.into_slices();
        let n = slices.first().map(Csr::rows).unwrap_or(0);
        Self::new(n, slices.into_iter().map(Snapshot::new).collect())
    }

    /// Normalized Laplacians of every snapshot, shared behind `Rc` so the
    /// autograd tape can hold them without copies.
    pub fn laplacians(&self) -> Vec<Rc<Csr>> {
        self.snapshots
            .iter()
            .map(|s| Rc::new(s.laplacian()))
            .collect()
    }

    /// Union of all snapshots' structure with edge multiplicities as values
    /// (the hypergraph-partitioning input).
    pub fn union_graph(&self) -> Csr {
        let terms: Vec<(f32, &Csr)> = self.snapshots.iter().map(|s| (1.0, s.adj())).collect();
        if terms.is_empty() {
            Csr::empty(self.n, self.n)
        } else {
            Csr::add_weighted(&terms)
        }
    }

    /// Restricts the timeline to `[start, start + len)`.
    pub fn time_slice(&self, start: usize, len: usize) -> DynamicGraph {
        assert!(start + len <= self.t(), "time_slice out of range");
        DynamicGraph {
            n: self.n,
            snapshots: self.snapshots[start..start + len].to_vec(),
        }
    }

    /// Renames vertices in every snapshot (see [`Snapshot::relabel`]).
    pub fn relabel(&self, perm: &[u32]) -> DynamicGraph {
        DynamicGraph {
            n: self.n,
            snapshots: self.snapshots.iter().map(|s| s.relabel(perm)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DynamicGraph {
        DynamicGraph::new(
            4,
            vec![
                Snapshot::from_edges(4, &[(0, 1), (1, 2)]),
                Snapshot::from_edges(4, &[(0, 1), (2, 3)]),
                Snapshot::from_edges(4, &[(3, 0)]),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = toy();
        assert_eq!(g.n(), 4);
        assert_eq!(g.t(), 3);
        assert_eq!(g.total_nnz(), 5);
        assert_eq!(g.nnz_series(), vec![2, 2, 1]);
    }

    #[test]
    fn union_counts_multiplicity() {
        let g = toy();
        let u = g.union_graph();
        assert_eq!(u.nnz(), 4); // (0,1) appears twice but is one entry
        let coo = u.to_coo();
        assert!(coo.contains(&(0, 1, 2.0)));
        assert!(coo.contains(&(1, 2, 1.0)));
    }

    #[test]
    fn tensor_roundtrip() {
        let g = toy();
        let back = DynamicGraph::from_sparse_tensor(g.to_sparse_tensor());
        assert_eq!(back.t(), g.t());
        for t in 0..g.t() {
            assert_eq!(back.snapshot(t).adj(), g.snapshot(t).adj());
        }
    }

    #[test]
    fn time_slice_restricts() {
        let g = toy();
        let s = g.time_slice(1, 2);
        assert_eq!(s.t(), 2);
        assert_eq!(s.snapshot(0).adj(), g.snapshot(1).adj());
    }

    #[test]
    fn laplacian_has_self_loops() {
        let g = toy();
        let lap = g.snapshot(2).laplacian();
        // Every vertex gets a self-loop entry from the +I term.
        for u in 0..4 {
            assert!(lap.row_iter(u).any(|(c, _)| c as usize == u));
        }
    }
}
