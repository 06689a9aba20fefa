//! Property-based tests pinning the algebraic invariants of the kernel
//! layer. These are the foundation the autograd gradient checks rest on.

use dgnn_tensor::{m_banded, normalized_laplacian, Csr, Dense, SparseTensor3, Tensor3};
use proptest::prelude::*;

fn dense_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Dense> {
    proptest::collection::vec(-8.0f32..8.0, rows * cols)
        .prop_map(move |v| Dense::from_vec(rows, cols, v))
}

fn coo_strategy(n: usize, max_nnz: usize) -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32, -4.0f32..4.0), 0..max_nnz)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative_with_identity(a in dense_strategy(4, 5)) {
        let i = Dense::eye(5);
        prop_assert!(a.matmul(&i).approx_eq(&a, 1e-5));
    }

    #[test]
    fn matmul_distributes_over_add(
        a in dense_strategy(3, 4),
        b in dense_strategy(4, 2),
        c in dense_strategy(4, 2),
    ) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn transpose_of_product_swaps(
        a in dense_strategy(3, 4),
        b in dense_strategy(4, 2),
    ) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_trans_variants_agree(
        a in dense_strategy(4, 3),
        b in dense_strategy(4, 2),
    ) {
        prop_assert!(a.matmul_transa(&b).approx_eq(&a.transpose().matmul(&b), 1e-3));
        let c = Dense::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        prop_assert!(a.matmul_transb(&c).approx_eq(&a.matmul(&c.transpose()), 1e-3));
    }

    #[test]
    fn csr_roundtrips_through_coo(triplets in coo_strategy(8, 24)) {
        let a = Csr::from_coo(8, 8, &triplets);
        let b = Csr::from_coo(8, 8, &a.to_coo());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csr_transpose_involution(triplets in coo_strategy(7, 20)) {
        let a = Csr::from_coo(7, 7, &triplets);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spmm_matches_dense_reference(
        triplets in coo_strategy(6, 18),
        x in dense_strategy(6, 3),
    ) {
        let a = Csr::from_coo(6, 6, &triplets);
        prop_assert!(a.spmm(&x).approx_eq(&a.to_dense().matmul(&x), 1e-3));
        prop_assert!(a.spmm_transa(&x).approx_eq(&a.to_dense().transpose().matmul(&x), 1e-3));
    }

    #[test]
    fn add_weighted_matches_dense(
        t1 in coo_strategy(5, 12),
        t2 in coo_strategy(5, 12),
        w1 in -2.0f32..2.0,
        w2 in -2.0f32..2.0,
    ) {
        let a = Csr::from_coo(5, 5, &t1);
        let b = Csr::from_coo(5, 5, &t2);
        let s = Csr::add_weighted(&[(w1, &a), (w2, &b)]);
        let expected = a.to_dense().scale(w1).add(&b.to_dense().scale(w2));
        prop_assert!(s.to_dense().approx_eq(&expected, 1e-4));
    }

    #[test]
    fn laplacian_spectrally_bounded(
        edges in proptest::collection::vec((0u32..10, 0u32..10), 1..30),
        x in dense_strategy(10, 1),
    ) {
        // Ã = D^{-1/2}(A+I)D^{-1/2} is symmetric with eigenvalues in [-1, 1],
        // so |xᵀÃx| <= xᵀx for every vector x.
        let a = Csr::from_edges(10, &edges);
        let lap = normalized_laplacian(&a);
        prop_assert!(lap.is_symmetric(1e-5));
        let quad = x.transpose().matmul(&lap.spmm(&x)).get(0, 0);
        let norm2 = x.transpose().matmul(&x).get(0, 0);
        prop_assert!(quad.abs() <= norm2 * (1.0 + 1e-4) + 1e-4);
    }

    #[test]
    fn ttm_linear_in_input(
        f0 in dense_strategy(3, 2),
        f1 in dense_strategy(3, 2),
        f2 in dense_strategy(3, 2),
        w in 1usize..4,
    ) {
        let x = Tensor3::new(vec![f0.clone(), f1.clone(), f2.clone()]);
        let m = m_banded(3, w);
        let y = x.ttm_mode1(&m);
        let x2 = Tensor3::new(vec![f0.scale(2.0), f1.scale(2.0), f2.scale(2.0)]);
        let y2 = x2.ttm_mode1(&m);
        for t in 0..3 {
            prop_assert!(y.frame(t).scale(2.0).approx_eq(y2.frame(t), 1e-3));
        }
    }

    #[test]
    fn sparse_ttm_matches_dense_ttm(
        t1 in coo_strategy(4, 8),
        t2 in coo_strategy(4, 8),
        w in 1usize..3,
    ) {
        let s = SparseTensor3::new(vec![
            Csr::from_coo(4, 4, &t1),
            Csr::from_coo(4, 4, &t2),
        ]);
        let m = m_banded(2, w);
        let sm = s.ttm_mode1(&m);
        let dm = Tensor3::new(vec![s.slice(0).to_dense(), s.slice(1).to_dense()]).ttm_mode1(&m);
        for t in 0..2 {
            prop_assert!(sm.slice(t).to_dense().approx_eq(dm.frame(t), 1e-4));
        }
    }

    #[test]
    fn gather_then_scatter_is_diagonal_scaling(
        x in dense_strategy(5, 3),
        idx in proptest::collection::vec(0u32..5, 1..10),
    ) {
        // scatter_add(gather(x)) multiplies each row by its occurrence count.
        let g = x.gather_rows(&idx);
        let mut acc = Dense::zeros(5, 3);
        acc.scatter_add_rows(&idx, &g);
        let mut counts = [0f32; 5];
        for &i in &idx { counts[i as usize] += 1.0; }
        let expected = Dense::from_fn(5, 3, |r, c| counts[r] * x.get(r, c));
        prop_assert!(acc.approx_eq(&expected, 1e-4));
    }
}
