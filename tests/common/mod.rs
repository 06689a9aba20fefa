//! Golden captures of the distributed entry points, asserted by
//! `engine_equivalence.rs`.

use dgnn_core::prelude::*;
use dgnn_tensor::digest::fnv1a as fnv;

/// Digest over the numeric per-epoch stat stream: loss, train/test
/// accuracy, transfer accounting. Communication volume is pinned beside it
/// as a plain byte count ([`comm_bytes`]): it depends on how many blocks
/// the backward pass re-runs, which the numbers do not.
pub fn digest_numeric(stats: &[EpochStats]) -> u64 {
    fnv(stats.iter().flat_map(|s| {
        let mut b = Vec::new();
        b.extend(s.loss.to_bits().to_le_bytes());
        b.extend(s.train_acc.to_bits().to_le_bytes());
        b.extend(s.test_acc.to_bits().to_le_bytes());
        b.extend(s.transfer_naive_bytes.to_le_bytes());
        b.extend(s.transfer_gd_bytes.to_le_bytes());
        b
    }))
}

/// The per-rank communication volume of an epoch, which every epoch of a
/// run must repeat.
pub fn comm_bytes(stats: &[EpochStats]) -> u64 {
    assert!(stats.iter().all(|s| s.comm_bytes == stats[0].comm_bytes));
    stats[0].comm_bytes
}

/// One distributed golden on the shapes of `engine_equivalence.rs` (two
/// ranks unless the golden names another count, three epochs, `nb = 2`,
/// seed 3).
pub struct DistGolden {
    /// [`digest_numeric`] of the stat stream.
    pub stream: u64,
    /// Every rank's final-parameter digest.
    pub params: u64,
    /// [`comm_bytes`] per epoch.
    pub comm: u64,
}

const fn golden(stream: u64, params: u64, comm: u64) -> DistGolden {
    DistGolden {
        stream,
        params,
        comm,
    }
}

// `stream` and `params` are the pre-engine trainers' numbers. (Until the
// engine kept the last block's tape, `stream` also hashed the byte count;
// splitting the two at that commit's parent gave the values below and the
// old counts quoted here.) Of these, only the vertex-partitioned `params`
// were re-captured, once: when hybrid and vertex partitioning merged into
// one row-split strategy. That strategy sums every SpMM row in global
// column order and each own row's reverse-exchange gradient in rank order,
// exactly as the hybrid's all-gather and all-reduce did, so every hybrid
// digest held; vertex partitioning's old `[own | remote]` column order and
// tape-accumulated reverse exchange summed differently. The unit test
// `rank_spmm_bit_equals_single_rank_spmm` in `engine/vertex_part.rs` is
// the witness for the new sums. Every `stream` held.
//
// `comm` was re-derived at the tape-keeping change. An epoch over `nb` blocks
// moves the forward redistributions, the backward ones, and the forward
// ones again for every block the backward pass re-runs — all but the
// last — plus the epoch-end all-reduces:
//
//     comm = fwd + bwd + (nb - 1)/nb · fwd + allreduce
//
// where re-running every block cost `2·fwd + bwd + allreduce`: the
// difference is the forward redistributions of the last block (two of
// these timelines' five snapshots). EvolveGCN under time partitioning
// only all-reduces and does not move.
//
// The row-split merge moved `comm` once more, for the hybrid and vertex
// goldens only. The hybrid's all-gather of every row block became the
// neighbor exchange, and its per-layer all-reduce of the full input
// gradient became the reverse exchange. Vertex partitioning dropped the
// layer-0 reverse exchange, whose gradients of constants were discarded.

/// Time-partitioned goldens, `ModelKind::all()` order (CD-GCN, EvolveGCN,
/// TM-GCN). Comm with every block re-run: 18268 / 2860 / 11164.
pub const TIME_GOLDEN: [DistGolden; 3] = [
    golden(0xf6b8b2568b94c274, 0x81f2a826dace1e50, 16348),
    golden(0x7dc277c511fec643, 0x572ca166892e0065, 2860),
    golden(0xeca1a5057d835a9d, 0x1ef4498f76b56c76, 9724),
];

/// Hybrid goldens. Comm before the row-split merge: 12908 / 12140 / 9644;
/// with every block re-run: 14028 / 13260 / 10764.
pub const HYBRID_GOLDEN: [DistGolden; 3] = [
    golden(0x63114711fc93c70b, 0xead8a5a0a8dec55f, 11644),
    golden(0x5982d6c0328c015e, 0xb882e4c346f06f00, 10940),
    golden(0x59f3a00e84b8f732, 0x346064511792b87d, 8444),
];

/// Hybrid goldens on the same shapes at `p = 3`. `stream` and `params`
/// were captured before the row-split merge, `comm` after it. Comm before
/// the merge: 23128 / 21592 / 16600.
pub const HYBRID_GOLDEN_P3: [DistGolden; 3] = [
    golden(0x63114711fc93c70b, 0xacbcc424a569a894, 19488),
    golden(0x7dd0173f78750845, 0xbfd4d13ae468155d, 18176),
    golden(0x0a8405623ad1b819, 0x5599d2219ef59891, 13184),
];

/// Hybrid goldens at `p = 4`, captured as [`HYBRID_GOLDEN_P3`]. Comm
/// before the merge: 32004 / 29700 / 22212.
pub const HYBRID_GOLDEN_P4: [DistGolden; 3] = [
    golden(0x63114711fc93c70b, 0x752185b03b8fe010, 25740),
    golden(0x694c31828323591f, 0x3af23fd285ec91f7, 23940),
    golden(0xbce02109e604566b, 0xb01147536f2c676e, 16452),
];

/// Vertex-partitioned goldens. Before the row-split merge: `params`
/// 0x61ee04da5973e5a5 / 0x5d0beedf3d85ed79 / 0x5884779fd93bf849 and comm
/// 13548 / 13036 / 10540; comm with every block re-run: 14860 / 14380 /
/// 11884.
pub const VERTEX_GOLDEN: [DistGolden; 3] = [
    golden(0xfc1f885fad42fa12, 0x1ad08bcb1a1bc060, 13076),
    golden(0x4c045c01a390a820, 0x30b040fcda2b08e3, 12556),
    golden(0xffc51274049202c6, 0x82c40ba7d8fe68fc, 10060),
];

/// Holds one run — `(stats, per-rank parameter digests)` — against its
/// golden.
pub fn assert_dist_golden(what: &str, run: &(Vec<EpochStats>, Vec<u64>), golden: &DistGolden) {
    let (stats, params) = run;
    assert_eq!(
        digest_numeric(stats),
        golden.stream,
        "{what}: stat stream drifted"
    );
    assert!(
        params.iter().all(|&d| d == golden.params),
        "{what}: final parameters drifted: {params:x?}"
    );
    assert_eq!(
        comm_bytes(stats),
        golden.comm,
        "{what}: comm volume drifted"
    );
}
