//! Golden captures of the three distributed strategies, asserted by
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
/// ranks, three epochs, `nb = 2`, seed 3).
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

// `stream` and `params` are the pre-engine trainers' numbers and have never
// moved. (Until the engine kept the last block's tape, `stream` also
// hashed the byte count; splitting the two at that commit's parent gave
// the values below and the old counts quoted here.)
//
// `comm` was re-derived once, by that change. An epoch over `nb` blocks
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

/// Time-partitioned goldens, `ModelKind::all()` order (CD-GCN, EvolveGCN,
/// TM-GCN). Comm with every block re-run: 18268 / 2860 / 11164.
pub const TIME_GOLDEN: [DistGolden; 3] = [
    golden(0xf6b8b2568b94c274, 0x81f2a826dace1e50, 16348),
    golden(0x7dc277c511fec643, 0x572ca166892e0065, 2860),
    golden(0xeca1a5057d835a9d, 0x1ef4498f76b56c76, 9724),
];

/// Hybrid goldens. Comm with every block re-run: 14028 / 13260 / 10764.
pub const HYBRID_GOLDEN: [DistGolden; 3] = [
    golden(0x63114711fc93c70b, 0xead8a5a0a8dec55f, 12908),
    golden(0x5982d6c0328c015e, 0xb882e4c346f06f00, 12140),
    golden(0x59f3a00e84b8f732, 0x346064511792b87d, 9644),
];

/// Vertex-partitioned goldens. Comm with every block re-run: 14860 /
/// 14380 / 11884.
pub const VERTEX_GOLDEN: [DistGolden; 3] = [
    golden(0xfc1f885fad42fa12, 0x61ee04da5973e5a5, 13548),
    golden(0x4c045c01a390a820, 0x5d0beedf3d85ed79, 13036),
    golden(0xffc51274049202c6, 0x5884779fd93bf849, 10540),
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
