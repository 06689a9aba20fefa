//! The three dynamic-GNN architectures of the study, named once for every
//! crate: `dgnn-models` builds them, `dgnn-sim` models their cost, and
//! `dgnn-serve` tags checkpoints with them.

/// Which dynamic-GNN architecture to build (paper §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Concatenate-Dynamic GCN: GCN with skip concat + feature LSTM \[17\].
    CdGcn,
    /// EvolveGCN, the EGCN-O variant: weights evolved by an LSTM \[19\].
    EvolveGcn,
    /// TM-GCN: M-product temporal aggregation \[16\].
    TmGcn,
}

impl ModelKind {
    /// Display name matching the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::CdGcn => "cdgcn",
            ModelKind::EvolveGcn => "egcn",
            ModelKind::TmGcn => "tmgcn",
        }
    }

    /// All three architectures.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::CdGcn, ModelKind::EvolveGcn, ModelKind::TmGcn]
    }

    /// Stable on-disk tag of this architecture, used by the `dgnn-serve`
    /// checkpoint header. Codes are append-only: existing values must
    /// never be renumbered, or old checkpoints would decode wrongly.
    pub fn code(&self) -> u8 {
        match self {
            ModelKind::CdGcn => 0,
            ModelKind::EvolveGcn => 1,
            ModelKind::TmGcn => 2,
        }
    }

    /// Decodes an on-disk architecture tag written by [`ModelKind::code`].
    pub fn from_code(code: u8) -> Option<ModelKind> {
        match code {
            0 => Some(ModelKind::CdGcn),
            1 => Some(ModelKind::EvolveGcn),
            2 => Some(ModelKind::TmGcn),
            _ => None,
        }
    }

    /// Whether the temporal component needs the two all-to-all
    /// redistributions. EvolveGCN applies its LSTM to replicated weight
    /// matrices and is communication-free apart from the epoch-end gradient
    /// all-reduce (paper §5.5).
    pub fn uses_redistribution(&self) -> bool {
        !matches!(self, ModelKind::EvolveGcn)
    }
}
