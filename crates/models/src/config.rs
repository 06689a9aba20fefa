//! Model configuration shared by the three architectures.

pub use dgnn_graph::ModelKind;
use dgnn_graph::Smoothing;

/// Hyper-parameters of the two-layer dynamic GNN framework (paper §2.2).
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Architecture.
    pub kind: ModelKind,
    /// Input feature width (the paper uses in/out degrees: 2).
    pub input_f: usize,
    /// Intermediate and embedding width (the paper sets these to 6).
    pub hidden: usize,
    /// M-product window for TM-GCN's temporal component.
    pub mprod_window: usize,
    /// Edge life / smoothing window applied to the input graph before
    /// training (EvolveGCN: edge-life; TM-GCN: M-product; CD-GCN: none).
    pub smoothing_window: usize,
}

impl ModelConfig {
    /// Paper-default configuration for the given architecture.
    pub fn paper_defaults(kind: ModelKind) -> Self {
        Self {
            kind,
            input_f: 2,
            hidden: 6,
            mprod_window: 5,
            smoothing_window: 5,
        }
    }

    /// Number of dynamic-GNN layers (the study extends every model to 2).
    pub fn layers(&self) -> usize {
        2
    }

    /// GCN input width at layer `l`.
    pub fn gcn_in(&self, l: usize) -> usize {
        if l == 0 {
            self.input_f
        } else {
            self.hidden
        }
    }

    /// Width leaving the GCN component at layer `l` (CD-GCN concatenates
    /// the aggregated input onto the linear output).
    pub fn gcn_out(&self, l: usize) -> usize {
        match self.kind {
            ModelKind::CdGcn => self.gcn_in(l) + self.hidden,
            _ => self.hidden,
        }
    }

    /// Width leaving the temporal component at layer `l` (the embedding
    /// width at the final layer).
    pub fn temporal_out(&self, _l: usize) -> usize {
        self.hidden
    }

    /// The input-graph smoothing this architecture requires (paper §5.4).
    pub fn smoothing(&self) -> Smoothing {
        match self.kind {
            ModelKind::CdGcn => Smoothing::None,
            ModelKind::EvolveGcn => Smoothing::EdgeLife(self.smoothing_window),
            ModelKind::TmGcn => Smoothing::MProduct(self.smoothing_window),
        }
    }

    /// Final embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_per_model() {
        let cd = ModelConfig::paper_defaults(ModelKind::CdGcn);
        assert_eq!(cd.gcn_out(0), 8);
        assert_eq!(cd.gcn_out(1), 12);
        let tm = ModelConfig::paper_defaults(ModelKind::TmGcn);
        assert_eq!(tm.gcn_out(0), 6);
        assert_eq!(tm.gcn_in(1), 6);
    }

    #[test]
    fn kind_codes_roundtrip_and_reject_unknown() {
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ModelKind::from_code(250), None);
    }

    #[test]
    fn smoothing_per_model() {
        assert_eq!(
            ModelConfig::paper_defaults(ModelKind::CdGcn).smoothing(),
            Smoothing::None
        );
        assert!(matches!(
            ModelConfig::paper_defaults(ModelKind::EvolveGcn).smoothing(),
            Smoothing::EdgeLife(_)
        ));
        assert!(matches!(
            ModelConfig::paper_defaults(ModelKind::TmGcn).smoothing(),
            Smoothing::MProduct(_)
        ));
    }
}
