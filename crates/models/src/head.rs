//! Task heads: link prediction by endpoint-embedding concatenation
//! (paper §6.4) and per-vertex classification (paper §2.2).

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamStore, Tape, Var};
use dgnn_graph::EdgeSamples;
use dgnn_tensor::init::glorot_uniform;
use dgnn_tensor::Dense;
use rand::Rng;

/// Link-prediction head: `softmax(concat(z_u, z_v) · U + b)` over `C`
/// classes (the paper uses C = 2: edge / no edge).
pub struct LinkPredHead {
    /// Projection (`2·emb x classes`).
    pub u: ParamId,
    /// Bias (`1 x classes`).
    pub b: ParamId,
    emb: usize,
    classes: usize,
}

/// Per-tape bound variables of a [`LinkPredHead`].
#[derive(Clone, Copy, Debug)]
pub struct LinkPredVars {
    u: Var,
    b: Var,
}

impl LinkPredHead {
    /// Registers the head's parameters for embeddings of width `emb`.
    pub fn new(store: &mut ParamStore, emb: usize, classes: usize, rng: &mut impl Rng) -> Self {
        let u = store.add("head.u", glorot_uniform(2 * emb, classes, rng));
        let b = store.add("head.b", Dense::zeros(1, classes));
        Self { u, b, emb, classes }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Embedding width the head expects (checkpoint-header metadata).
    pub fn emb(&self) -> usize {
        self.emb
    }

    /// Binds the head onto a tape segment.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> LinkPredVars {
        LinkPredVars {
            u: tape.param(store, self.u),
            b: tape.param(store, self.b),
        }
    }

    /// Logits for a sample set against the embedding matrix `z` (`N x emb`).
    pub fn logits(
        &self,
        tape: &mut Tape,
        vars: LinkPredVars,
        z: Var,
        samples: &EdgeSamples,
    ) -> Var {
        assert_eq!(tape.value(z).cols(), self.emb, "embedding width mismatch");
        let zu = tape.gather_rows(z, Rc::new(samples.src.clone()));
        let zv = tape.gather_rows(z, Rc::new(samples.dst.clone()));
        let cat = tape.concat_cols(zu, zv);
        let lin = tape.matmul(cat, vars.u);
        tape.add_bias(lin, vars.b)
    }

    /// Value-level (no-grad) logits for evaluation: the test-set accuracy is
    /// computed from the embeddings of the last training timestep without
    /// touching a tape.
    pub fn predict(&self, store: &ParamStore, z: &Dense, samples: &EdgeSamples) -> Dense {
        link_logits(
            store.value(self.u),
            store.value(self.b),
            z,
            &samples.src,
            &samples.dst,
        )
    }

    /// Mean cross-entropy loss of a sample set.
    pub fn loss(&self, tape: &mut Tape, vars: LinkPredVars, z: Var, samples: &EdgeSamples) -> Var {
        let logits = self.logits(tape, vars, z, samples);
        tape.softmax_cross_entropy(logits, Rc::new(samples.labels.clone()))
    }
}

/// Value-level link logits `concat(z[src], z[dst]) · u + b`, one row per
/// `(src[i], dst[i])` pair: [`LinkPredHead::predict`]'s expression, and the
/// one serving scores links with.
pub fn link_logits(u: &Dense, b: &Dense, z: &Dense, src: &[u32], dst: &[u32]) -> Dense {
    let cat = z.gather_rows(src).concat_cols(&z.gather_rows(dst));
    cat.matmul(u).add_row_broadcast(b)
}

/// Vertex-classification head: `softmax(Z_t · U + b)` with per-vertex
/// integer labels.
pub struct ClassificationHead {
    /// Projection (`emb x classes`).
    pub u: ParamId,
    /// Bias (`1 x classes`).
    pub b: ParamId,
}

/// Per-tape bound variables of a [`ClassificationHead`].
#[derive(Clone, Copy, Debug)]
pub struct ClassificationVars {
    u: Var,
    b: Var,
}

impl ClassificationHead {
    /// Registers the head's parameters.
    pub fn new(store: &mut ParamStore, emb: usize, classes: usize, rng: &mut impl Rng) -> Self {
        let u = store.add("cls.u", glorot_uniform(emb, classes, rng));
        let b = store.add("cls.b", Dense::zeros(1, classes));
        Self { u, b }
    }

    /// Binds the head onto a tape segment.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> ClassificationVars {
        ClassificationVars {
            u: tape.param(store, self.u),
            b: tape.param(store, self.b),
        }
    }

    /// Per-vertex logits `Z·U + b`.
    pub fn logits(&self, tape: &mut Tape, vars: ClassificationVars, z: Var) -> Var {
        let lin = tape.matmul(z, vars.u);
        tape.add_bias(lin, vars.b)
    }

    /// Mean cross-entropy loss over the labelled vertices.
    pub fn loss(
        &self,
        tape: &mut Tape,
        vars: ClassificationVars,
        z: Var,
        labels: Rc<Vec<u32>>,
    ) -> Var {
        let logits = self.logits(tape, vars, z);
        tape.softmax_cross_entropy(logits, labels)
    }
}

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Dense, labels: &[u32]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "logits/labels mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if pred == label as usize {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_autograd::gradcheck::check_param_grads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples() -> EdgeSamples {
        EdgeSamples {
            src: vec![0, 1, 2, 3],
            dst: vec![1, 2, 3, 0],
            labels: vec![1, 1, 0, 0],
        }
    }

    #[test]
    fn logits_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let head = LinkPredHead::new(&mut store, 3, 2, &mut rng);
        let mut tape = Tape::new();
        let vars = head.bind(&mut tape, &store);
        let z = tape.constant(glorot_uniform(5, 3, &mut rng));
        let logits = head.logits(&mut tape, vars, z, &samples());
        assert_eq!(tape.value(logits).shape(), (4, 2));
    }

    #[test]
    fn loss_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let head = LinkPredHead::new(&mut store, 3, 2, &mut rng);
        let z_val = glorot_uniform(5, 3, &mut rng);
        let s = samples();
        check_param_grads(
            &mut store,
            |tape, store| {
                let vars = head.bind(tape, store);
                let z = tape.constant(z_val.clone());
                head.loss(tape, vars, z, &s)
            },
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn classification_loss_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let head = ClassificationHead::new(&mut store, 4, 3, &mut rng);
        let mut tape = Tape::new();
        let vars = head.bind(&mut tape, &store);
        let z = tape.constant(glorot_uniform(6, 4, &mut rng));
        let loss = head.loss(&mut tape, vars, z, Rc::new(vec![0, 1, 2, 0, 1, 2]));
        assert!(tape.value(loss).get(0, 0) > 0.0);
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Dense::from_vec(3, 2, vec![2.0, 1.0, 0.0, 3.0, 1.0, 0.5]);
        let acc = accuracy(&logits, &[0, 1, 0]);
        assert!((acc - 1.0).abs() < 1e-9);
        let acc = accuracy(&logits, &[1, 1, 0]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-9);
    }
}
