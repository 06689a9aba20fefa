//! Named parameter storage shared by the models and the optimizers.
//!
//! Every rank of the distributed trainer holds a replica of the same
//! `ParamStore`; gradient all-reduce operates on the flattened gradient
//! vector exposed by [`ParamStore::grads_flat`].

use dgnn_tensor::Dense;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

struct Entry {
    name: String,
    value: Dense,
    grad: Dense,
}

/// A flat store of named parameter matrices and their gradients.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<Entry>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Registers a parameter with an initial value; returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Dense) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            grad: Dense::zeros(r, c),
            value,
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids of all parameters in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Looks a parameter up by its registered name (checkpoint import).
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(ParamId)
    }

    /// Immutable value.
    pub fn value(&self, id: ParamId) -> &Dense {
        &self.entries[id.0].value
    }

    /// Mutable value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Dense {
        &mut self.entries[id.0].value
    }

    /// Immutable gradient.
    pub fn grad(&self, id: ParamId) -> &Dense {
        &self.entries[id.0].grad
    }

    /// Accumulates `g` into the gradient of `id`.
    pub fn add_grad(&mut self, id: ParamId, g: &Dense) {
        self.entries[id.0].grad.add_assign(g);
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            let (r, c) = e.value.shape();
            e.grad = Dense::zeros(r, c);
        }
    }

    /// Total number of scalar parameters.
    pub fn total_elems(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Flattens all gradients into one vector (all-reduce payload).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total_elems());
        for e in &self.entries {
            out.extend_from_slice(e.grad.data());
        }
        out
    }

    /// Overwrites all gradients from a flat vector produced by
    /// [`ParamStore::grads_flat`] (after an all-reduce).
    pub fn set_grads_from_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.total_elems(),
            "flat gradient length mismatch"
        );
        let mut offset = 0;
        for e in &mut self.entries {
            let n = e.grad.len();
            e.grad.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }

    /// Flattens all values (parameter broadcast payload).
    pub fn values_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total_elems());
        for e in &self.entries {
            out.extend_from_slice(e.value.data());
        }
        out
    }

    /// Overwrites all values from a flat vector.
    pub fn set_values_from_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.total_elems(), "flat value length mismatch");
        let mut offset = 0;
        for e in &mut self.entries {
            let n = e.value.len();
            e.value
                .data_mut()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.add("w", Dense::ones(2, 3));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.value(id).shape(), (2, 3));
        assert_eq!(store.grad(id).sum(), 0.0);
        assert_eq!(store.total_elems(), 6);
    }

    #[test]
    fn id_of_finds_registered_names() {
        let mut store = ParamStore::new();
        let a = store.add("gcn0.w", Dense::zeros(2, 2));
        let b = store.add("gcn0.b", Dense::zeros(1, 2));
        assert_eq!(store.id_of("gcn0.w"), Some(a));
        assert_eq!(store.id_of("gcn0.b"), Some(b));
        assert_eq!(store.id_of("missing"), None);
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut store = ParamStore::new();
        let id = store.add("w", Dense::zeros(1, 2));
        store.add_grad(id, &Dense::ones(1, 2));
        store.add_grad(id, &Dense::ones(1, 2));
        assert_eq!(store.grad(id).sum(), 4.0);
        store.zero_grad();
        assert_eq!(store.grad(id).sum(), 0.0);
    }

    #[test]
    fn flat_roundtrip() {
        let mut store = ParamStore::new();
        let a = store.add("a", Dense::from_vec(1, 2, vec![1.0, 2.0]));
        let b = store.add("b", Dense::from_vec(2, 1, vec![3.0, 4.0]));
        let flat = store.values_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        store.set_values_from_flat(&[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(store.value(a).data(), &[9.0, 8.0]);
        assert_eq!(store.value(b).data(), &[7.0, 6.0]);
        store.add_grad(a, &Dense::ones(1, 2));
        let gflat = store.grads_flat();
        assert_eq!(gflat, vec![1.0, 1.0, 0.0, 0.0]);
        store.set_grads_from_flat(&[0.5; 4]);
        assert_eq!(store.grad(b).data(), &[0.5, 0.5]);
    }
}
