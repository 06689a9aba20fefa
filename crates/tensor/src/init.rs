//! Weight-initialisation helpers (Glorot/Xavier and friends).

use crate::dense::Dense;
use rand::Rng;

/// Glorot/Xavier uniform initialisation: entries drawn from
/// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub fn glorot_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Dense {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    Dense::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = glorot_uniform(16, 8, &mut rng);
        let limit = (6.0 / 24.0f32).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn glorot_deterministic_under_seed() {
        let a = glorot_uniform(4, 4, &mut StdRng::seed_from_u64(1));
        let b = glorot_uniform(4, 4, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }
}
