//! Per-device-instance randomness.

use wifiprint_netsim::SimRng;

/// A deterministic random stream for instantiating one device: two
/// instances of the same profile draw different service phases, clock
/// skews and traffic parameters, yet every run with the same seed is
/// identical.
#[derive(Debug, Clone)]
pub struct InstanceRng {
    inner: SimRng,
}

impl InstanceRng {
    /// The stream for device `instance` under `seed`.
    pub fn new(seed: u64, instance: u64) -> Self {
        InstanceRng { inner: SimRng::derive(seed, 0x0D0E_0000 ^ instance) }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.f64()
    }

    /// Uniform integer below `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.inner.below(bound)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.chance(p)
    }

    /// Multiplies `value` by a uniform factor in `[1-spread, 1+spread]`.
    pub fn jitter_factor(&mut self, value: f64, spread: f64) -> f64 {
        value * (1.0 - spread + 2.0 * spread * self.f64())
    }

    /// Picks an index weighted by `weights`.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        self.inner.pick_weighted(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_distinct_and_reproducible() {
        let mut a1 = InstanceRng::new(1, 5);
        let mut a2 = InstanceRng::new(1, 5);
        let mut b = InstanceRng::new(1, 6);
        let xs: Vec<u64> = (0..8).map(|_| a1.below(1000)).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.below(1000)).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.below(1000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn jitter_factor_bounds() {
        let mut r = InstanceRng::new(2, 0);
        for _ in 0..200 {
            let v = r.jitter_factor(100.0, 0.1);
            assert!((90.0..=110.0).contains(&v));
        }
    }
}
