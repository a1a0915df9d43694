//! Host-speed probe. The benchmark's hosts share cores, caches and memory
//! with other tenants, and their speed drifts by a third over minutes —
//! more than any bound a regression gate can use. Before every timed pass and
//! every set-up the benchmark times this fixed kernel, which runs none of
//! the repository's code, and reports end-to-end times scaled to the
//! probe's time on the reference host: `time × REFERENCE_NS / probe`.
//! A change to the code under test cannot move the probe; a slower or
//! busier host moves both, and the ratio cancels it.

use std::hint::black_box;
use std::time::Instant;

/// The probe's typical time on the host the bounds were set on (a 2-vCPU
/// x86-64 guest), in nanoseconds. Only the ratio matters: on another
/// host the reported numbers are in that host's probe units.
pub const REFERENCE_NS: f64 = 20.0e6;

/// The probe's buffers, allocated once per run.
pub struct Probe {
    template: Vec<u64>,
    work: Vec<u64>,
    /// 32 MiB of pseudo-random words: larger than the last-level cache.
    memory: Vec<u64>,
}

/// Dependent random reads per probe: each address comes from the
/// previous load, so they measure memory latency, not bandwidth.
const CHASE_STEPS: usize = 60_000;

impl Probe {
    pub fn new() -> Self {
        let template: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3))
            .collect();
        let work = template.clone();
        let memory: Vec<u64> = (0..(4u64 << 20))
            .map(|i| i.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17))
            .collect();
        Probe {
            template,
            work,
            memory,
        }
    }

    /// Times one probe after an untimed warm-up round (which also
    /// evicts whatever the last pass left in the caches): a sort
    /// (branches, cache), a dependent random walk over `memory`
    /// (latency) and a sequential read of it (bandwidth). Nanoseconds.
    pub fn run(&mut self) -> f64 {
        self.round();
        let t = Instant::now();
        self.round();
        t.elapsed().as_nanos() as f64
    }

    fn round(&mut self) {
        self.work.copy_from_slice(&self.template);
        self.work.sort_unstable();
        let len = self.memory.len() as u64;
        let mut at = self.work[CHASE_STEPS % self.work.len()];
        for _ in 0..CHASE_STEPS {
            at = self.memory[(at % len) as usize] ^ at.rotate_left(7);
        }
        let sum = self.memory.iter().fold(0u64, |acc, &x| acc.wrapping_add(x));
        black_box((at, sum));
    }

    /// Scale from a measured time to reference-host time, given the probe
    /// time taken next to it.
    pub fn scale(probe_ns: f64) -> f64 {
        REFERENCE_NS / probe_ns
    }
}
