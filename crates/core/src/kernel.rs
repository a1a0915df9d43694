//! Provenance of the matching arithmetic, kept for the benchmark harness.
//!
//! The matching sweep in [`matching`](crate::matching) stores reference
//! rows bin-major and accumulates a candidate's few nonzero bins column by
//! column, in plain safe slice loops that the compiler auto-vectorises. No
//! kernel is selected at run time, so scores do not depend on the host's
//! instruction set. The end-to-end benchmark still records which kernel
//! ran ([`active`], [`active_int`]); both name the one portable path.

/// Which dot arithmetic the matching sweep runs. Kept for the benchmark
/// harness, which records it as host provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Safe slice loops, auto-vectorised for the compile target.
    Portable,
}

impl KernelKind {
    /// A short stable name for logs and bench snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Portable => "portable",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `f32` tier's arithmetic. Kept for the benchmark harness.
pub fn active() -> KernelKind {
    KernelKind::Portable
}

/// The `u8` tier's arithmetic. Kept for the benchmark harness.
pub fn active_int() -> KernelKind {
    KernelKind::Portable
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_int_kernel_has_a_name() {
        assert_eq!(active_int().as_str(), "portable");
    }

    #[test]
    fn active_kernel_has_a_name() {
        assert_eq!(active().to_string(), "portable");
    }
}
