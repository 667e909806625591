//! [`ExecConfig`] — knobs for the parallel query executor.
//!
//! Lives in `rased-core` next to [`crate::ServerConfig`] for the same
//! reason: every front end (CLI `query`, dashboard `serve`, tests, the
//! bench harness) should share one vocabulary for "how parallel may a
//! single query be".

/// Configuration for query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads one query's plan is partitioned over. `0` means "one
    /// per available core" (`std::thread::available_parallelism`); `1`
    /// (the default) keeps the executor sequential. Results are
    /// byte-identical at any setting — threads only change latency.
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig { threads: 1 }
    }
}

impl ExecConfig {
    /// The effective per-query worker count: `threads`, or the machine's
    /// available parallelism (minimum 1) when `threads == 0`.
    pub(crate) fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(ExecConfig::default().effective_threads(), 1);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let c = ExecConfig { threads: 0 };
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(ExecConfig { threads: 7 }.effective_threads(), 7);
    }
}
