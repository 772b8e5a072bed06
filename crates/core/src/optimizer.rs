//! The (small) optimizer: the two decisions the paper gives it (§4.2, §4.3)
//! plus the fan-out heuristic the multicore integration (§5) needs.
//!
//! 1. *Predicate vectors*: "An optimizer is used to decide whether to use
//!    predicate vectors, according to the row number of each table" — use a
//!    chain's composed filter only if it fits the configured cache budget.
//! 2. *Aggregation strategy*: "The optimizer of A-Store is responsible for
//!    estimating the sparsity of aggregation arrays and deciding whether to
//!    use array based or hash based aggregation."
//! 3. *Fan-out*: whether a scan is big enough to amortize waking worker
//!    threads at all, and how many are useful for its row count. Small
//!    queries stay serial even when the caller requests parallelism.

use astore_storage::segment::SEGMENT_ROWS;

/// How grouped aggregates are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// The dense multidimensional aggregation array (§4.3).
    DenseArray,
    /// Hash-table fallback for sparse/huge group spaces.
    HashTable,
}

/// Tunables for the optimizer.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Maximum predicate-vector size, in bytes, for a chain filter to be
    /// considered cache-resident (paper §4.2 discusses LLC-sized vectors;
    /// default 16 MiB ≈ a conservative slice of a server LLC).
    pub cache_budget_bytes: usize,
    /// Maximum number of cells the dense aggregation array may have.
    pub agg_array_max_cells: usize,
    /// Minimum fact-table rows per worker thread before a query fans out.
    /// Below this the executor stays serial regardless of the requested
    /// thread count. The count compared against is *post-prune*
    /// live rows, so a selective query over a huge table still stays
    /// serial when zone maps leave little to scan. The default — two full
    /// segments (131 072 rows) per worker — keeps a server's short
    /// statements on their own core. Measured at SF 0.2 on a 2-vCPU host:
    /// with one segment per worker, the day- and month-keyed statements whose
    /// rows straddle a segment boundary fan out (11 % of the benchmark's
    /// `serve-mix` statements). Alone in-process, such a statement gains
    /// only a few microseconds (21.0 → 16–18 µs). When it is served beside
    /// another connection, the gain does not show: the p50 read 0.27–0.31
    /// ms at either quota. The SSB flight fans out the same ten of its 13
    /// queries at either quota (3.8–4.0 ms per in-process sweep at two
    /// threads against 6.7–7.1 ms serial).
    pub parallel_min_rows_per_thread: usize,
    /// Upper bound the *host* puts on per-query fan-out. Worker threads
    /// beyond the machine's available parallelism only timeslice one
    /// another — they add spawn and merge overhead while scanning zero
    /// extra rows concurrently (BENCH_parallel.json measured 0.85× at 8
    /// threads on a 1-core runner before this clamp). `0` (the default)
    /// reads the host's cores ([`crate::host_cores`]); any other value
    /// pretends the host has that many — tests that need deterministic
    /// fan-out regardless of the machine set it.
    pub host_threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            cache_budget_bytes: 16 << 20,
            agg_array_max_cells: 1 << 22,
            parallel_min_rows_per_thread: 2 * SEGMENT_ROWS,
            host_threads: 0,
        }
    }
}

impl OptimizerConfig {
    /// Decides whether a chain filter over a first-level dimension of
    /// `dim_rows` rows should be materialized as a predicate vector.
    pub fn use_predicate_vector(&self, dim_rows: usize) -> bool {
        // One bit per dimension slot.
        dim_rows.div_ceil(8) <= self.cache_budget_bytes
    }

    /// Decides the aggregation strategy given the per-dimension group
    /// dictionary sizes (radices): the dense array, unless its cell count
    /// overflows or passes [`OptimizerConfig::agg_array_max_cells`].
    pub fn agg_strategy(&self, radices: &[u32]) -> AggStrategy {
        let Some(cells) = radices.iter().try_fold(1usize, |acc, &r| acc.checked_mul(r as usize))
        else {
            return AggStrategy::HashTable;
        };
        if cells > self.agg_array_max_cells {
            AggStrategy::HashTable
        } else {
            AggStrategy::DenseArray
        }
    }

    /// Decides how many worker threads a scan of `n_rows` fact rows should
    /// actually use, given the caller requested `requested`. Returns 1
    /// (serial) when the scan is too small to amortize fan-out; otherwise
    /// the requested count clamped so every worker sees at least
    /// [`OptimizerConfig::parallel_min_rows_per_thread`] rows.
    ///
    /// `n_rows` is the *effective* scan size: the executor passes the live
    /// row count of the segments surviving zone-map pruning, so a selective
    /// query that skips most of the fact table does not spawn workers for
    /// rows it will never visit. The request is first clamped to
    /// [`OptimizerConfig::host_threads`] — fan-out past the machine's
    /// physical parallelism is pure overhead.
    pub fn plan_threads(&self, n_rows: usize, requested: usize) -> usize {
        let host = if self.host_threads == 0 { crate::host_cores() } else { self.host_threads };
        let requested = requested.min(host.max(1));
        if requested <= 1 {
            return 1;
        }
        let per = self.parallel_min_rows_per_thread.max(1);
        requested.min(n_rows / per).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_vector_budget() {
        let cfg = OptimizerConfig { cache_budget_bytes: 1024, ..Default::default() };
        assert!(cfg.use_predicate_vector(8 * 1024)); // exactly 1 KiB of bits
        assert!(!cfg.use_predicate_vector(8 * 1024 + 1));
        assert!(cfg.use_predicate_vector(0));
    }

    #[test]
    fn agg_strategy_cell_cap() {
        let cfg = OptimizerConfig { agg_array_max_cells: 1000, ..Default::default() };
        assert_eq!(cfg.agg_strategy(&[10, 10]), AggStrategy::DenseArray);
        assert_eq!(cfg.agg_strategy(&[10, 10, 10]), AggStrategy::DenseArray);
        assert_eq!(cfg.agg_strategy(&[10, 101]), AggStrategy::HashTable);
        assert_eq!(cfg.agg_strategy(&[]), AggStrategy::DenseArray);
    }

    #[test]
    fn agg_strategy_overflow_is_hash() {
        let cfg = OptimizerConfig::default();
        assert_eq!(cfg.agg_strategy(&[u32::MAX, u32::MAX, u32::MAX]), AggStrategy::HashTable);
    }

    #[test]
    fn plan_threads_clamps_small_scans_to_serial() {
        // One segment (65536 rows) per worker; host_threads pinned so the
        // expectations hold on any machine (including 1-core CI).
        let cfg = OptimizerConfig {
            host_threads: 64,
            parallel_min_rows_per_thread: SEGMENT_ROWS,
            ..OptimizerConfig::default()
        };
        assert_eq!(cfg.plan_threads(100, 8), 1, "tiny scan stays serial");
        assert_eq!(cfg.plan_threads(65535, 4), 1, "just under one worker's quota");
        assert_eq!(cfg.plan_threads(2 << 16, 4), 2, "two workers' worth of rows");
        assert_eq!(cfg.plan_threads(1 << 20, 4), 4, "big scan gets everything");
        assert_eq!(cfg.plan_threads(1 << 20, 1), 1, "serial request is serial");
        assert_eq!(cfg.plan_threads(0, 8), 1, "empty table");
        let loose = OptimizerConfig { parallel_min_rows_per_thread: 1, ..cfg };
        assert_eq!(loose.plan_threads(3, 8), 3, "threshold 1 still caps at one row per worker");
    }

    #[test]
    fn default_quota_is_two_segments_per_worker() {
        let cfg = OptimizerConfig { host_threads: 64, ..OptimizerConfig::default() };
        assert_eq!(cfg.plan_threads(2 * SEGMENT_ROWS, 2), 1, "two segments stay serial");
        assert_eq!(cfg.plan_threads(4 * SEGMENT_ROWS - 1, 2), 1, "just under two workers' quota");
        assert_eq!(cfg.plan_threads(4 * SEGMENT_ROWS, 4), 2, "four segments feed two workers");
        assert_eq!(cfg.plan_threads(8 * SEGMENT_ROWS, 8), 4, "eight segments feed four");
    }

    #[test]
    fn plan_threads_never_exceeds_host_parallelism() {
        let one_core = OptimizerConfig { host_threads: 1, ..OptimizerConfig::default() };
        assert_eq!(one_core.plan_threads(1 << 24, 8), 1, "1-core host never fans out");
        let two_core = OptimizerConfig { host_threads: 2, ..OptimizerConfig::default() };
        assert_eq!(two_core.plan_threads(1 << 24, 8), 2, "request clamps to the cores");
        // host_threads = 0 reads the host's cached core count: a big
        // enough scan fans out to exactly that many workers.
        let auto = OptimizerConfig::default();
        let host = crate::host_cores();
        assert!(host >= 1);
        assert_eq!(auto.plan_threads(1 << 24, 64), host.min(64));
    }

    #[test]
    fn default_budget_accommodates_common_dimensions() {
        let cfg = OptimizerConfig::default();
        // SSB SF100 customer: 3M rows -> 375 KB of bits, well within 16 MiB.
        assert!(cfg.use_predicate_vector(3_000_000));
        // A 600M-row "dimension" (a fact-sized table) would not fit 16 MiB.
        assert!(!cfg.use_predicate_vector(600_000_000));
    }
}
