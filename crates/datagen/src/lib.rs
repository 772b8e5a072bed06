//! # astore-datagen
//!
//! Deterministic, in-process data generators for the workloads the A-Store
//! paper evaluates on (§6):
//!
//! - [`ssb`] — the Star Schema Benchmark (schema, generator, and the
//!   13-query catalog Q1.1–Q4.3);
//! - [`tpch`] — a TPC-H subset forming the paper's Fig. 3 snowflake
//!   (lineitem → orders → customer → nation → region) plus part/supplier;
//! - [`tpcds`] — a TPC-DS subset (store_sales + 9 dimensions) reproducing
//!   the Table 2 cardinality ratios;
//! - [`workload`] — the synthetic Workload A/B join microbenchmarks of
//!   Balkesen et al. \[7\].
//!
//! All generators take `(scale_factor, seed)` and are reproducible; foreign
//! keys are emitted directly as array index references, which is how an
//! A-Store deployment would load them (§2). The [`cached`] module memoizes
//! generated databases as on-disk snapshots (generate once, persist,
//! reload).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cached;
pub mod ssb;
pub mod tpcds;
pub mod tpch;
pub mod workload;

/// Reads a scale factor from the `ASTORE_SF` environment variable, falling
/// back to `default_sf`. Used by every benchmark harness so experiments can
/// be re-run at larger scales without recompiling.
pub fn env_scale_factor(default_sf: f64) -> f64 {
    std::env::var("ASTORE_SF")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(default_sf)
}

/// Reads a thread count from `ASTORE_THREADS`, defaulting to the host's
/// cores ([`astore_core::host_cores`]).
pub fn env_threads() -> usize {
    std::env::var("ASTORE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|v| *v > 0)
        .unwrap_or_else(astore_core::host_cores)
}
