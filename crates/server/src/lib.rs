//! # astore-server
//!
//! A concurrent TCP query-serving subsystem over the A-Store engine
//! (conf_icde_ZhangZZZSW16): SPJGA queries over star/snowflake schemas,
//! executed join-free against copy-on-write snapshots while writers
//! proceed through [`SharedDatabase::write`](astore_storage::snapshot::SharedDatabase::write).
//!
//! ## Wire protocol
//!
//! Newline-delimited JSON over TCP. One request frame per line, one
//! response frame per line, strictly in order per connection:
//!
//! ```text
//! → {"sql":"SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"}
//! ← {"ok":true,"columns":["d_year","rev"],"rows":[[1992,…],…],"row_count":7,"cached_plan":false,"elapsed_us":184}
//! → {"sql":"INSERT INTO lineorder VALUES (…)"}
//! ← {"ok":true,"rows_affected":1,"elapsed_us":12}
//! → {"cmd":"stats"}
//! ← {"ok":true,"stats":{"queries":…,"cache_hit_rate":…,"latency_p99_us":…,…}}
//! → {"sql":"SELEKT"}
//! ← {"ok":false,"code":"parse_error","error":"parse error: …"}
//! ```
//!
//! **Protocol v2 — prepare/execute.** A statement is parsed and planned
//! once per session, then executed many times by binding parameters
//! (`?` / `$n` placeholders) — the hot path never re-parses SQL text:
//!
//! ```text
//! → {"prepare":"SELECT sum(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = ?"}
//! ← {"ok":true,"stmt_id":1,"param_count":1,"kind":"select","columns":["rev"],"column_types":["float"]}
//! → {"execute":{"id":1,"params":[1993]}}
//! ← {"ok":true,"columns":["rev"],"rows":[[…]],"row_count":1,"cached_plan":true,"elapsed_us":97}
//! → {"close":1}
//! ← {"ok":true,"closed":true}
//! ```
//!
//! Prepared statements are per-session, capped (FIFO eviction) by the
//! [`StatementRegistry`]; the *plans* behind them live in the shared
//! [`PlanCache`], keyed by canonical statement template, which text-mode
//! queries share via auto-parameterization — `d_year = 1993` and
//! `d_year = 1997` are one plan.
//!
//! **Observability.** `EXPLAIN ANALYZE <select>` runs the statement with a
//! span recorder attached and returns the usual result frame plus an
//! `analyze` member (the executed plan annotated with per-phase times,
//! morsel spans and per-segment prune decisions). `{"cmd":"metrics"}`
//! returns a Prometheus text-format scrape body — all server counters,
//! the global latency histogram, and one labeled histogram per canonical
//! statement template. A metric is one row of [`stats::METRICS`] (key,
//! family, kind, help, owner); `{"cmd":"stats"}` and `{"cmd":"metrics"}`
//! are both rendered from that table. `{"cmd":"slowlog"}` returns the
//! bounded ring of statements slower than the `--slow-ms` threshold,
//! newest first:
//!
//! ```text
//! → {"sql":"EXPLAIN ANALYZE SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"}
//! ← {"ok":true,"rows":[…],"analyze":["root: lineorder  executor: serial","phases: leaf=…us scan=…us agg=…us total=…us",…],…}
//! → {"cmd":"metrics"}
//! ← {"ok":true,"metrics":"# HELP astore_server_queries_total …"}
//! → {"cmd":"slowlog"}
//! ← {"ok":true,"slowlog":{"threshold_ms":100,"entries":[{"template":…,"elapsed_us":…,"ago_s":…}]}}
//! ```
//!
//! Error codes: `bad_request`, `parse_error`, `plan_error`, `exec_error`,
//! `write_error`, `unknown_statement` (execute of an unprepared/evicted
//! id), `param_error` (wrong parameter count or kind), `server_busy`
//! (admission control shed the request), `too_many_connections`,
//! `internal_error`.
//!
//! ## Architecture
//!
//! The `--workers` serving threads share one epoll reactor (nonblocking
//! accepts, incremental framing, pipelining, write-buffer backpressure):
//! the thread a connection's readiness reaches parses and classifies the
//! request and runs it itself, unless its class must wait in a
//! strict-priority queue — metadata and writes never wait behind queued
//! scans, and while every serving thread is busy a frame waits for at most
//! the statement each one is running, pipelined batches included
//! ([`server`], [`front`]). Each statement then runs through the
//! [`engine`]'s stages, one function each:
//!
//! ```text
//! TcpListener ── serving threads (epoll, one-shot) ── run at once, or
//!                                            │ bounded class queues
//!                                            │ (shed, don't stall)
//!                                            ▼
//!   Engine: parse → plan (PlanCache: canonical template → Arc<Prepared>)
//!             → bind ─┬─ SELECT: execute on AIR against
//!                     │    SharedDatabase::snapshot(), fan-out threads
//!                     │    granted by the shared CoreBudget → reply
//!                     └─ INSERT/UPDATE/DELETE: stage → group commit
//!                          (validate, apply, WAL + fsync, publish)
//!                                            ▼
//!   ServerStats: counters + streaming latency histograms (p50/p99),
//!   declared with every other metric as one row of stats::METRICS
//! ```
//!
//! AIR answers every SELECT: its join-free scan over array-index
//! references needs neither a hash join nor a materialized wide table, and
//! measured side by side it beats both on every SSB query (README, "One
//! served engine"). The server therefore carries no other engine and does
//! not depend on `astore-baseline`; `SET engine = air` and `SET engine =
//! auto` are accepted and change nothing, and any other engine is a
//! `plan_error`.
//!
//! Intra-query parallelism (`--engine-threads`, by default the host's
//! cores) and the serving threads share one [`CoreBudget`] sized to the
//! machine's cores: each executing statement holds a baseline permit, and
//! a query fans out only over the cores nobody else is using — the two
//! concurrency layers compose instead of multiplying.
//!
//! Binaries: `astore-serve` (the server) and `loadgen` (a load-generator
//! client that prints a JSON throughput/latency summary).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod client;
pub mod engine;
pub mod front;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod sched;
pub mod server;
pub mod session;
pub mod stats;

pub use budget::CoreBudget;
pub use cache::PlanCache;
pub use client::{Client, ClientError};
pub use engine::{Answer, Durability, Engine, EngineError, ErrorCode, Executed};
pub use front::EngineService;
pub use metrics::{SlowLog, TemplateStats};
pub use sched::Priority;
pub use server::{start, ServerConfig, ServerHandle};
pub use session::{SessionStatement, StatementRegistry};
pub use stats::ServerStats;

/// The rule for which statements the denormalized wide table can answer
/// column by column, under the path it had while the server still routed
/// statements to that table; it lives in
/// [`astore_core::query::query_rewritable`].
pub mod router {
    pub use astore_core::query::query_rewritable;
}
