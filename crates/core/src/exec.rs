//! The query execution engine (paper §3–§4): the three-phase universal-table
//! scan with the paper's five ablation variants.
//!
//! | Variant | scan | predicate vectors | array aggregation |
//! |---|---|---|---|
//! | `AIRScan_R`     | row-wise    | no  | no (hash) |
//! | `AIRScan_R_P`   | row-wise    | yes | no (hash) |
//! | `AIRScan_C`     | column-wise | no  | no (hash) |
//! | `AIRScan_C_P`   | column-wise | yes | no (hash) |
//! | `AIRScan_C_P_G` | column-wise | yes | yes       |
//!
//! Every execution runs the same three phases and reports per-phase wall
//! time (the Fig. 10 breakdown):
//!
//! 1. **Leaf processing** — evaluate dimension predicates into predicate
//!    vectors, compose snowflake chains, build group vectors;
//! 2. **Fact scan** — evaluate fact-local predicates and probe the chains
//!    to produce the selection vector, then identify each surviving tuple's
//!    aggregation cell (the Measure Index);
//! 3. **Aggregation** — scan the measure columns through the Measure Index
//!    into the multidimensional aggregation array (or hash table).

use std::sync::Arc;
use std::time::{Duration, Instant};

use astore_obs::{SpanId, TraceBuf};
use astore_storage::bitmap::{Bitmap, SegBitmap};
use astore_storage::catalog::Database;
use astore_storage::chunks::Chunked;
use astore_storage::selvec::SelVec;
use astore_storage::types::{Key, RowId, Value, NULL_KEY};

use crate::agg::{AggTable, Grouper};
use crate::filter::{build_chain_filter, participating_chains, ChainSpec, FactPred};
use crate::graph::JoinGraph;
use crate::groupvec::{build_group_vector, label_at, DictRef, FactGrouper, GroupDict, GroupVector};
use crate::optimizer::{AggStrategy, OptimizerConfig};
use crate::query::{AggFunc, Query};
use crate::result::QueryResult;
use crate::scan::{
    segment_runs, select_bitmap_and, select_columnwise, select_rowwise, ChainCheck, DirectCheck,
};
use crate::universal::{bind_root, BindError, Universal};
use crate::zone::{SegmentPruner, SegmentSurvey};

/// The five scan variants of the paper's §6.3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanVariant {
    /// `AIRScan_R`: row-wise scan, no predicate vectors, hash aggregation.
    RowWise,
    /// `AIRScan_R_P`: row-wise scan with predicate vectors.
    RowWisePredVec,
    /// `AIRScan_C`: column-wise vector scan, no predicate vectors.
    ColumnWise,
    /// `AIRScan_C_P`: column-wise scan with predicate vectors.
    ColumnWisePredVec,
    /// `AIRScan_C_P_G`: the full system — column-wise scan, predicate
    /// vectors, and array-based column-wise aggregation.
    Full,
}

impl ScanVariant {
    /// All variants, in the paper's Table 6 order.
    pub const ALL: [ScanVariant; 5] = [
        ScanVariant::RowWise,
        ScanVariant::RowWisePredVec,
        ScanVariant::ColumnWise,
        ScanVariant::ColumnWisePredVec,
        ScanVariant::Full,
    ];

    /// The paper's name for the variant.
    pub fn paper_name(&self) -> &'static str {
        match self {
            ScanVariant::RowWise => "AIRScan_R",
            ScanVariant::RowWisePredVec => "AIRScan_R_P",
            ScanVariant::ColumnWise => "AIRScan_C",
            ScanVariant::ColumnWisePredVec => "AIRScan_C_P",
            ScanVariant::Full => "AIRScan_C_P_G",
        }
    }

    /// Column-wise selection-vector scan?
    pub fn column_wise(&self) -> bool {
        !matches!(self, ScanVariant::RowWise | ScanVariant::RowWisePredVec)
    }

    /// Pre-built predicate vectors?
    pub fn use_predvec(&self) -> bool {
        matches!(
            self,
            ScanVariant::RowWisePredVec | ScanVariant::ColumnWisePredVec | ScanVariant::Full
        )
    }

    /// Group vectors + dense aggregation array?
    pub fn array_agg(&self) -> bool {
        matches!(self, ScanVariant::Full)
    }
}

/// How the column-wise variants materialize the selection (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// A-Store's selection vector, refined predicate by predicate so later
    /// predicates skip already-failed tuples (the default).
    #[default]
    VectorRefine,
    /// The conventional alternative the paper argues against: each
    /// predicate scans its whole column into a bitmap, bitmaps are ANDed.
    /// Kept as an ablation comparator.
    BitmapAnd,
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Scan variant (default: the full system).
    pub variant: ScanVariant,
    /// Requested worker threads (1 = serial). This is a *request*: the
    /// planner clamps the fan-out so small scans stay serial (see
    /// [`OptimizerConfig::plan_threads`]); [`PlanInfo::executor`] reports
    /// what actually ran.
    pub threads: usize,
    /// Maximum rows per morsel handed to a worker by the morsel dispatcher
    /// (§5). The dispatcher shrinks morsels below this cap on small tables
    /// so every worker still sees several morsels.
    pub morsel_rows: usize,
    /// Optimizer tunables.
    pub optimizer: OptimizerConfig,
    /// Overrides the optimizer's aggregation-strategy decision.
    pub force_agg: Option<AggStrategy>,
    /// Selection materialization for column-wise variants.
    pub selection: SelectionStrategy,
    /// Zone-map data skipping: consult per-segment statistics to skip whole
    /// fact-table segments before evaluating predicates (default on).
    /// Disabling it reproduces the pre-segmentation flat scan — the
    /// ablation baseline of the `scan_pruning` bench and differential.
    pub pruning: bool,
    /// Encoded-segment scans: let seedable fact predicates run directly on
    /// sealed segments' compressed form (bit-packed / RLE kernels) instead
    /// of the flat arrays (default on). Disabling reproduces the flat
    /// columnar scan on identical data — the compression ablation of the
    /// encoded differential.
    pub encoded: bool,
    /// Span buffer for this execution (`None` = tracing off). When set, the
    /// executor records one span per phase — bind, leaf processing,
    /// optimize (with per-segment prune-decision events), fact scan (with
    /// per-morsel spans under the parallel executor), aggregation/merge —
    /// all parented under a root `execute` span. When `None`, the
    /// instrumentation reduces to an `Option` branch per phase.
    pub trace: Option<Arc<TraceBuf>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            variant: ScanVariant::Full,
            threads: 1,
            morsel_rows: crate::parallel::DEFAULT_MORSEL_ROWS,
            optimizer: OptimizerConfig::default(),
            force_agg: None,
            selection: SelectionStrategy::default(),
            pruning: true,
            encoded: true,
            trace: None,
        }
    }
}

impl ExecOptions {
    /// Options for a specific variant, defaults otherwise.
    pub fn with_variant(variant: ScanVariant) -> Self {
        ExecOptions { variant, ..Default::default() }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the morsel-size cap (rows per dispatched morsel).
    pub fn morsel_rows(mut self, n: usize) -> Self {
        self.morsel_rows = n.max(1);
        self
    }

    /// Enables or disables zone-map segment skipping.
    pub fn pruning(mut self, on: bool) -> Self {
        self.pruning = on;
        self
    }

    /// Enables or disables predicate evaluation on encoded segments.
    pub fn encoded(mut self, on: bool) -> Self {
        self.encoded = on;
        self
    }

    /// Attaches a span buffer; the execution records per-phase spans into
    /// it.
    pub fn trace(mut self, buf: Arc<TraceBuf>) -> Self {
        self.trace = Some(buf);
        self
    }
}

/// Wall-clock time per execution phase (the Fig. 10 breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: leaf-table processing (predicate vectors + group vectors).
    pub leaf: Duration,
    /// Phase 2: fact scan — selection and Measure Index generation.
    pub scan: Duration,
    /// Phase 3: measure-column aggregation.
    pub agg: Duration,
    /// End-to-end, including binding and result assembly.
    pub total: Duration,
}

/// Which executor actually ran a query.
///
/// [`ExecOptions::threads`] is a request, not a promise: the planner keeps
/// small scans serial and clamps the fan-out to the row count, and a server
/// core budget may have granted fewer threads than configured. Benches and
/// tests assert on this instead of trusting the request — a silent serial
/// fallback is a measurement bug waiting to happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorInfo {
    /// Single-threaded three-phase execution.
    Serial {
        /// Threads the caller requested (`> 1` means the planner clamped
        /// the fan-out back to serial).
        requested_threads: usize,
    },
    /// Morsel-driven parallel execution (§5).
    Parallel {
        /// Worker threads actually spawned.
        threads: usize,
        /// Threads the caller requested.
        requested_threads: usize,
        /// Morsels the shared dispatcher handed out.
        morsels: usize,
        /// Rows per morsel (the last morsel may be shorter).
        morsel_rows: usize,
    },
}

impl ExecutorInfo {
    /// Did the morsel-driven parallel executor run?
    pub fn is_parallel(&self) -> bool {
        matches!(self, ExecutorInfo::Parallel { .. })
    }

    /// Worker threads that actually executed the scan.
    pub fn threads(&self) -> usize {
        match self {
            ExecutorInfo::Serial { .. } => 1,
            ExecutorInfo::Parallel { threads, .. } => *threads,
        }
    }
}

impl std::fmt::Display for ExecutorInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorInfo::Serial { requested_threads: 1 } => write!(f, "serial"),
            ExecutorInfo::Serial { requested_threads } => {
                write!(f, "serial (clamped from {requested_threads} requested)")
            }
            ExecutorInfo::Parallel { threads, morsels, morsel_rows, .. } => {
                write!(f, "parallel ({threads} threads, {morsels} morsels x {morsel_rows} rows)")
            }
        }
    }
}

/// What the optimizer decided and what the scan saw — for tests, harnesses
/// and EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct PlanInfo {
    /// The bound root (fact) table.
    pub root: String,
    /// The executor that actually ran (serial vs morsel-driven parallel).
    pub executor: ExecutorInfo,
    /// Chains probed via predicate vectors.
    pub predvec_chains: usize,
    /// Chains evaluated by direct AIR chasing.
    pub direct_chains: usize,
    /// The aggregation strategy used.
    pub agg_strategy: AggStrategy,
    /// Fact-table segments the scan actually visited.
    pub segments_scanned: usize,
    /// Fact-table segments skipped whole by zone-map pruning (their
    /// columns were never touched).
    pub segments_pruned: usize,
    /// Tuples surviving selection.
    pub selected_rows: usize,
    /// Non-empty groups produced.
    pub groups: usize,
}

/// A completed execution.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The result rows.
    pub result: QueryResult,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Plan diagnostics.
    pub plan: PlanInfo,
}

/// Executes a SPJGA query against a database.
///
/// This is the primary entry point of A-Store. The query is bound once and
/// phase 1 (leaf processing) runs once; its composed chain filters feed the
/// [`SegmentPruner`], whose surviving-row estimate drives the planner's
/// fan-out decision ([`OptimizerConfig::plan_threads`]): with
/// `opts.threads > 1` *and* enough surviving rows to amortize worker spawn,
/// the scan is driven by the segment-aligned morsel dispatcher (§5);
/// otherwise execution is serial. [`PlanInfo::executor`] reports which path
/// ran, and [`PlanInfo::segments_pruned`] how much of the fact table was
/// never touched.
pub fn execute(db: &Database, query: &Query, opts: &ExecOptions) -> Result<ExecOutput, BindError> {
    let t_start = Instant::now();
    let trace = opts.trace.as_deref();
    // The root span id is reserved up front so every phase span can link to
    // it; its interval is recorded last, once the total is known.
    let root_span = trace.map(|t| t.alloc());
    if query.has_params() {
        return Err(BindError::UnboundParams(query.param_count()));
    }
    let graph = JoinGraph::build(db);
    let root = bind_root(&graph, query.root.as_deref(), &query.referenced_tables())?;
    let u = Universal::new(db, &graph, &root)?;
    if let Some(t) = trace {
        let start = t.us_since_epoch(t_start);
        t.add("bind", root_span, start, t.now_us().saturating_sub(start), vec![]);
    }

    // Phase 1 (leaf processing) is shared by both executors; it runs before
    // the fan-out decision so the pruner can use the chain filters.
    let t_leaf = Instant::now();
    let leaf = prepare_leaf(&u, query, opts)?;
    let leaf_time = t_leaf.elapsed();
    if let Some(t) = trace {
        t.add(
            "phase1_leaf",
            root_span,
            t.us_since_epoch(t_leaf),
            leaf_time.as_micros() as u64,
            vec![
                ("chains", leaf.chains.len() as i64),
                ("predvec_chains", leaf.filters.iter().filter(|f| f.is_some()).count() as i64),
            ],
        );
    }
    // The per-segment admission tests run exactly once, into a survey that
    // the fan-out decision, the serial scan and the parallel dispatcher all
    // share.
    let t_opt = Instant::now();
    let survey = build_pruner(&u, query, &leaf, opts).map(|p| p.survey());

    // The fan-out decision sees what the scan will actually visit: live
    // rows of the surviving segments, not raw slots (with pruning disabled,
    // the pre-segmentation behaviour — raw slot count — is preserved).
    let est_rows = match &survey {
        Some(s) => s.live_rows(),
        None => u.root_table().num_slots(),
    };
    let threads = opts.optimizer.plan_threads(est_rows, opts.threads);
    if let Some(t) = trace {
        let opt_span = t.alloc();
        // One point event per segment decision, nested under `optimize` —
        // the EXPLAIN ANALYZE rendering of "which segments were skipped".
        if let Some(s) = &survey {
            for seg in 0..u.root_table().segment_count() {
                t.event(
                    "segment_prune",
                    Some(opt_span),
                    vec![("segment", seg as i64), ("kept", i64::from(s.keep(seg)))],
                );
            }
        }
        let start = t.us_since_epoch(t_opt);
        t.record(
            opt_span,
            "optimize",
            root_span,
            start,
            t.now_us().saturating_sub(start),
            vec![("est_rows", est_rows as i64), ("threads", threads as i64)],
        );
    }
    if threads > 1 {
        crate::parallel::execute_parallel(
            &u,
            query,
            opts,
            threads,
            &leaf,
            leaf_time,
            survey.as_ref(),
            t_start,
            root_span,
        )
    } else {
        execute_serial(&u, query, opts, &leaf, leaf_time, survey.as_ref(), t_start, root_span)
    }
}

/// Builds the segment pruner for an execution: fact-local zone predicates
/// plus a key-range test per materialized chain filter. `None` when data
/// skipping is disabled.
pub(crate) fn build_pruner<'a>(
    u: &Universal<'a>,
    query: &Query,
    leaf: &'a LeafArtifacts,
    opts: &ExecOptions,
) -> Option<SegmentPruner<'a>> {
    if !opts.pruning {
        return None;
    }
    let fact = u.root_table();
    let chains = leaf
        .chains
        .iter()
        .zip(&leaf.filters)
        .filter_map(|(chain, filter)| {
            let bitmap = filter.as_ref()?;
            Some((fact.schema().position(&chain.fact_key_col)?, bitmap))
        })
        .collect();
    Some(SegmentPruner::new(fact, query.selection_on(u.root()), chains))
}

#[allow(clippy::too_many_arguments)]
fn execute_serial(
    u: &Universal<'_>,
    query: &Query,
    opts: &ExecOptions,
    leaf: &LeafArtifacts,
    leaf_time: Duration,
    survey: Option<&SegmentSurvey>,
    t_start: Instant,
    root_span: Option<SpanId>,
) -> Result<ExecOutput, BindError> {
    let trace = opts.trace.as_deref();
    let t_scan = Instant::now();
    let n = u.root_table().num_slots();
    let fact_preds = compile_fact_preds(u, query, opts);
    let mut chain_checks = build_chain_checks(u, query, leaf)?;
    let mut sa = scan_phase(u, query, opts, leaf, &fact_preds, &mut chain_checks, 0..n, survey)?;
    let scan_time = t_scan.elapsed();
    if let Some(t) = trace {
        t.add(
            "phase2_scan",
            root_span,
            t.us_since_epoch(t_scan),
            scan_time.as_micros() as u64,
            vec![
                ("selected_rows", sa.selected as i64),
                ("segments_scanned", sa.segments_scanned as i64),
                ("segments_pruned", sa.segments_pruned as i64),
            ],
        );
    }

    let t_agg = Instant::now();
    aggregate_phase(u, query, &mut sa);
    let agg_time = t_agg.elapsed();
    if let Some(t) = trace {
        t.add(
            "phase3_agg",
            root_span,
            t.us_since_epoch(t_agg),
            agg_time.as_micros() as u64,
            vec![("groups", sa.agg.occupied() as i64)],
        );
    }

    let mut result = build_result(query, &sa.agg, &sa.dicts);
    result.order_and_limit(&query.order_by, query.limit);

    let plan = PlanInfo {
        root: u.root().to_owned(),
        executor: ExecutorInfo::Serial { requested_threads: opts.threads },
        predvec_chains: leaf.filters.iter().filter(|f| f.is_some()).count(),
        direct_chains: leaf.filters.iter().filter(|f| f.is_none()).count(),
        agg_strategy: sa.strategy,
        segments_scanned: sa.segments_scanned,
        segments_pruned: sa.segments_pruned,
        selected_rows: sa.selected,
        groups: sa.agg.occupied(),
    };
    let total = t_start.elapsed();
    if let (Some(t), Some(id)) = (trace, root_span) {
        let start = t.us_since_epoch(t_start);
        t.record(
            id,
            "execute",
            None,
            start,
            t.now_us().saturating_sub(start),
            vec![("selected_rows", plan.selected_rows as i64), ("groups", plan.groups as i64)],
        );
    }
    Ok(ExecOutput {
        result,
        timings: PhaseTimings { leaf: leaf_time, scan: scan_time, agg: agg_time, total },
        plan,
    })
}

/// Artifacts of the leaf-processing phase, shared read-only by all workers
/// (§5: "we centralize the evaluation of the leaf tables").
pub(crate) struct LeafArtifacts {
    /// The dimension chains the query touches.
    pub chains: Vec<ChainSpec>,
    /// Composed predicate vector per chain (`None` = direct probing).
    pub filters: Vec<Option<Bitmap>>,
    /// Group vector per grouping column (`None` for root-table grouping
    /// columns and for non-`_G` variants).
    pub group_vectors: Vec<Option<GroupVector>>,
}

/// Phase 1: leaf-table processing.
pub(crate) fn prepare_leaf(
    u: &Universal<'_>,
    query: &Query,
    opts: &ExecOptions,
) -> Result<LeafArtifacts, BindError> {
    let chains = participating_chains(u.graph(), u.root(), query)?;

    let mut filters: Vec<Option<Bitmap>> = Vec::with_capacity(chains.len());
    for chain in &chains {
        let dim_rows = u.db().table(&chain.dim_table).map(|t| t.num_slots()).unwrap_or(0);
        let use_vec = opts.variant.use_predvec()
            && chain.has_predicates
            && opts.optimizer.use_predicate_vector(dim_rows);
        if use_vec {
            filters.push(Some(build_chain_filter(u.db(), u.graph(), query, chain)));
        } else {
            filters.push(None);
        }
    }

    let mut group_vectors: Vec<Option<GroupVector>> = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        if !opts.variant.array_agg() || g.table == u.root() {
            group_vectors.push(None);
            continue;
        }
        // Find the chain this grouping column hangs off, to reuse its
        // composed filter for null-ing out filtered dimension rows.
        let path = u.graph().path(u.root(), &g.table).ok_or_else(|| BindError::Unreachable {
            root: u.root().into(),
            table: g.table.clone(),
        })?;
        let key_col = &path.steps[0].key_column;
        let filter = chains
            .iter()
            .position(|c| &c.fact_key_col == key_col)
            .and_then(|i| filters[i].as_ref());
        group_vectors.push(Some(build_group_vector(u.db(), u.graph(), u.root(), g, filter)?));
    }

    Ok(LeafArtifacts { chains, filters, group_vectors })
}

/// Builds the per-chain selection checks for the fact scan.
pub(crate) fn build_chain_checks<'a>(
    u: &Universal<'a>,
    query: &Query,
    leaf: &'a LeafArtifacts,
) -> Result<Vec<ChainCheck<'a>>, BindError> {
    let fact = u.root_table();
    let mut out = Vec::new();
    for (chain, filter) in leaf.chains.iter().zip(&leaf.filters) {
        let (_, keys) = fact
            .column(&chain.fact_key_col)
            .expect("chain key column exists")
            .as_key()
            .expect("chain key column is a key");
        if let Some(bitmap) = filter {
            out.push(ChainCheck::PredVec { keys, bitmap });
            continue;
        }
        // Direct probing: one check per table that carries a predicate or
        // has deleted tuples. Order nearest-first so cheap hops run first.
        let mut checks: Vec<DirectCheck<'a>> = Vec::new();
        let mut tables: Vec<&String> = chain.tables.iter().collect();
        tables.sort_by_key(|t| u.graph().path(u.root(), t).map(|p| p.len()).unwrap_or(usize::MAX));
        for t in tables {
            let table = u.db().table(t).ok_or_else(|| BindError::NoTable(t.clone()))?;
            let pred = query.selection_on(t).map(|p| p.compile(table));
            let live = table.has_deletes().then(|| table.live_bitmap());
            if pred.is_none() && live.is_none() {
                continue;
            }
            checks.push(DirectCheck { hops: u.hops_to(t)?, live, pred });
        }
        if !checks.is_empty() {
            out.push(ChainCheck::Direct { checks });
        }
    }
    Ok(out)
}

/// What a grouping column reads from during the fact scan.
enum GroupSource<'a> {
    /// Probe a pre-built group vector through a fact FK column (`_G`).
    DimVec { keys: &'a Chunked<Key>, gv: &'a GroupVector },
    /// Intern values of a root-table column on the fly.
    Fact(FactGrouper<'a>),
    /// Chase the AIR chain and intern the label per row (non-`_G`).
    Resolved { rc: crate::universal::ResolvedCol<'a>, live: Option<&'a SegBitmap>, dict: GroupDict },
}

/// Artifacts of the fact-scan phase: the Measure Index plus the aggregation
/// table it addresses.
pub(crate) struct ScanArtifacts<'a> {
    /// Row ids of tuples that survived selection *and* grouping.
    pub mi_rows: Vec<u32>,
    /// Their aggregation cells (the Measure Index).
    pub mi_cells: Vec<u32>,
    /// The aggregation table (cells registered, accumulators empty).
    pub agg: AggTable,
    /// Group dictionaries, one per grouping column. Shared leaf dictionaries
    /// are borrowed, not cloned — a worker draining many morsels produces
    /// one `ScanArtifacts` per morsel.
    pub dicts: Vec<DictRef<'a>>,
    /// Tuples surviving selection (before group-null drops).
    pub selected: usize,
    /// The aggregation strategy in effect.
    pub strategy: AggStrategy,
    /// Segments this scan visited.
    pub segments_scanned: usize,
    /// Segments this scan skipped whole via zone maps.
    pub segments_pruned: usize,
}

/// Compiles the fact-local predicates and orders them most-selective-first
/// (§4.1). With pruning enabled, the ordering key blends a prefix-sample
/// estimate with the zone-map survival fraction (the share of segments the
/// conjunct may match): a conjunct that zone-eliminates most of the table
/// is cheap *and* selective inside the survivors, so it runs first. With
/// `opts.pruning` off, zone maps are not consulted at all — the flat-scan
/// ablation baseline reproduces the pre-segmentation ordering exactly.
/// Hoisted out of [`scan_phase`] so the cost is paid once per execution,
/// not once per morsel; the compiled predicates are shared read-only by
/// every worker.
pub(crate) fn compile_fact_preds<'a>(
    u: &Universal<'a>,
    query: &Query,
    opts: &ExecOptions,
) -> Vec<FactPred<'a>> {
    use crate::expr::Pred;
    let fact = u.root_table();
    let conjuncts = query.selection_on(u.root()).map(|p| p.conjuncts()).unwrap_or_default();
    // Each conjunct compiles, then derives its encoded-scan seed from the
    // compiled form — literal coercions included — when the fact column is
    // resolvable and encoded scans are enabled.
    let seed_col = |c: &Pred| -> Option<usize> {
        if !opts.encoded {
            return None;
        }
        match c {
            Pred::Cmp { col, .. } | Pred::Between { col, .. } | Pred::InList { col, .. } => {
                fact.schema().position(col)
            }
            _ => None,
        }
    };
    let wrap = |c: &&Pred| -> FactPred<'a> {
        let p = c.compile(fact);
        match seed_col(c) {
            Some(col) => FactPred::seeded(p, col),
            None => FactPred::unseeded(p),
        }
    };
    let mut fact_preds: Vec<FactPred<'a>> = conjuncts.iter().map(wrap).collect();
    if fact_preds.len() > 1 {
        let n = fact.num_slots();
        let mut keyed: Vec<(f64, FactPred<'a>)> = fact_preds
            .drain(..)
            .zip(&conjuncts)
            .map(|(p, c)| {
                let sampled = p.pred.sampled_selectivity(n, 1024);
                if !opts.pruning {
                    return (sampled, p);
                }
                let zoned = crate::zone::conjunct_zone_survival(c, fact);
                (sampled.min(zoned), p)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        fact_preds = keyed.into_iter().map(|(_, p)| p).collect();
    }
    fact_preds
}

/// Phase 2: the fact scan over `range` — selection, then grouping into the
/// Measure Index.
///
/// With a [`SegmentSurvey`], pruned segments are skipped *before* any
/// predicate touches their columns; `None` scans the whole range (the
/// parallel path prunes at dispatch time, so workers pass `None`). The
/// selection itself always proceeds segment by segment (columns are
/// per-segment chunks, bound once each) in ascending row order, so the
/// selection vector — and therefore every float accumulation order
/// downstream — is the same whichever segments were pruned.
///
/// `fact_preds` ([`compile_fact_preds`]) and `chain_checks`
/// ([`build_chain_checks`]) are built by the caller: once per execution for
/// the serial path, once per *worker* for the parallel path, so a worker
/// claiming dozens of morsels pays the setup once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_phase<'a>(
    u: &Universal<'a>,
    query: &Query,
    opts: &ExecOptions,
    leaf: &'a LeafArtifacts,
    fact_preds: &[FactPred<'a>],
    chain_checks: &mut [ChainCheck<'a>],
    range: std::ops::Range<usize>,
    survey: Option<&SegmentSurvey>,
) -> Result<ScanArtifacts<'a>, BindError> {
    let fact = u.root_table();

    let seg_rows = fact.segment_rows();
    let (seg_lo, seg_hi) = if range.is_empty() {
        (0, 0)
    } else {
        (range.start / seg_rows, range.end.div_ceil(seg_rows))
    };
    let mut segments_scanned = 0usize;
    let mut segments_pruned = 0usize;
    let select = |sub: std::ops::Range<usize>, chain_checks: &mut [ChainCheck<'a>]| {
        if !opts.variant.column_wise() {
            select_rowwise(fact, sub, fact_preds, chain_checks)
        } else {
            match opts.selection {
                SelectionStrategy::VectorRefine => {
                    select_columnwise(fact, sub, fact_preds, chain_checks)
                }
                SelectionStrategy::BitmapAnd => {
                    select_bitmap_and(fact, sub, fact_preds, chain_checks)
                }
            }
        }
    };
    let sv = match survey {
        Some(s) if !(seg_lo..seg_hi).all(|seg| s.keep(seg)) => {
            let mut rows: Vec<RowId> = Vec::new();
            for seg in seg_lo..seg_hi {
                if s.keep(seg) {
                    segments_scanned += 1;
                    let seg_start = seg * seg_rows;
                    let sub = range.start.max(seg_start)..range.end.min(seg_start + seg_rows);
                    rows.extend_from_slice(select(sub, chain_checks).rows());
                } else {
                    segments_pruned += 1;
                }
            }
            SelVec::from_rows(rows)
        }
        _ => {
            segments_scanned = seg_hi - seg_lo;
            select(range, chain_checks)
        }
    };
    let selected = sv.len();

    // Grouping sources.
    let mut sources: Vec<GroupSource<'_>> = Vec::with_capacity(query.group_by.len());
    for (gi, g) in query.group_by.iter().enumerate() {
        if g.table == u.root() {
            let col = fact
                .column(&g.column)
                .ok_or_else(|| BindError::NoColumn(g.table.clone(), g.column.clone()))?;
            sources.push(GroupSource::Fact(FactGrouper::new(col)));
        } else if let Some(gv) = leaf.group_vectors[gi].as_ref() {
            let (_, keys) = fact
                .column(&gv.fact_key_col)
                .expect("group vector key column exists")
                .as_key()
                .expect("group vector key column is a key");
            sources.push(GroupSource::DimVec { keys, gv });
        } else {
            let rc = u.resolve(g)?;
            let live = rc.table.has_deletes().then(|| rc.table.live_bitmap());
            sources.push(GroupSource::Resolved { rc, live, dict: GroupDict::new() });
        }
    }

    // Column-wise code pass: one pass per grouping column (§4.3).
    let rows = sv.rows();
    let mut dim_codes: Vec<Vec<Key>> = Vec::with_capacity(sources.len());
    for src in &mut sources {
        let mut codes = vec![NULL_KEY; rows.len()];
        match src {
            GroupSource::DimVec { keys, gv } => {
                // The probed FK column is sequential in the fact table:
                // bind its chunk once per segment run.
                segment_runs(rows, seg_rows, |seg, run| {
                    let (keys, base) = (keys.chunk(seg), seg * seg_rows);
                    for (code, &r) in codes[run.clone()].iter_mut().zip(&rows[run]) {
                        *code = gv.probe(keys[r as usize - base]);
                    }
                });
            }
            GroupSource::Fact(fg) => {
                for (i, &r) in rows.iter().enumerate() {
                    codes[i] = fg.code_for(r as usize);
                }
            }
            GroupSource::Resolved { rc, live, dict } => {
                for (i, &r) in rows.iter().enumerate() {
                    if let Some(row) = rc.locate(r as usize) {
                        if live.is_none_or(|bm| bm.get_or_false(row)) {
                            codes[i] = dict.intern(label_at(rc.column, row));
                        }
                    }
                }
            }
        }
        dim_codes.push(codes);
    }

    // Radices are final once the code pass is done.
    let radices: Vec<u32> = sources
        .iter()
        .map(|s| match s {
            GroupSource::DimVec { gv, .. } => gv.dict.len() as u32,
            GroupSource::Fact(fg) => fg.dict.len() as u32,
            GroupSource::Resolved { dict, .. } => dict.len() as u32,
        })
        .collect();

    let strategy = opts.force_agg.unwrap_or_else(|| {
        if opts.variant.array_agg() {
            opts.optimizer.agg_strategy(&radices)
        } else {
            AggStrategy::HashTable
        }
    });
    let grouper = if query.group_by.is_empty() {
        Grouper::Scalar
    } else {
        match strategy {
            AggStrategy::DenseArray => Grouper::dense(radices),
            AggStrategy::HashTable => Grouper::hash(query.group_by.len()),
        }
    };
    let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
    let mut agg = AggTable::new(grouper, &funcs);

    // Measure Index: cell per surviving tuple; tuples with a NULL group
    // coordinate are dropped (the paper's −1 entries).
    let mut mi_rows = Vec::with_capacity(rows.len());
    let mut mi_cells = Vec::with_capacity(rows.len());
    let dims = dim_codes.len();
    let mut coords = vec![0 as Key; dims];
    'rows: for (i, &r) in rows.iter().enumerate() {
        for d in 0..dims {
            let c = dim_codes[d][i];
            if c == NULL_KEY {
                continue 'rows;
            }
            coords[d] = c;
        }
        let cell = agg.register(&coords);
        mi_rows.push(r);
        mi_cells.push(cell);
    }

    // Collect the group dictionaries for result decoding. Leaf dictionaries
    // stay borrowed; only scan-built dictionaries are moved out.
    let dicts: Vec<DictRef<'a>> = sources
        .into_iter()
        .map(|s| match s {
            GroupSource::DimVec { gv, .. } => DictRef::Shared(&gv.dict),
            GroupSource::Fact(fg) => DictRef::Owned(fg.dict),
            GroupSource::Resolved { dict, .. } => DictRef::Owned(dict),
        })
        .collect();

    Ok(ScanArtifacts {
        mi_rows,
        mi_cells,
        agg,
        dicts,
        selected,
        strategy,
        segments_scanned,
        segments_pruned,
    })
}

/// Phase 3: measure-column aggregation, driven column-wise by the Measure
/// Index — "only the parts of the measure columns referred by the Measure
/// Index need to be accessed" (§4.3).
pub(crate) fn aggregate_phase(u: &Universal<'_>, query: &Query, sa: &mut ScanArtifacts<'_>) {
    let fact = u.root_table();
    for (j, aggdef) in query.aggregates.iter().enumerate() {
        match (&aggdef.expr, aggdef.func) {
            (None, AggFunc::Count) | (None, _) => {
                let st = sa.agg.state_mut(j);
                for &cell in &sa.mi_cells {
                    st.update(cell, 0.0);
                }
            }
            (Some(expr), _) => {
                let cm = expr.compile(fact);
                let st = sa.agg.state_mut(j);
                let seg_rows = fact.segment_rows();
                // Measure columns bind one chunk per segment run of the
                // (ascending) Measure Index.
                segment_runs(&sa.mi_rows, seg_rows, |seg, run| {
                    let (m, base) = (cm.bind(seg), seg * seg_rows);
                    for (&r, &cell) in sa.mi_rows[run.clone()].iter().zip(&sa.mi_cells[run]) {
                        st.update(cell, m.eval(r as usize - base));
                    }
                });
            }
        }
    }
}

/// Assembles the result rows from the aggregation table.
pub(crate) fn build_result(query: &Query, agg: &AggTable, dicts: &[DictRef<'_>]) -> QueryResult {
    let columns = query.output_names();
    let cells = agg.emit();
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut row: Vec<Value> = Vec::with_capacity(columns.len());
        for (d, &coord) in cell.coords.iter().enumerate() {
            row.push(dicts[d].label(coord).to_value());
        }
        for (a, &(sum, count)) in cell.accs.iter().enumerate() {
            row.push(agg_output(query.aggregates[a].func, sum, count));
        }
        rows.push(row);
    }
    QueryResult { columns, rows }
}

/// Converts a raw accumulator into the output value of an aggregate.
pub fn agg_output(func: AggFunc, sum: f64, count: u64) -> Value {
    match func {
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => Value::Float(sum),
        AggFunc::Count => Value::Int(count as i64),
        AggFunc::Avg => {
            if count == 0 {
                Value::Null
            } else {
                Value::Float(sum / count as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, MeasureExpr, Pred};
    use crate::query::{Aggregate, OrderKey};
    use astore_storage::prelude::*;

    /// A small star: lineorder(custkey, datekey, revenue, discount),
    /// customer(c_nation dict, c_region dict), date(d_year i32).
    fn star_db() -> Database {
        let mut db = Database::new();

        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_nation", DataType::Dict),
                ColumnDef::new("c_region", DataType::Dict),
            ]),
        );
        let custs =
            [("CHINA", "ASIA"), ("JAPAN", "ASIA"), ("BRAZIL", "AMERICA"), ("CANADA", "AMERICA")];
        for (n, r) in custs {
            customer.append_row(&[Value::Str(n.into()), Value::Str(r.into())]);
        }

        let mut date =
            Table::new("date", Schema::new(vec![ColumnDef::new("d_year", DataType::I32)]));
        for y in [1992, 1993, 1994] {
            date.append_row(&[Value::Int(y)]);
        }

        let mut fact = Table::new(
            "lineorder",
            Schema::new(vec![
                ColumnDef::new("lo_custkey", DataType::Key { target: "customer".into() }),
                ColumnDef::new("lo_datekey", DataType::Key { target: "date".into() }),
                ColumnDef::new("lo_revenue", DataType::I64),
                ColumnDef::new("lo_discount", DataType::I32),
            ]),
        );
        // (cust, date, revenue, discount)
        let rows: [(u32, u32, i64, i32); 8] = [
            (0, 0, 100, 1),
            (1, 0, 200, 2),
            (2, 1, 300, 3),
            (3, 1, 400, 1),
            (0, 2, 500, 2),
            (1, 2, 600, 3),
            (2, 0, 700, 1),
            (0, 1, 800, 2),
        ];
        for (c, d, r, disc) in rows {
            fact.append_row(&[
                Value::Key(c),
                Value::Key(d),
                Value::Int(r),
                Value::Int(i64::from(disc)),
            ]);
        }

        db.add_table(customer);
        db.add_table(date);
        db.add_table(fact);
        db
    }

    fn asia_by_year() -> Query {
        Query::new()
            .filter("customer", Pred::eq("c_region", "ASIA"))
            .group("date", "d_year")
            .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "revenue"))
            .order(OrderKey::asc("d_year"))
    }

    /// Expected: ASIA customers are 0 and 1.
    /// year 1992: rows 0 (100) + 1 (200) = 300
    /// year 1993: row 7 (800) = 800
    /// year 1994: rows 4 (500) + 5 (600) = 1100
    fn expected_asia_by_year() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1992), Value::Float(300.0)],
            vec![Value::Int(1993), Value::Float(800.0)],
            vec![Value::Int(1994), Value::Float(1100.0)],
        ]
    }

    #[test]
    fn full_variant_executes_star_query() {
        let db = star_db();
        let out = execute(&db, &asia_by_year(), &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows, expected_asia_by_year());
        assert_eq!(out.plan.root, "lineorder");
        assert_eq!(out.plan.selected_rows, 5);
        assert_eq!(out.plan.groups, 3);
        assert_eq!(out.plan.agg_strategy, AggStrategy::DenseArray);
        assert_eq!(out.plan.predvec_chains, 1);
    }

    #[test]
    fn all_variants_agree() {
        let db = star_db();
        let q = asia_by_year();
        let reference = execute(&db, &q, &ExecOptions::default()).unwrap();
        for v in ScanVariant::ALL {
            let out = execute(&db, &q, &ExecOptions::with_variant(v)).unwrap();
            assert!(
                out.result.same_contents(&reference.result, 1e-9),
                "variant {} diverged:\n{:?}\nvs\n{:?}",
                v.paper_name(),
                out.result.rows,
                reference.result.rows
            );
        }
    }

    #[test]
    fn non_full_variants_use_hash_aggregation() {
        let db = star_db();
        let out = execute(
            &db,
            &asia_by_year(),
            &ExecOptions::with_variant(ScanVariant::ColumnWisePredVec),
        )
        .unwrap();
        assert_eq!(out.plan.agg_strategy, AggStrategy::HashTable);
    }

    #[test]
    fn fact_local_predicates_and_fact_grouping() {
        let db = star_db();
        // select lo_discount, count(*), sum(lo_revenue) group by lo_discount
        // where lo_revenue >= 300
        let q = Query::new()
            .filter("lineorder", Pred::cmp("lo_revenue", CmpOp::Ge, 300))
            .group("lineorder", "lo_discount")
            .agg(Aggregate::count("n"))
            .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "rev"))
            .order(OrderKey::asc("lo_discount"));
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(
            out.result.rows,
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Float(1100.0)], // rows 3,6
                vec![Value::Int(2), Value::Int(2), Value::Float(1300.0)], // rows 4,7
                vec![Value::Int(3), Value::Int(2), Value::Float(900.0)],  // rows 2,5
            ]
        );
    }

    #[test]
    fn count_star_without_group_by() {
        let db = star_db();
        let q = Query::new()
            .root("lineorder")
            .filter("date", Pred::eq("d_year", 1992))
            .agg(Aggregate::count("n"));
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn empty_selection_yields_no_rows() {
        let db = star_db();
        let q = Query::new()
            .root("lineorder")
            .filter("date", Pred::eq("d_year", 2099))
            .group("customer", "c_nation")
            .agg(Aggregate::count("n"));
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.plan.selected_rows, 0);
    }

    #[test]
    fn min_max_avg() {
        let db = star_db();
        let q = Query::new()
            .root("lineorder")
            .group("customer", "c_region")
            .agg(Aggregate::min(MeasureExpr::col("lo_revenue"), "lo"))
            .agg(Aggregate::max(MeasureExpr::col("lo_revenue"), "hi"))
            .agg(Aggregate::avg(MeasureExpr::col("lo_revenue"), "avg"))
            .order(OrderKey::asc("c_region"));
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        // AMERICA: rows 2,3,6 -> min 300 max 700 avg 466.67
        // ASIA: rows 0,1,4,5,7 -> min 100 max 800 avg 440
        assert_eq!(out.result.rows.len(), 2);
        assert_eq!(out.result.rows[0][0], Value::Str("AMERICA".into()));
        assert_eq!(out.result.rows[0][1], Value::Float(300.0));
        assert_eq!(out.result.rows[0][2], Value::Float(700.0));
        let Value::Float(avg) = out.result.rows[0][3] else { panic!() };
        assert!((avg - 1400.0 / 3.0).abs() < 1e-9);
        assert_eq!(out.result.rows[1][1], Value::Float(100.0));
        assert_eq!(out.result.rows[1][2], Value::Float(800.0));
        assert_eq!(out.result.rows[1][3], Value::Float(440.0));
    }

    #[test]
    fn measure_expression_sum() {
        let db = star_db();
        // sum(lo_revenue * (1 - lo_discount/10)) over ASIA
        let expr = MeasureExpr::Mul(
            Box::new(MeasureExpr::col("lo_revenue")),
            Box::new(MeasureExpr::Sub(
                Box::new(MeasureExpr::Const(1.0)),
                Box::new(MeasureExpr::Mul(
                    Box::new(MeasureExpr::col("lo_discount")),
                    Box::new(MeasureExpr::Const(0.1)),
                )),
            )),
        );
        let q = Query::new()
            .filter("customer", Pred::eq("c_region", "ASIA"))
            .agg(Aggregate::sum(expr, "disc_rev"));
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        // rows 0,1,4,5,7: 100*.9 + 200*.8 + 500*.8 + 600*.7 + 800*.8 = 1710
        assert_eq!(out.result.rows, vec![vec![Value::Float(1710.0)]]);
    }

    #[test]
    fn forced_hash_agg_matches_dense() {
        let db = star_db();
        let q = asia_by_year();
        let dense = execute(&db, &q, &ExecOptions::default()).unwrap();
        let hashed = execute(
            &db,
            &q,
            &ExecOptions { force_agg: Some(AggStrategy::HashTable), ..Default::default() },
        )
        .unwrap();
        assert_eq!(hashed.plan.agg_strategy, AggStrategy::HashTable);
        assert!(dense.result.same_contents(&hashed.result, 1e-9));
    }

    #[test]
    fn deletes_respected_in_all_variants() {
        let mut db = star_db();
        db.table_mut("lineorder").unwrap().delete(0);
        db.table_mut("customer").unwrap().delete(1); // JAPAN gone
        let q = asia_by_year();
        let reference = execute(&db, &q, &ExecOptions::default()).unwrap();
        // Remaining ASIA rows: 4 (500, y1994), 7 (800, y1993).
        assert_eq!(
            reference.result.rows,
            vec![
                vec![Value::Int(1993), Value::Float(800.0)],
                vec![Value::Int(1994), Value::Float(500.0)],
            ]
        );
        for v in ScanVariant::ALL {
            let out = execute(&db, &q, &ExecOptions::with_variant(v)).unwrap();
            assert!(
                out.result.same_contents(&reference.result, 1e-9),
                "variant {} diverged on deletes",
                v.paper_name()
            );
        }
    }

    #[test]
    fn bitmap_and_selection_matches_vector_refine() {
        let db = star_db();
        let q = asia_by_year();
        let vector = execute(&db, &q, &ExecOptions::default()).unwrap();
        let bitmap = execute(
            &db,
            &q,
            &ExecOptions { selection: SelectionStrategy::BitmapAnd, ..Default::default() },
        )
        .unwrap();
        assert!(bitmap.result.same_contents(&vector.result, 1e-9));
        assert_eq!(bitmap.plan.selected_rows, vector.plan.selected_rows);
    }

    #[test]
    fn timings_are_populated() {
        let db = star_db();
        let out = execute(&db, &asia_by_year(), &ExecOptions::default()).unwrap();
        assert!(out.timings.total >= out.timings.agg);
    }

    #[test]
    fn bind_error_for_unknown_table() {
        let db = star_db();
        let q = Query::new().filter("ghost", Pred::eq("x", 1)).agg(Aggregate::count("n"));
        assert!(execute(&db, &q, &ExecOptions::default()).is_err());
    }
}
