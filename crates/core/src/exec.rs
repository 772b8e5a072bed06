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
//! 2. **Fact scan** — run the selection tests to produce the selection
//!    vector, then identify each surviving tuple's aggregation cell (the
//!    Measure Index);
//! 3. **Aggregation** — scan the measure columns through the Measure Index
//!    into the multidimensional aggregation array (or hash table).
//!
//! Between phases 1 and 2 one function, `plan`, builds the execution's
//! plan. The selection is **one list of tests**, compiled once — every
//! fact-local conjunct and every dimension chain, a chain whose predicate
//! vector is one run of keys becoming a key range on its foreign key. The
//! zone-map survey runs those compiled tests over every segment
//! ([`SegmentSurvey`]), deciding which segments are scanned and, from their
//! live rows, how many workers to ask for; then the tests are ordered most
//! selective first by estimates read from the surveyed segments' zone
//! maps, dictionary sizes and predicate-vector densities (the estimates
//! and the three ways a segment's selection is built are in
//! [`crate::scan`]). The survey, the estimates and the encoded scan all
//! read the values each compiled test accepts
//! ([`CompiledPred::accepts`](crate::expr::CompiledPred::accepts)).
//! [`PlanInfo::selection`] reports the order, and bare `EXPLAIN` prints the
//! same plan ([`plan_selection`]) as its `selection:` line.
//!
//! Phases 2 and 3 run as one **segment-at-a-time pipeline**: for each
//! surviving segment a worker selects, gathers group codes, computes cells
//! and accumulates the measures, in buffers it keeps for its lifetime — no
//! table-wide selection vector or Measure Index is ever materialised. The
//! predicate-vector and group-vector lookups run through
//! [`crate::kernels`]. The reported phase times keep the paper's
//! boundaries, summed over the segments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use astore_obs::{SpanId, TraceBuf};
use astore_storage::bitmap::{Bitmap, SegBitmap};
use astore_storage::catalog::Database;
use astore_storage::chunks::Chunked;
use astore_storage::table::Table;
use astore_storage::types::{Key, RowId, Value, NULL_KEY};

use crate::agg::{AggTable, Grouper};
use crate::expr::CompiledMeasure;
use crate::filter::{build_chain_filter, participating_chains, ChainSpec, FactPred};
use crate::groupvec::{build_group_vector, label_at, FactGrouper, GroupDict, GroupVector};
use crate::kernels;
use crate::optimizer::{AggStrategy, OptimizerConfig};
use crate::parallel::{morsel_size, run_workers, MorselDispatcher};
use crate::query::{AggFunc, Query};
use crate::result::QueryResult;
use crate::scan::{
    order_tests, ChainCheck, DirectCheck, ScanMode, SegmentScan, SelTest, Selection,
};
use crate::universal::{BindError, Universal};
use crate::zone::SegmentSurvey;

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
    /// The selection tests in the order they ran, and which built each
    /// segment's selection.
    pub selection: Selection,
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
/// This is the primary entry point of A-Store. The query is planned once
/// (`plan`: bind, leaf processing, the selection tests compiled, the
/// segments surveyed with them, the tests ordered); the survey's
/// surviving-row estimate drives the planner's fan-out decision
/// ([`OptimizerConfig::plan_threads`]): with `opts.threads > 1` *and*
/// enough surviving rows to amortize worker spawn, the scan is driven by
/// the segment-aligned morsel dispatcher (§5) from several workers;
/// otherwise one worker — the calling thread — drains it.
/// [`PlanInfo::executor`] reports which ran, and
/// [`PlanInfo::segments_pruned`] how much of the fact table was never
/// touched.
pub fn execute(db: &Database, query: &Query, opts: &ExecOptions) -> Result<ExecOutput, BindError> {
    execute_granted(db, query, opts, |threads| (threads, ()))
}

/// [`execute`], with the fan-out granted by the caller: `grant` is called
/// once, after the zone-map survey, with the worker threads the planner
/// wants for the rows the scan will visit
/// ([`OptimizerConfig::plan_threads`]). It answers how many of them may run
/// and a guard that is held until the scan has finished — how a server
/// charges a statement's fan-out to its core budget. Fewer threads than
/// wanted run the scan with that many; none or one runs it serially.
pub fn execute_granted<G>(
    db: &Database,
    query: &Query,
    opts: &ExecOptions,
    grant: impl FnOnce(usize) -> (usize, G),
) -> Result<ExecOutput, BindError> {
    plan(db, query, opts, |plan| {
        let trace = opts.trace.as_deref();
        let fact = plan.u.root_table();
        // The fan-out decision sees what the scan will actually visit: live
        // rows of the surviving segments, not raw slots (with pruning
        // disabled, the pre-segmentation behaviour — raw slot count — is
        // preserved).
        let est_rows = if opts.pruning { plan.survey.live_rows() } else { fact.num_slots() };
        let wanted = opts.optimizer.plan_threads(est_rows, opts.threads);
        let (granted, permits) = grant(wanted);
        let threads = granted.clamp(1, wanted);
        if let Some(t) = trace {
            let opt_span = t.alloc();
            // One point event per segment decision, nested under `optimize`
            // — the EXPLAIN ANALYZE rendering of "which segments were
            // skipped".
            if opts.pruning {
                for seg in 0..fact.segment_count() {
                    let kept = i64::from(plan.survey.keep(seg));
                    let attrs = vec![("segment", seg as i64), ("kept", kept)];
                    t.event("segment_prune", Some(opt_span), attrs);
                }
            }
            let start = t.us_since_epoch(plan.t_opt);
            t.record(
                opt_span,
                "optimize",
                plan.root_span,
                start,
                t.now_us().saturating_sub(start),
                vec![("est_rows", est_rows as i64), ("threads", threads as i64)],
            );
        }
        let scanned = scan_and_aggregate(&plan, query, opts, threads)?;
        drop(permits);

        let mut result = build_result(query, &scanned.agg, &scanned.dicts());
        result.order_and_limit(&query.order_by, query.limit);
        let leaf = plan.leaf;
        let info = PlanInfo {
            root: plan.u.root().to_owned(),
            executor: scanned.executor,
            predvec_chains: leaf.filters.iter().filter(|f| f.is_some()).count(),
            direct_chains: leaf.filters.iter().filter(|f| f.is_none()).count(),
            agg_strategy: scanned.strategy,
            segments_scanned: scanned.segments_scanned,
            segments_pruned: scanned.segments_pruned,
            selected_rows: scanned.selected,
            groups: scanned.agg.occupied(),
            selection: plan.selection,
        };
        let total = plan.t_start.elapsed();
        if let (Some(t), Some(id)) = (trace, plan.root_span) {
            let start = t.us_since_epoch(plan.t_start);
            t.record(
                id,
                "execute",
                None,
                start,
                t.now_us().saturating_sub(start),
                vec![("selected_rows", info.selected_rows as i64), ("groups", info.groups as i64)],
            );
        }
        Ok(ExecOutput {
            result,
            timings: PhaseTimings {
                leaf: plan.leaf_time,
                scan: scanned.scan_time,
                agg: scanned.agg_time,
                total,
            },
            plan: info,
        })
    })
}

/// The selection an execution of `query` would run, without running it:
/// the plan an execution builds, reported before any fact row is read.
/// Bare `EXPLAIN` prints it.
pub fn plan_selection(
    db: &Database,
    query: &Query,
    opts: &ExecOptions,
) -> Result<Selection, BindError> {
    plan(db, query, opts, |plan| Ok(plan.selection))
}

/// One execution's plan (see [`plan`]), everything the scan reads.
struct Plan<'a> {
    u: &'a Universal<'a>,
    leaf: &'a LeafArtifacts,
    /// The zone-map survey (every segment kept when pruning is disabled).
    survey: SegmentSurvey,
    /// The selection step over the ordered tests.
    scan: SegmentScan<'a, 'a>,
    /// The tests' order and estimates, and which builds, as reported.
    selection: Selection,
    /// When the execution started, and its trace's root span (reserved up
    /// front so every phase span can link to it; its interval is recorded
    /// last, once the total is known).
    t_start: Instant,
    root_span: Option<SpanId>,
    /// Phase 1's wall time.
    leaf_time: Duration,
    /// When planning after phase 1 began (the `optimize` span's start).
    t_opt: Instant,
}

/// Builds the plan of one execution of `query` and hands it to `then`, in
/// this order:
///
/// 1. bind the root and the universal table;
/// 2. leaf processing (phase 1);
/// 3. compile the selection tests, unordered ([`compile_selection`]);
/// 4. survey the segments with those tests ([`SegmentSurvey::new`]; with
///    pruning disabled every segment is kept);
/// 5. order the tests by estimates read from the surveyed zones
///    ([`order_tests`]).
///
/// [`execute_granted`] scans from the plan; [`plan_selection`] reports it.
/// No fact row is read.
fn plan<R>(
    db: &Database,
    query: &Query,
    opts: &ExecOptions,
    then: impl FnOnce(Plan<'_>) -> Result<R, BindError>,
) -> Result<R, BindError> {
    let t_start = Instant::now();
    let trace = opts.trace.as_deref();
    let root_span = trace.map(|t| t.alloc());
    if query.has_params() {
        return Err(BindError::UnboundParams(query.param_count()));
    }
    let u = Universal::bind(db, query.root.as_deref(), &query.referenced_tables())?;
    if let Some(t) = trace {
        let start = t.us_since_epoch(t_start);
        t.add("bind", root_span, start, t.now_us().saturating_sub(start), vec![]);
    }

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

    let t_opt = Instant::now();
    let fact = u.root_table();
    let (tests, columns) = compile_selection(&u, query, &leaf)?;
    // The per-segment admission tests run exactly once, into a survey that
    // the estimates, the fan-out decision and the morsel dispatcher share.
    let survey = SegmentSurvey::new(fact, opts.pruning.then_some(&tests[..]));
    let (tests, steps) = order_tests(tests, columns, fact, &survey);
    let scan = SegmentScan::new(fact, &tests, scan_mode(opts));
    let selection = Selection { steps, builder: scan.builder() };
    then(Plan { u: &u, leaf: &leaf, survey, scan, selection, t_start, root_span, leaf_time, t_opt })
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
    let chains = participating_chains(u, query)?;

    let mut filters: Vec<Option<Bitmap>> = Vec::with_capacity(chains.len());
    for chain in &chains {
        let dim_rows = u.db().table(&chain.dim_table).map(|t| t.num_slots()).unwrap_or(0);
        let use_vec = opts.variant.use_predvec()
            && chain.has_predicates
            && opts.optimizer.use_predicate_vector(dim_rows);
        if use_vec {
            filters.push(Some(build_chain_filter(u.db(), query, chain)));
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
        let key_col = &u.path(&g.table)?.steps[0].key_column;
        let filter = chains
            .iter()
            .position(|c| &c.fact_key_col == key_col)
            .and_then(|i| filters[i].as_ref());
        group_vectors.push(Some(build_group_vector(u, g, filter)?));
    }

    Ok(LeafArtifacts { chains, filters, group_vectors })
}

/// The execution's one list of selection tests (see [`crate::scan`]),
/// unordered, each named by the fact column it reads: every fact-local
/// conjunct, and per dimension chain its predicate vector — a seeded key
/// range on the foreign key when the vector is one run of keys — or its
/// direct chase. Built once per execution and shared read-only by every
/// worker.
fn compile_selection<'a>(
    u: &Universal<'a>,
    query: &Query,
    leaf: &'a LeafArtifacts,
) -> Result<(Vec<SelTest<'a>>, Vec<String>), BindError> {
    let fact = u.root_table();
    let (mut tests, mut columns) = (Vec::new(), Vec::new());
    for conjunct in query.selection_on(u.root()).map(|p| p.conjuncts()).unwrap_or_default() {
        let pred = FactPred::compile(conjunct, fact);
        columns.push(pred.col.map_or("expr", |c| fact.schema().defs()[c].name.as_str()).to_owned());
        tests.push(SelTest::Fact(pred));
    }
    for (chain, filter) in leaf.chains.iter().zip(&leaf.filters) {
        let col = fact.schema().position(&chain.fact_key_col).expect("chain key column exists");
        let (_, keys) = fact.column_at(col).as_key().expect("chain key column is a key");
        let test = match filter {
            Some(bitmap) => SelTest::chain(keys, col, bitmap),
            None => match direct_check(u, query, chain)? {
                Some(check) => SelTest::Chain(check),
                None => continue,
            },
        };
        tests.push(test);
        columns.push(chain.fact_key_col.clone());
    }
    Ok((tests, columns))
}

/// The direct AIR chase of a chain that has no predicate vector: one check
/// per table that carries a predicate or has deleted tuples, nearest first
/// so cheap hops run first. `None` when no table needs one.
fn direct_check<'a>(
    u: &Universal<'a>,
    query: &Query,
    chain: &ChainSpec,
) -> Result<Option<ChainCheck<'a>>, BindError> {
    let mut checks: Vec<DirectCheck<'a>> = Vec::new();
    let mut tables: Vec<&String> = chain.tables.iter().collect();
    tables.sort_by_key(|t| u.path(t).map_or(usize::MAX, |p| p.len()));
    for t in tables {
        let table = u.db().table(t).ok_or_else(|| BindError::NoTable(t.clone()))?;
        let pred = query.selection_on(t).map(|p| p.compile(table));
        let live = table.has_deletes().then(|| table.live_bitmap());
        if pred.is_none() && live.is_none() {
            continue;
        }
        checks.push(DirectCheck { hops: u.hops_to(t)?, live, pred });
    }
    Ok((!checks.is_empty()).then_some(ChainCheck::Direct { checks }))
}

/// How the options' scan variant and selection strategy scan a segment.
fn scan_mode(opts: &ExecOptions) -> ScanMode {
    match (opts.variant.column_wise(), opts.selection) {
        (false, _) => ScanMode::RowWise,
        (true, SelectionStrategy::VectorRefine) => ScanMode::ColumnWise,
        (true, SelectionStrategy::BitmapAnd) => ScanMode::BitmapAnd,
    }
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

impl GroupSource<'_> {
    /// The column's group dictionary: the shared leaf dictionary of a group
    /// vector, or the one this worker's scan has built so far.
    fn dict(&self) -> &GroupDict {
        match self {
            GroupSource::DimVec { gv, .. } => &gv.dict,
            GroupSource::Fact(fg) => &fg.dict,
            GroupSource::Resolved { dict, .. } => dict,
        }
    }

    /// The dictionary a scan grows (`None` for shared leaf dictionaries).
    fn scan_built_dict(&mut self) -> Option<&mut GroupDict> {
        match self {
            GroupSource::DimVec { .. } => None,
            GroupSource::Fact(fg) => Some(&mut fg.dict),
            GroupSource::Resolved { dict, .. } => Some(dict),
        }
    }

    /// One pass of the column-wise code step (§4.3): the group id of every
    /// selected row of segment `seg` (first row `base`), into `codes`.
    fn codes(&mut self, seg: usize, base: RowId, rows: &[RowId], codes: &mut Vec<Key>) {
        match self {
            GroupSource::DimVec { keys, gv } => {
                kernels::gather_codes(keys.chunk(seg), base, &gv.codes, rows, codes)
            }
            GroupSource::Fact(fg) => fg.codes_for_segment(seg, base, rows, codes),
            GroupSource::Resolved { rc, live, dict } => {
                codes.clear();
                codes.extend(rows.iter().map(|&r| match rc.locate(r as usize) {
                    Some(row) if live.is_none_or(|bm| bm.get_or_false(row)) => {
                        dict.intern(label_at(rc.column, row))
                    }
                    _ => NULL_KEY,
                }));
            }
        }
    }
}

/// What every worker of one execution shares, read-only: the selection
/// step, the compiled measures, and the options that steer aggregation.
struct ScanPlan<'p, 'a> {
    fact: &'a Table,
    query: &'p Query,
    opts: &'p ExecOptions,
    leaf: &'a LeafArtifacts,
    scan: SegmentScan<'p, 'a>,
    /// Compiled measure per aggregate (`None` = `COUNT(*)`-style, no
    /// expression).
    measures: Vec<Option<CompiledMeasure<'a>>>,
}

/// One worker's scan state, owned for the worker's lifetime: its grouping
/// sources (with the dictionaries its scan builds), its aggregation table,
/// and the per-segment scratch buffers every claimed morsel reuses. A
/// worker produces exactly one partial result however many morsels it
/// claims; the serial executor is the one-worker case.
struct Worker<'p, 'a> {
    plan: &'p ScanPlan<'p, 'a>,
    sources: Vec<GroupSource<'a>>,
    agg: AggTable,
    strategy: AggStrategy,
    /// Selected rows of the current morsel, ascending.
    rows: Vec<RowId>,
    /// Group ids of `rows`, one vector per grouping column.
    codes: Vec<Vec<Key>>,
    /// Aggregation cells of `rows` (the morsel's Measure Index).
    cells: Vec<u32>,
    /// Tuples surviving selection (before group-null drops), all morsels.
    selected: usize,
    /// Time spent accumulating measures (phase 3), all morsels.
    agg_time: Duration,
}

impl<'p, 'a> Worker<'p, 'a> {
    fn new(plan: &'p ScanPlan<'p, 'a>, u: &Universal<'a>) -> Result<Self, BindError> {
        let (fact, query, opts, leaf) = (plan.fact, plan.query, plan.opts, plan.leaf);
        let mut sources: Vec<GroupSource<'a>> = Vec::with_capacity(query.group_by.len());
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

        // Leaf dictionaries are final; scan-built ones start empty and the
        // dense array is re-addressed as they grow (`fit_radices`).
        let radices: Vec<u32> = sources.iter().map(|s| s.dict().len() as u32).collect();
        let strategy = opts.force_agg.unwrap_or_else(|| {
            if opts.variant.array_agg() {
                opts.optimizer.agg_strategy(&radices)
            } else {
                AggStrategy::HashTable
            }
        });
        let grouper = if sources.is_empty() {
            Grouper::Scalar
        } else {
            match strategy {
                AggStrategy::DenseArray => Grouper::dense(radices),
                AggStrategy::HashTable => Grouper::hash(sources.len()),
            }
        };
        let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
        Ok(Worker {
            plan,
            codes: vec![Vec::new(); sources.len()],
            sources,
            agg: AggTable::new(grouper, &funcs),
            strategy,
            rows: Vec::new(),
            cells: Vec::new(),
            selected: 0,
            agg_time: Duration::ZERO,
        })
    }

    /// Widens a dense aggregation array whose scan-built dictionaries have
    /// outgrown its radices, or — when the optimizer no longer accepts the
    /// array for the dictionary sizes reached — re-addresses it as a hash
    /// table. A forced strategy is never abandoned.
    fn fit_radices(&mut self) {
        let Grouper::Dense { radices, .. } = &self.agg.grouper else { return };
        let sizes = || self.sources.iter().map(|s| s.dict().len() as u32);
        if sizes().zip(radices).all(|(len, &radix)| len <= radix) {
            return;
        }
        let lens: Vec<u32> = sizes().collect();
        let opts = self.plan.opts;
        let dense_ok = |radices: &[u32]| {
            opts.force_agg.is_some()
                || opts.optimizer.agg_strategy(radices) == AggStrategy::DenseArray
        };
        // Doubling bounds the re-addressing passes by the logarithm of the
        // final dictionary size; the exact sizes are the fallback when the
        // doubled array alone would cross the optimizer's limits.
        let doubled: Vec<u32> = lens
            .iter()
            .zip(radices)
            .map(
                |(&len, &radix)| if len > radix { len.max(radix.saturating_mul(2)) } else { radix },
            )
            .collect();
        let grouper = if dense_ok(&doubled) {
            Grouper::dense(doubled)
        } else if dense_ok(&lens) {
            Grouper::dense(lens)
        } else {
            self.strategy = AggStrategy::HashTable;
            Grouper::hash(lens.len())
        };
        self.agg.relayout(grouper);
    }

    /// The whole pipeline for one morsel (a row range inside one segment):
    /// select → group codes → cells (phase 2), then accumulate every
    /// measure through the cells (phase 3), all in this worker's buffers.
    /// Returns the number of tuples that survived selection.
    fn run_morsel(&mut self, range: std::ops::Range<usize>) -> usize {
        let plan = self.plan;
        let seg = range.start / plan.fact.segment_rows();
        let base = plan.fact.segment_range(seg).start as RowId;
        plan.scan.select(range, &mut self.rows);
        let selected = self.rows.len();
        self.selected += selected;
        if selected == 0 {
            return 0;
        }
        for (source, codes) in self.sources.iter_mut().zip(&mut self.codes) {
            source.codes(seg, base, &self.rows, codes);
        }
        self.fit_radices();
        self.agg.assign_cells(&mut self.codes, &mut self.rows, &mut self.cells);

        // "Only the parts of the measure columns referred by the Measure
        // Index need to be accessed" (§4.3); rows ascend, so every
        // accumulator sees its values in row order.
        let t_agg = Instant::now();
        let (rows, cells) = (&self.rows, &self.cells);
        for (j, measure) in plan.measures.iter().enumerate() {
            let state = self.agg.state_mut(j);
            match measure {
                None => state.fold(cells, |_| 0.0),
                Some(cm) => {
                    let m = cm.bind(seg);
                    state.fold(cells, |i| m.eval((rows[i] - base) as usize));
                }
            }
        }
        self.agg_time += t_agg.elapsed();
        selected
    }

    /// Folds another worker's partial result into this one. Group ids of
    /// shared leaf dictionaries mean the same in both; scan-built
    /// dictionaries are reconciled by label, once per distinct group.
    fn absorb(&mut self, other: &Worker<'_, '_>) {
        self.selected += other.selected;
        let remap: Vec<Option<Vec<Key>>> = self
            .sources
            .iter_mut()
            .zip(&other.sources)
            .map(|(mine, theirs)| {
                let dict = mine.scan_built_dict()?;
                Some(theirs.dict().labels().iter().map(|l| dict.intern(l.clone())).collect())
            })
            .collect();
        self.fit_radices();
        self.agg.merge_from(&other.agg, &remap);
    }
}

/// What phases 2–3 hand back to [`execute`].
struct Scanned<'a> {
    /// The (merged) aggregation table.
    agg: AggTable,
    /// Its grouping sources, for decoding group ids into labels.
    sources: Vec<GroupSource<'a>>,
    strategy: AggStrategy,
    executor: ExecutorInfo,
    selected: usize,
    segments_scanned: usize,
    segments_pruned: usize,
    scan_time: Duration,
    agg_time: Duration,
}

impl Scanned<'_> {
    fn dicts(&self) -> Vec<&GroupDict> {
        self.sources.iter().map(GroupSource::dict).collect()
    }
}

/// Phases 2 and 3 as one segment-at-a-time pipeline: the surviving
/// segments are cut into morsels (zone-pruned segments never enter the
/// dispatcher, so no worker touches their columns), `threads` workers —
/// the calling thread among them — drain the dispatcher through
/// [`Worker::run_morsel`], and the workers' partial results are merged
/// once each ("the multidimensional arrays are integrated", §5).
///
/// Rows are selected and accumulated in ascending order within a worker
/// whichever segments were pruned, so a one-worker execution sums floats
/// in the same order with pruning on or off.
///
/// Reported phase times keep the paper's boundaries: for one worker, scan
/// is everything up to the Measure Index and aggregation is the measure
/// accumulation, each summed over the segments; with several workers the
/// scan span covers the workers' wall time and aggregation is the merge.
fn scan_and_aggregate<'a>(
    plan: &Plan<'a>,
    query: &Query,
    opts: &ExecOptions,
    threads: usize,
) -> Result<Scanned<'a>, BindError> {
    let trace = opts.trace.as_deref();
    let (u, survey, root_span) = (plan.u, &plan.survey, plan.root_span);
    let fact = u.root_table();
    let parallel = threads > 1;
    let t_scan = Instant::now();

    // A lone worker takes whole segments; several share smaller morsels so
    // every one of them sees a few.
    let morsel = if parallel {
        morsel_size(fact.num_slots(), threads, opts.morsel_rows)
    } else {
        fact.segment_rows()
    };
    let dispatcher = MorselDispatcher::over_segments(fact, survey, morsel);
    let segments_pruned = survey.pruned();
    let segments_scanned = fact.segment_count() - segments_pruned;

    let shared = ScanPlan {
        fact,
        query,
        opts,
        leaf: plan.leaf,
        scan: plan.scan,
        measures: query
            .aggregates
            .iter()
            .map(|a| a.expr.as_ref().map(|e| e.compile(fact)))
            .collect(),
    };

    // Reserved up front so workers can parent their per-morsel spans under
    // it; its interval is recorded once the workers have joined.
    let scan_span = trace.filter(|_| parallel).map(|t| t.alloc());
    let workers = run_workers(threads, |w| -> Result<Worker<'_, 'a>, BindError> {
        let mut worker = Worker::new(&shared, u)?;
        while let Some(range) = dispatcher.claim() {
            let morsel_start = scan_span.and(trace).map(|t| t.now_us());
            let rows = range.len();
            let selected = worker.run_morsel(range);
            // One span per claimed morsel: dispatch + scan + fold.
            if let (Some(t), Some(start)) = (trace, morsel_start) {
                t.add(
                    "morsel",
                    scan_span,
                    start,
                    t.now_us().saturating_sub(start),
                    vec![
                        ("worker", w as i64),
                        ("rows", rows as i64),
                        ("selected_rows", selected as i64),
                    ],
                );
            }
        }
        Ok(worker)
    });
    let mut workers = workers.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter();
    let mut first = workers.next().expect("at least one worker ran");
    let workers_time = t_scan.elapsed();

    let t_merge = Instant::now();
    for other in workers {
        first.absorb(&other);
    }
    let merge_time = t_merge.elapsed();

    // One worker: its accumulation time is phase 3, the rest of the loop
    // (setup included) phase 2. Several: accumulation overlaps scanning
    // across workers, so the scan phase is their wall time.
    let worker_agg = if parallel { Duration::ZERO } else { first.agg_time };
    let scan_time = workers_time.saturating_sub(worker_agg);
    let agg_time = worker_agg + merge_time;
    if let Some(t) = trace {
        let scan_start = t.us_since_epoch(t_scan);
        let mut attrs = vec![
            ("selected_rows", first.selected as i64),
            ("segments_scanned", segments_scanned as i64),
            ("segments_pruned", segments_pruned as i64),
        ];
        if parallel {
            attrs.push(("threads", threads as i64));
            attrs.push(("morsels", dispatcher.morsels() as i64));
        }
        let scan_us = scan_time.as_micros() as u64;
        match scan_span {
            Some(id) => t.record(id, "phase2_scan", root_span, scan_start, scan_us, attrs),
            None => {
                t.add("phase2_scan", root_span, scan_start, scan_us, attrs);
            }
        }
        let groups = ("groups", first.agg.occupied() as i64);
        let agg_us = agg_time.as_micros() as u64;
        if parallel {
            let attrs = vec![groups, ("partials", threads as i64)];
            t.add("merge", root_span, t.us_since_epoch(t_merge), agg_us, attrs);
        } else {
            // Per-segment accumulation, shown as one interval after the
            // summed scan time.
            t.add("phase3_agg", root_span, scan_start + scan_us, agg_us, vec![groups]);
        }
    }

    let executor = if parallel {
        ExecutorInfo::Parallel {
            threads,
            requested_threads: opts.threads,
            morsels: dispatcher.morsels(),
            morsel_rows: morsel,
        }
    } else {
        ExecutorInfo::Serial { requested_threads: opts.threads }
    };
    Ok(Scanned {
        agg: first.agg,
        sources: first.sources,
        strategy: first.strategy,
        executor,
        selected: first.selected,
        segments_scanned,
        segments_pruned,
        scan_time,
        agg_time,
    })
}

/// Assembles the result rows from the aggregation table.
fn build_result(query: &Query, agg: &AggTable, dicts: &[&GroupDict]) -> QueryResult {
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

    /// A fact-local grouping column whose values keep appearing segment
    /// after segment: the worker's dense array starts empty and is widened
    /// as the scan-built dictionary grows — and abandoned for a hash table
    /// once the optimizer's cell budget is crossed. Either way the result
    /// is the one a hash table from the start produces.
    #[test]
    fn dense_array_follows_a_scan_built_dictionary() {
        let mut db = Database::new();
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_g", DataType::I32),
                ColumnDef::new("f_s", DataType::Dict),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        fact.set_segment_rows(64);
        for i in 0..1000i64 {
            // New groups keep turning up: value i/25 first appears at row 25·i.
            fact.append_row(&[
                Value::Int(i / 25),
                Value::Str(format!("s{}", (i * 7) % 5)),
                Value::Int(i),
            ]);
        }
        db.add_table(fact);
        let q = Query::new()
            .root("fact")
            .group("fact", "f_g")
            .group("fact", "f_s")
            .agg(Aggregate::sum(MeasureExpr::col("f_v"), "total"))
            .agg(Aggregate::count("n"));
        let hashed = execute(
            &db,
            &q,
            &ExecOptions { force_agg: Some(AggStrategy::HashTable), ..Default::default() },
        )
        .unwrap();
        assert_eq!(hashed.plan.groups, 200);

        let dense = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(dense.plan.agg_strategy, AggStrategy::DenseArray);
        assert_eq!(dense.plan.segments_scanned, 16);
        assert!(dense.result.same_contents(&hashed.result, 0.0));

        // 40 × 5 cells do not fit a 64-cell budget: the array is given up
        // part-way through the scan, with every group carried over.
        let mut tight = ExecOptions::default();
        tight.optimizer.agg_array_max_cells = 64;
        let converted = execute(&db, &q, &tight).unwrap();
        assert_eq!(converted.plan.agg_strategy, AggStrategy::HashTable);
        assert!(converted.result.same_contents(&hashed.result, 0.0));

        // A forced dense array is never abandoned.
        tight.force_agg = Some(AggStrategy::DenseArray);
        let forced = execute(&db, &q, &tight).unwrap();
        assert_eq!(forced.plan.agg_strategy, AggStrategy::DenseArray);
        assert!(forced.result.same_contents(&hashed.result, 0.0));

        // Two workers build their dictionaries in different orders; the
        // merge reconciles them by label.
        let mut par = ExecOptions::default().threads(2).morsel_rows(32);
        par.optimizer.parallel_min_rows_per_thread = 1;
        par.optimizer.host_threads = 64;
        let merged = execute(&db, &q, &par).unwrap();
        assert!(merged.plan.executor.is_parallel());
        assert!(merged.result.same_contents(&hashed.result, 0.0));
        par.optimizer.agg_array_max_cells = 64;
        let merged = execute(&db, &q, &par).unwrap();
        assert_eq!(merged.plan.agg_strategy, AggStrategy::HashTable);
        assert!(merged.result.same_contents(&hashed.result, 0.0));
    }
}
