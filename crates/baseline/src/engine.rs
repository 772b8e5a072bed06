//! A pipelined hash-join SPJGA engine — the stand-in for the hash-join
//! based execution of Hyper / Vectorwise that the paper compares against.
//!
//! Star-join plan, one pipeline (cf. Hyper's produce/consume model):
//!
//! 1. **Build**: for every dimension chain, evaluate the dimension
//!    predicates and build a *hash table* keyed on the dimension's key
//!    value, whose payload carries the chain's group codes. (In A-Store the
//!    key value equals the array index; the difference under test is the
//!    probe mechanism — hashing vs positional addressing.)
//! 2. **Probe**: one pass over the fact table; each tuple is filtered on
//!    its local predicates, probes every chain's hash table, and its
//!    measures are folded into a hash aggregation table immediately
//!    (row-at-a-time pipelining, no Measure Index).
//!
//! Correctness is identical to `astore_core::exec::execute`; the
//! performance difference is the paper's Table 3/5 comparison.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use astore_core::agg::{AggTable, Grouper};
use astore_core::exec::agg_output;
use astore_core::expr::{CompiledMeasure, CompiledPred, SegMeasure, SegPred};
use astore_core::filter::{build_chain_filter, participating_chains};
use astore_core::groupvec::{build_group_vector, FactGrouper, GroupDict, GroupVector};
use astore_core::query::{AggFunc, Query};
use astore_core::result::QueryResult;
use astore_core::universal::{BindError, Universal};
use astore_storage::catalog::Database;
use astore_storage::chunks::Chunked;
use astore_storage::types::{Key, Value, NULL_KEY};

/// Execution report of the hash-pipeline engine.
#[derive(Debug, Clone)]
pub struct HashPipelineOutput {
    /// The result rows.
    pub result: QueryResult,
    /// Time spent building the dimension hash tables.
    pub build_time: Duration,
    /// Time spent in the probe/aggregate pipeline.
    pub probe_time: Duration,
    /// Fact tuples that survived all predicates.
    pub selected_rows: usize,
}

/// One dimension chain's hash table: dimension key -> payload index, with
/// group codes stored per payload in `group_codes` (flattened,
/// `group_cols.len()` codes per entry).
struct ChainHashTable {
    /// Positions in `query.group_by` this chain covers.
    group_cols: Vec<usize>,
    /// key -> flattened payload index.
    table: HashMap<Key, u32>,
    /// Flattened group codes.
    group_codes: Vec<Key>,
    /// Dictionaries, one per covered group column.
    dicts: Vec<GroupDict>,
    /// Fact column to probe with.
    fact_key_col: String,
}

/// Executes a SPJGA query with hash joins + hash aggregation.
pub fn execute_hash_pipeline(
    db: &Database,
    query: &Query,
) -> Result<HashPipelineOutput, BindError> {
    let u = Universal::bind(db, query.root.as_deref(), &query.referenced_tables())?;
    let (root, fact) = (u.root(), u.root_table());

    // ---- Build phase ----
    let t_build = Instant::now();
    let chains = participating_chains(&u, query)?;
    let mut hash_tables: Vec<ChainHashTable> = Vec::with_capacity(chains.len());
    for chain in &chains {
        // Which group columns does this chain cover?
        let mut group_cols = Vec::new();
        for (gi, g) in query.group_by.iter().enumerate() {
            if g.table == root {
                continue;
            }
            let path = u.path(&g.table).expect("participating table reachable");
            if path.steps[0].key_column == chain.fact_key_col {
                group_cols.push(gi);
            }
        }
        // Qualify dimension rows (predicates + liveness + chain integrity).
        let filter = build_chain_filter(db, query, chain);
        // Group vectors give the codes to stash in the payloads.
        let gvs: Vec<GroupVector> = group_cols
            .iter()
            .map(|&gi| {
                build_group_vector(&u, &query.group_by[gi], Some(&filter))
                    .expect("group vector over participating chain")
            })
            .collect();

        let mut table = HashMap::new();
        let mut group_codes = Vec::new();
        for slot in filter.iter_ones() {
            // Deep chains may still null a group code (broken tail).
            let codes: Vec<Key> = gvs.iter().map(|gv| gv.codes[slot]).collect();
            if codes.contains(&NULL_KEY) {
                continue;
            }
            let idx = (group_codes.len() / group_cols.len().max(1)) as u32;
            table.insert(slot as Key, idx);
            group_codes.extend(codes);
            if group_cols.is_empty() {
                // Still need membership; store a zero-width payload.
                group_codes.extend(std::iter::empty::<Key>());
            }
        }
        hash_tables.push(ChainHashTable {
            group_cols,
            table,
            group_codes,
            dicts: gvs.into_iter().map(|gv| gv.dict).collect(),
            fact_key_col: chain.fact_key_col.clone(),
        });
    }
    let build_time = t_build.elapsed();

    // ---- Probe phase (pipelined) ----
    let t_probe = Instant::now();
    let fact_preds: Vec<CompiledPred<'_>> = query
        .selection_on(root)
        .map(|p| p.conjuncts().iter().map(|c| c.compile(fact)).collect())
        .unwrap_or_default();

    let probe_keys: Vec<&Chunked<Key>> = hash_tables
        .iter()
        .map(|ht| {
            fact.column(&ht.fact_key_col)
                .expect("fact key column exists")
                .as_key()
                .expect("fact key column is a key")
                .1
        })
        .collect();

    // Fact-local group columns.
    let dims = query.group_by.len();
    let mut fact_groupers: Vec<(usize, FactGrouper<'_>)> = Vec::new();
    for (gi, g) in query.group_by.iter().enumerate() {
        if g.table == root {
            let col = fact
                .column(&g.column)
                .ok_or_else(|| BindError::NoColumn(g.table.clone(), g.column.clone()))?;
            fact_groupers.push((gi, FactGrouper::new(col)));
        }
    }

    let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
    let grouper = if dims == 0 { Grouper::Scalar } else { Grouper::hash(dims) };
    let mut agg = AggTable::new(grouper, &funcs);
    let measures: Vec<Option<CompiledMeasure<'_>>> =
        query.aggregates.iter().map(|a| a.expr.as_ref().map(|e| e.compile(fact))).collect();

    // The fact table is read sequentially, one segment at a time: every
    // predicate, probe-key column and measure binds the segment's chunks
    // once, and the row loop runs over segment-local offsets.
    let has_deletes = fact.has_deletes();
    let mut coords = vec![0 as Key; dims];
    let mut selected = 0usize;
    for seg in 0..fact.segment_count() {
        let range = fact.segment_range(seg);
        let live = fact.live_bitmap().chunk(seg);
        let preds: Vec<SegPred<'_>> = fact_preds.iter().map(|p| p.bind(seg)).collect();
        // Every row of the segment is probed: one decode per key chunk, not
        // a lane extraction per row.
        let keys: Vec<_> = probe_keys.iter().map(|k| k.chunk(seg).decoded()).collect();
        let measures: Vec<Option<SegMeasure<'_>>> =
            measures.iter().map(|m| m.as_ref().map(|cm| cm.bind(seg))).collect();
        'rows: for off in 0..range.len() {
            if has_deletes && !live.get(off) {
                continue;
            }
            for p in &preds {
                if !p.eval(off) {
                    continue 'rows;
                }
            }
            // Probe every chain hash table.
            for (ht, keys) in hash_tables.iter().zip(&keys) {
                let Some(&payload) = ht.table.get(&keys[off]) else {
                    continue 'rows;
                };
                let w = ht.group_cols.len();
                let base = payload as usize * w;
                for (gslot, &gi) in ht.group_cols.iter().enumerate() {
                    coords[gi] = ht.group_codes[base + gslot];
                }
            }
            selected += 1;
            for (gi, fg) in &mut fact_groupers {
                coords[*gi] = fg.code_for(range.start + off);
            }
            // Pipelined aggregation: fold immediately, no Measure Index.
            let cell = agg.register(&coords);
            for (j, m) in measures.iter().enumerate() {
                match m {
                    Some(m) => agg.update(j, cell, m.eval(off)),
                    None => agg.update(j, cell, 0.0),
                }
            }
        }
    }

    // Assemble dictionaries in group_by order.
    let mut dicts: Vec<Option<GroupDict>> = (0..dims).map(|_| None).collect();
    for ht in hash_tables {
        for (slot, gi) in ht.group_cols.iter().enumerate() {
            dicts[*gi] = Some(ht.dicts[slot].clone());
        }
    }
    for (gi, fg) in fact_groupers {
        dicts[gi] = Some(fg.dict);
    }
    let dicts: Vec<GroupDict> =
        dicts.into_iter().map(|d| d.expect("every group column has a dictionary")).collect();

    let columns = query.output_names();
    let mut rows = Vec::new();
    for cell in agg.emit() {
        let mut row: Vec<Value> = Vec::with_capacity(columns.len());
        for (d, &c) in cell.coords.iter().enumerate() {
            row.push(dicts[d].label(c).to_value());
        }
        for (j, &(s, c)) in cell.accs.iter().enumerate() {
            row.push(agg_output(funcs[j], s, c));
        }
        rows.push(row);
    }
    let mut result = QueryResult { columns, rows };
    result.order_and_limit(&query.order_by, query.limit);
    let probe_time = t_probe.elapsed();

    Ok(HashPipelineOutput { result, build_time, probe_time, selected_rows: selected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_core::exec::{execute, ExecOptions};
    use astore_core::expr::{CmpOp, MeasureExpr, Pred};
    use astore_core::query::{Aggregate, OrderKey};
    use astore_storage::prelude::*;

    fn snowflake_db() -> Database {
        let mut db = Database::new();
        let mut region =
            Table::new("region", Schema::new(vec![ColumnDef::new("r_name", DataType::Dict)]));
        for r in ["AMERICA", "ASIA"] {
            region.append_row(&[Value::Str(r.into())]);
        }
        let mut nation = Table::new(
            "nation",
            Schema::new(vec![
                ColumnDef::new("n_name", DataType::Dict),
                ColumnDef::new("n_region", DataType::Key { target: "region".into() }),
            ]),
        );
        for (n, r) in [("BRAZIL", 0u32), ("CHINA", 1), ("JAPAN", 1)] {
            nation.append_row(&[Value::Str(n.into()), Value::Key(r)]);
        }
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![ColumnDef::new(
                "c_nation",
                DataType::Key { target: "nation".into() },
            )]),
        );
        for nk in [0u32, 1, 2, 1] {
            customer.append_row(&[Value::Key(nk)]);
        }
        let mut date =
            Table::new("date", Schema::new(vec![ColumnDef::new("d_year", DataType::I32)]));
        for y in [1996, 1997] {
            date.append_row(&[Value::Int(y)]);
        }
        let mut fact = Table::new(
            "sales",
            Schema::new(vec![
                ColumnDef::new("s_cust", DataType::Key { target: "customer".into() }),
                ColumnDef::new("s_date", DataType::Key { target: "date".into() }),
                ColumnDef::new("s_rev", DataType::I64),
            ]),
        );
        for (c, d, v) in
            [(0u32, 0u32, 10i64), (1, 0, 20), (2, 1, 30), (3, 1, 40), (1, 1, 50), (0, 1, 60)]
        {
            fact.append_row(&[Value::Key(c), Value::Key(d), Value::Int(v)]);
        }
        db.add_table(region);
        db.add_table(nation);
        db.add_table(customer);
        db.add_table(date);
        db.add_table(fact);
        db
    }

    fn snowflake_query() -> Query {
        Query::new()
            .filter("region", Pred::eq("r_name", "ASIA"))
            .filter("date", Pred::cmp("d_year", CmpOp::Ge, 1996))
            .group("nation", "n_name")
            .group("date", "d_year")
            .agg(Aggregate::sum(MeasureExpr::col("s_rev"), "revenue"))
            .agg(Aggregate::count("n"))
            .order(OrderKey::asc("n_name"))
            .order(OrderKey::asc("d_year"))
    }

    #[test]
    fn matches_air_engine_on_snowflake() {
        let db = snowflake_db();
        let q = snowflake_query();
        let air = execute(&db, &q, &ExecOptions::default()).unwrap();
        let hash = execute_hash_pipeline(&db, &q).unwrap();
        assert!(
            hash.result.same_contents(&air.result, 1e-9),
            "hash:\n{:?}\nair:\n{:?}",
            hash.result.rows,
            air.result.rows
        );
        assert_eq!(hash.selected_rows, air.plan.selected_rows);
    }

    #[test]
    fn count_only_no_group() {
        let db = snowflake_db();
        let q = Query::new()
            .root("sales")
            .filter("region", Pred::eq("r_name", "ASIA"))
            .agg(Aggregate::count("n"));
        let hash = execute_hash_pipeline(&db, &q).unwrap();
        // ASIA customers: nations CHINA(1)/JAPAN(2) -> customers 1,2,3.
        // Fact rows with those: 1,2,3,4 -> 4 rows.
        assert_eq!(hash.result.rows, vec![vec![Value::Int(4)]]);
    }

    #[test]
    fn fact_local_groups_and_predicates() {
        let db = snowflake_db();
        let q = Query::new()
            .root("sales")
            .filter("sales", Pred::cmp("s_rev", CmpOp::Gt, 15))
            .group("sales", "s_date")
            .agg(Aggregate::sum(MeasureExpr::col("s_rev"), "rev"))
            .order(OrderKey::asc("s_date"));
        let air = execute(&db, &q, &ExecOptions::default()).unwrap();
        let hash = execute_hash_pipeline(&db, &q).unwrap();
        assert!(hash.result.same_contents(&air.result, 1e-9));
    }

    #[test]
    fn respects_deletes() {
        let mut db = snowflake_db();
        db.table_mut("customer").unwrap().delete(1);
        db.table_mut("sales").unwrap().delete(0);
        let q = snowflake_query();
        let air = execute(&db, &q, &ExecOptions::default()).unwrap();
        let hash = execute_hash_pipeline(&db, &q).unwrap();
        assert!(hash.result.same_contents(&air.result, 1e-9));
    }

    #[test]
    fn timings_populated() {
        let db = snowflake_db();
        let out = execute_hash_pipeline(&db, &snowflake_query()).unwrap();
        assert!(out.build_time.as_nanos() > 0 || out.probe_time.as_nanos() > 0);
    }
}
