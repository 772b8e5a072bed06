//! Validated application of bound writes to a [`Database`].
//!
//! This is the single write path shared by the serving engine's group
//! commit (which validates, logs to the WAL, then applies) and by crash
//! recovery (which parses each WAL record back into the same bound
//! [`Write`] and replays it through the very same code, so a recovered
//! database is byte-identical to one that never crashed).
//!
//! Every write is validated *before* any mutation: a rejected write leaves
//! the database untouched, and no storage-layer `panic!` can escape.

use astore_sql::statement::Write;
use astore_storage::catalog::Database;
use astore_storage::table::Table;
use astore_storage::types::{DataType, RowId, Value};

/// Validates one bound write without mutating anything. After an `Ok`,
/// the mutation on the same database state cannot fail.
fn validate_statement(db: &Database, stmt: &Write<Value>) -> Result<(), String> {
    match stmt {
        Write::Insert { table, rows } => {
            let t = db.table(table).ok_or_else(|| format!("no table {table:?}"))?;
            for (i, row) in rows.iter().enumerate() {
                check_row(db, t, row).map_err(|e| format!("row {i}: {e}"))?;
            }
            Ok(())
        }
        Write::Update { table, assignments, row } => {
            let t = db.table(table).ok_or_else(|| format!("no table {table:?}"))?;
            check_live(t, row_id(row)?)?;
            for (col, v) in assignments {
                let def = t
                    .schema()
                    .defs()
                    .iter()
                    .find(|d| d.name == *col)
                    .ok_or_else(|| format!("no column {col:?} in {table:?}"))?;
                check_value(db, &def.dtype, v).map_err(|e| format!("column {col:?}: {e}"))?;
            }
            Ok(())
        }
        Write::Delete { table, row } => {
            db.table(table).ok_or_else(|| format!("no table {table:?}"))?;
            row_id(row)?;
            // A deleted slot goes on the free list and is recycled by the
            // next INSERT; any AIR column still pointing at it would then
            // silently rebind to an unrelated row. Refuse deletes from
            // referenced (dimension) tables — the paper deletes facts and
            // reclaims dimensions via consolidation.
            if let Some(referrer) = air_referrer(db, table) {
                return Err(format!(
                    "cannot delete from {table:?}: its rows are referenced by AIR column(s) \
                     of {referrer:?}; delete the referencing rows and consolidate instead"
                ));
            }
            Ok(())
        }
    }
}

/// Applies one bound write, returning the number of affected rows.
/// Validation happens up front; on `Err` the database is unchanged.
pub fn apply_statement(db: &mut Database, stmt: &Write<Value>) -> Result<usize, String> {
    validate_statement(db, stmt)?;
    Ok(apply_validated(db, stmt))
}

/// Mutation half of [`apply_statement`]; must only run after
/// `validate_statement` succeeded on the same state.
fn apply_validated(db: &mut Database, stmt: &Write<Value>) -> usize {
    let row = |v| row_id(v).expect("validated");
    match stmt {
        Write::Insert { table, rows } => {
            let t = db.table_mut(table).expect("validated");
            for row in rows {
                t.insert(row);
            }
            rows.len()
        }
        Write::Update { table, assignments, row: r } => {
            let t = db.table_mut(table).expect("validated");
            for (col, v) in assignments {
                t.update(row(r), col, v);
            }
            1
        }
        Write::Delete { table, row: r } => {
            let t = db.table_mut(table).expect("validated");
            usize::from(t.delete(row(r)))
        }
    }
}

/// The row a write addresses; binding keeps it an integer in
/// `[0, RowId::MAX]`, and a hand-built write that breaks that is refused.
fn row_id(v: &Value) -> Result<RowId, String> {
    match v {
        Value::Int(n) => RowId::try_from(*n).map_err(|_| format!("row id {n} is out of range")),
        other => Err(format!("row id must be an integer, got {other:?}")),
    }
}

/// The name of some table holding an AIR column that targets `table`
/// (`None` if nothing references it).
fn air_referrer(db: &Database, table: &str) -> Option<String> {
    db.table_names().iter().find_map(|name| {
        let refers = db.table(name).is_some_and(|t| {
            t.schema()
                .defs()
                .iter()
                .any(|d| matches!(&d.dtype, DataType::Key { target } if target == table))
        });
        refers.then(|| name.clone())
    })
}

fn check_live(t: &Table, row: RowId) -> Result<(), String> {
    if (row as usize) < t.num_slots() && t.is_live(row) {
        Ok(())
    } else {
        Err(format!("row {row} does not exist or is deleted"))
    }
}

fn check_row(db: &Database, t: &Table, row: &[Value]) -> Result<(), String> {
    if row.len() != t.schema().arity() {
        return Err(format!("arity mismatch: got {}, table has {}", row.len(), t.schema().arity()));
    }
    for (def, v) in t.schema().defs().iter().zip(row) {
        check_value(db, &def.dtype, v).map_err(|e| format!("column {:?}: {e}", def.name))?;
    }
    Ok(())
}

/// Type/bounds check for one literal against a column type. AIR (key)
/// columns take integer literals and are bounds-checked against the target
/// table so the store can never hold a dangling reference.
fn check_value(db: &Database, dtype: &DataType, v: &Value) -> Result<(), String> {
    match (dtype, v) {
        (DataType::I32, Value::Int(x)) => {
            i32::try_from(*x).map(|_| ()).map_err(|_| format!("{x} overflows a 32-bit column"))
        }
        (DataType::I64 | DataType::F64, Value::Int(_)) => Ok(()),
        (DataType::F64, Value::Float(_)) => Ok(()),
        (DataType::Str | DataType::Dict, Value::Str(_)) => Ok(()),
        (DataType::Key { target }, Value::Int(k)) => {
            let t =
                db.table(target).ok_or_else(|| format!("key target table {target:?} missing"))?;
            if *k >= 0 && (*k as usize) < t.num_slots() && t.is_live(*k as RowId) {
                Ok(())
            } else {
                Err(format!("key {k} does not reference a live {target:?} row"))
            }
        }
        (DataType::Key { target }, Value::Key(k)) => {
            check_value(db, &DataType::Key { target: target.clone() }, &Value::Int(i64::from(*k)))
        }
        (dt, v) => Err(format!("cannot store {v:?} in a {dt:?} column")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_sql::{parse_template, StatementTemplate};
    use astore_storage::table::{ColumnDef, Schema};

    fn star() -> Database {
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("v", DataType::I32)]));
        dim.append_row(&[Value::Int(1)]);
        dim.append_row(&[Value::Int(2)]);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Key { target: "dim".into() }),
                ColumnDef::new("m", DataType::I64),
            ]),
        );
        fact.append_row(&[Value::Key(0), Value::Int(10)]);
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    fn apply_sql(db: &mut Database, sql: &str) -> Result<usize, String> {
        let Ok(StatementTemplate::Write(w)) = parse_template(sql) else { panic!("{sql}") };
        apply_statement(db, &w.bind(&[]).unwrap())
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let mut db = star();
        assert_eq!(apply_sql(&mut db, "INSERT INTO fact VALUES (1, 20), (0, 30)"), Ok(2));
        assert_eq!(apply_sql(&mut db, "UPDATE fact SET m = 99 WHERE rowid = 0"), Ok(1));
        assert_eq!(apply_sql(&mut db, "DELETE FROM fact WHERE rowid = 1"), Ok(1));
        let fact = db.table("fact").unwrap();
        assert_eq!(fact.num_live(), 2);
        assert_eq!(fact.row(0)[1], Value::Int(99));
    }

    #[test]
    fn invalid_statements_leave_db_untouched() {
        let mut db = star();
        for bad in [
            "INSERT INTO nope VALUES (1)",
            "INSERT INTO fact VALUES (1)",
            "INSERT INTO fact VALUES (0, 1), (5, 2)", // dangling key in later row
            "UPDATE fact SET nope = 1 WHERE rowid = 0",
            "UPDATE fact SET m = 1 WHERE rowid = 9",
            "DELETE FROM dim WHERE rowid = 0", // AIR-referenced dimension
        ] {
            assert!(apply_sql(&mut db, bad).is_err(), "{bad}");
        }
        assert_eq!(db.table("fact").unwrap().num_live(), 1);
        assert_eq!(db.table("dim").unwrap().num_live(), 2);
    }

    #[test]
    fn replay_is_deterministic() {
        let stmts = [
            "INSERT INTO fact VALUES (1, 20)",
            "UPDATE fact SET m = -1 WHERE rowid = 1",
            "DELETE FROM fact WHERE rowid = 0",
            "INSERT INTO fact VALUES (0, 7)", // reuses slot 0
        ];
        let mut a = star();
        let mut b = star();
        for s in stmts {
            apply_sql(&mut a, s).unwrap();
            apply_sql(&mut b, s).unwrap();
        }
        for name in ["dim", "fact"] {
            let (ta, tb) = (a.table(name).unwrap(), b.table(name).unwrap());
            assert_eq!(ta.live_bitmap(), tb.live_bitmap());
            assert_eq!(ta.free_slots(), tb.free_slots());
            for r in 0..ta.num_slots() as RowId {
                assert_eq!(ta.row(r), tb.row(r));
            }
        }
    }
}
