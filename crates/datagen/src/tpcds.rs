//! A TPC-DS subset: the `store_sales` fact table and the nine dimensions
//! the paper's Table 2 join micro-benchmark exercises.
//!
//! Cardinalities reproduce the SF-100 ratios of Table 2, scaled by `sf /
//! 100`: `store_sales` 287,997,024; `store` 402; `date_dim` 73,049;
//! `time_dim` 86,400; `household_demographics` 7,200;
//! `customer_demographics` 1,920,800; `customer` 2,000,000; `item`
//! 204,000; `promotion` 1,000; `store_returns` 28,795,080. Fixed-size
//! dimensions (`date_dim`, `time_dim`, demographics, `promotion`) keep
//! their nominal sizes regardless of SF, as in TPC-DS.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use astore_storage::column::Column;
use astore_storage::prelude::*;

/// Row counts for the subset at a scale factor (`sf` in TPC-H/SSB units;
/// the paper's Table 2 uses SF = 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcdsSizes {
    /// `store_sales` rows.
    pub store_sales: usize,
    /// `store` rows.
    pub store: usize,
    /// `date_dim` rows (fixed).
    pub date_dim: usize,
    /// `time_dim` rows (fixed).
    pub time_dim: usize,
    /// `household_demographics` rows (fixed).
    pub household_demographics: usize,
    /// `customer_demographics` rows (fixed).
    pub customer_demographics: usize,
    /// `customer` rows.
    pub customer: usize,
    /// `item` rows.
    pub item: usize,
    /// `promotion` rows (fixed).
    pub promotion: usize,
    /// `store_returns` rows (~10% of sales).
    pub store_returns: usize,
}

impl TpcdsSizes {
    /// Sizes at scale factor `sf`.
    pub fn at(sf: f64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        let frac = sf / 100.0;
        TpcdsSizes {
            store_sales: ((287_997_024.0 * frac) as usize).max(1_000),
            store: ((402.0 * frac) as usize).max(10),
            date_dim: 73_049,
            time_dim: 86_400,
            household_demographics: 7_200,
            customer_demographics: ((1_920_800.0 * frac) as usize).max(500),
            customer: ((2_000_000.0 * frac) as usize).max(500),
            item: ((204_000.0 * frac) as usize).max(200),
            promotion: 1_000,
            store_returns: ((28_795_080.0 * frac) as usize).max(100),
        }
    }
}

fn payload_dim(name: &str, rows: usize, rng: &mut SmallRng) -> Table {
    let payload: Vec<i32> = (0..rows).map(|_| rng.gen_range(0..1_000_000)).collect();
    Table::from_columns(
        name,
        Schema::new(vec![ColumnDef::new("payload", DataType::I32)]),
        vec![Column::I32(payload.into())],
    )
}

/// Generates the TPC-DS subset at scale factor `sf`. Every dimension
/// carries an `i32` payload column (what the join micro-benchmark
/// materializes); `store_sales` carries one AIR column per dimension plus
/// `ss_net_paid`.
pub fn generate(sf: f64, seed: u64) -> Database {
    let sizes = TpcdsSizes::at(sf);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();

    let dims: [(&str, usize); 9] = [
        ("store", sizes.store),
        ("date_dim", sizes.date_dim),
        ("time_dim", sizes.time_dim),
        ("household_demographics", sizes.household_demographics),
        ("customer_demographics", sizes.customer_demographics),
        ("customer", sizes.customer),
        ("item", sizes.item),
        ("promotion", sizes.promotion),
        ("store_returns", sizes.store_returns),
    ];
    for (name, rows) in dims {
        db.add_table(payload_dim(name, rows, &mut rng));
    }

    let n = sizes.store_sales;
    let mut cols: Vec<Column> = Vec::new();
    let mut defs: Vec<ColumnDef> = Vec::new();
    for (name, rows) in dims {
        let fk_name = format!("ss_{name}_sk");
        let keys: Vec<Key> = (0..n).map(|_| rng.gen_range(0..rows as u32)).collect();
        defs.push(ColumnDef::new(fk_name, DataType::Key { target: name.into() }));
        cols.push(Column::Key { target: name.into(), keys: keys.into() });
    }
    defs.push(ColumnDef::new("ss_net_paid", DataType::I64));
    cols.push(Column::I64((0..n).map(|_| rng.gen_range(0..20_000i64)).collect()));
    db.add_table(Table::from_columns("store_sales", Schema::new(defs), cols));
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf100_ratios_reproduced() {
        let s = TpcdsSizes::at(100.0);
        assert_eq!(s.store_sales, 287_997_024);
        assert_eq!(s.store, 402);
        assert_eq!(s.customer_demographics, 1_920_800);
        assert_eq!(s.store_returns, 28_795_080);
    }

    #[test]
    fn fixed_dimensions_do_not_scale() {
        let s = TpcdsSizes::at(1.0);
        assert_eq!(s.date_dim, 73_049);
        assert_eq!(s.time_dim, 86_400);
        assert_eq!(s.household_demographics, 7_200);
        assert_eq!(s.promotion, 1_000);
    }

    #[test]
    fn generated_star_is_sound() {
        let db = generate(0.05, 9);
        assert!(db.validate_references().is_empty());
        let g = db.graph();
        assert!(g.roots().contains(&"store_sales".to_string()));
        assert_eq!(g.leaves_of("store_sales").len(), 9);
    }

    #[test]
    fn fact_has_nine_air_columns() {
        let db = generate(0.05, 9);
        let ss = db.table("store_sales").unwrap();
        let air_cols = ss.columns().filter(|(_, c)| c.as_key().is_some()).count();
        assert_eq!(air_cols, 9);
    }
}
