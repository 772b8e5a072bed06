//! Distributional invariants of the data generators — the properties the
//! SSB queries' published selectivities depend on.

use astore_datagen::{ssb, tpcds, tpch, workload::JoinWorkload};

#[test]
fn ssb_part_hierarchy_is_consistent() {
    let db = ssb::generate(0.01, 42);
    let part = db.table("part").unwrap();
    let mfgr = part.column("p_mfgr").unwrap().as_dict().unwrap();
    let cat = part.column("p_category").unwrap().as_dict().unwrap();
    let brand = part.column("p_brand1").unwrap().as_dict().unwrap();
    for r in 0..part.num_slots() {
        let m = mfgr.get(r);
        let c = cat.get(r);
        let b = brand.get(r);
        assert!(c.starts_with(m), "category {c} not under mfgr {m}");
        assert!(b.starts_with(c), "brand {b} not under category {c}");
    }
    // Cardinalities: 5 manufacturers, 25 categories, ≤1000 brands.
    assert_eq!(mfgr.dict().len(), 5);
    assert_eq!(cat.dict().len(), 25);
    assert!(brand.dict().len() <= 1000);
}

#[test]
fn ssb_geography_is_consistent() {
    let db = ssb::generate(0.01, 42);
    for (table, city_col, nation_col, region_col) in [
        ("customer", "c_city", "c_nation", "c_region"),
        ("supplier", "s_city", "s_nation", "s_region"),
    ] {
        let t = db.table(table).unwrap();
        let city = t.column(city_col).unwrap().as_dict().unwrap();
        let nation = t.column(nation_col).unwrap().as_dict().unwrap();
        let region = t.column(region_col).unwrap().as_dict().unwrap();
        assert!(region.dict().len() <= 5, "{table} regions");
        assert!(nation.dict().len() <= 25, "{table} nations");
        if t.num_slots() >= 300 {
            // With enough rows all 25 nations appear w.h.p.
            assert_eq!(nation.dict().len(), 25, "{table} nations at n={}", t.num_slots());
            assert_eq!(region.dict().len(), 5, "{table} regions");
        }
        for r in 0..t.num_slots() {
            let n = nation.get(r);
            let c = city.get(r);
            // City = nation truncated/padded to 9 chars + digit.
            let expected_prefix: String = {
                let mut p: String = n.chars().take(9).collect();
                while p.len() < 9 {
                    p.push(' ');
                }
                p
            };
            assert!(c.starts_with(&expected_prefix), "{table}: city {c:?} vs nation {n:?}");
            // Nation's region matches the fixed geography.
            let expected_region =
                ssb::NATIONS.iter().find(|(nat, _)| *nat == n).map(|(_, r)| *r).unwrap();
            assert_eq!(region.get(r), expected_region);
        }
    }
}

#[test]
fn ssb_uniform_columns_cover_their_ranges() {
    let db = ssb::generate(0.02, 42);
    let lo = db.table("lineorder").unwrap();
    let n = lo.num_slots() as f64;

    let disc = lo.column("lo_discount").unwrap().as_i32().unwrap().to_vec();
    for d in 0..=10 {
        let freq = disc.iter().filter(|&&x| x == d).count() as f64 / n;
        assert!((freq - 1.0 / 11.0).abs() < 0.02, "discount {d} frequency {freq} far from uniform");
    }

    let qty = lo.column("lo_quantity").unwrap().as_i32().unwrap().to_vec();
    assert_eq!(*qty.iter().min().unwrap(), 1);
    assert_eq!(*qty.iter().max().unwrap(), 50);
    let under_25 = qty.iter().filter(|&&q| q < 25).count() as f64 / n;
    assert!((under_25 - 24.0 / 50.0).abs() < 0.02, "quantity < 25 rate {under_25}");

    let tax = lo.column("lo_tax").unwrap().as_i32().unwrap().to_vec();
    assert_eq!(*tax.iter().min().unwrap(), 0);
    assert_eq!(*tax.iter().max().unwrap(), 8);
}

#[test]
fn ssb_fk_distributions_are_roughly_uniform() {
    let db = ssb::generate(0.02, 42);
    let lo = db.table("lineorder").unwrap();
    let (_, dates) = lo.column("lo_orderdate").unwrap().as_key().unwrap();
    let dates = dates.to_vec();
    let n_dates = db.table("date").unwrap().num_slots();
    // Year 1993 should get ~1/7 of the fact rows.
    let years = db.table("date").unwrap().column("d_year").unwrap().as_i32().unwrap().to_vec();
    let in_1993 =
        dates.iter().filter(|&&d| years[d as usize] == 1993).count() as f64 / dates.len() as f64;
    assert!((in_1993 - 365.0 / n_dates as f64).abs() < 0.01, "1993 share {in_1993}");
}

#[test]
fn ssb_orders_group_lines_with_shared_attributes() {
    let db = ssb::generate(0.005, 42);
    let lo = db.table("lineorder").unwrap();
    let orderkeys = lo.column("lo_orderkey").unwrap().as_i64().unwrap().to_vec();
    let (_, custs) = lo.column("lo_custkey").unwrap().as_key().unwrap();
    let custs = custs.to_vec();
    let (_, dates) = lo.column("lo_orderdate").unwrap().as_key().unwrap();
    let dates = dates.to_vec();
    let totals = lo.column("lo_ordtotalprice").unwrap().as_i64().unwrap().to_vec();
    let lines = lo.column("lo_linenumber").unwrap().as_i32().unwrap().to_vec();
    for i in 1..lo.num_slots() {
        if orderkeys[i] == orderkeys[i - 1] {
            assert_eq!(custs[i], custs[i - 1], "order lines share the customer");
            assert_eq!(dates[i], dates[i - 1], "order lines share the order date");
            assert_eq!(totals[i], totals[i - 1], "order lines share the total");
            assert_eq!(lines[i], lines[i - 1] + 1, "line numbers increment");
        } else {
            assert_eq!(lines[i], 1, "new order starts at line 1");
        }
    }
    // 1..=7 lines per order means orders ≈ fact / 4.
    let n_orders = orderkeys.iter().collect::<std::collections::HashSet<_>>().len();
    let ratio = lo.num_slots() as f64 / n_orders as f64;
    assert!((3.0..5.0).contains(&ratio), "avg lines per order {ratio}");
}

#[test]
fn tpch_fanouts_match_spec_ratios() {
    let db = tpch::generate(0.02, 5);
    let li = db.table("lineitem").unwrap().num_slots() as f64;
    let ord = db.table("orders").unwrap().num_slots() as f64;
    let cust = db.table("customer").unwrap().num_slots() as f64;
    assert!((li / ord - 4.0).abs() < 0.1, "lineitem:orders = {}", li / ord);
    assert!((ord / cust - 10.0).abs() < 0.1, "orders:customer = {}", ord / cust);
}

#[test]
fn tpcds_fact_to_returns_ratio() {
    let s = tpcds::TpcdsSizes::at(10.0);
    let ratio = s.store_sales as f64 / s.store_returns as f64;
    assert!((9.0..11.0).contains(&ratio), "sales:returns = {ratio}");
}

#[test]
fn workload_probe_hits_are_uniform_over_build() {
    let w = JoinWorkload::new(256, 100_000, 3);
    let mut hits = vec![0usize; 256];
    for &k in &w.probe_keys {
        hits[k as usize] += 1;
    }
    let expected = 100_000.0 / 256.0;
    for (k, &h) in hits.iter().enumerate() {
        assert!(
            (h as f64 - expected).abs() < expected * 0.5,
            "key {k} hit {h} times, expected ~{expected}"
        );
    }
}
