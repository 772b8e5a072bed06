//! The Star Schema Benchmark: schema, deterministic generator, and the
//! 13-query catalog (O'Neil et al. \[4\]; the paper's primary workload).
//!
//! Layout follows SSB dbgen: a `lineorder` fact table referencing four
//! dimensions (`date`, `customer`, `supplier`, `part`). Foreign keys are
//! generated directly as array index references. Value distributions match
//! the ones the SSB queries' published selectivities rely on (uniform
//! quantities/discounts, the 5-region × 25-nation geography, the
//! MFGR#-structured part hierarchy, a real 1992–1998 calendar).
//!
//! Scale: `lineorder` has `6,000,000 × SF` rows, `customer` `30,000 × SF`,
//! `supplier` `2,000 × SF`, `part` `200,000 × (1 + ⌊log2 SF⌋)` (floored at
//! 2,000 for sub-unit SF), `date` always 2,557 rows (the real 1992–1998 calendar).

use std::fmt::Write as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use astore_core::expr::{CmpOp, MeasureExpr, Pred};
use astore_core::query::{Aggregate, OrderKey, Query};
use astore_storage::column::Column;
use astore_storage::dictionary::DictBuilder;
use astore_storage::prelude::*;
use astore_storage::strings::StrColumn;

/// The 25 TPC-H nations, each with its region.
pub const NATIONS: [(&str, &str); 25] = [
    ("ALGERIA", "AFRICA"),
    ("ETHIOPIA", "AFRICA"),
    ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"),
    ("MOZAMBIQUE", "AFRICA"),
    ("ARGENTINA", "AMERICA"),
    ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"),
    ("PERU", "AMERICA"),
    ("UNITED STATES", "AMERICA"),
    ("CHINA", "ASIA"),
    ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"),
    ("JAPAN", "ASIA"),
    ("VIETNAM", "ASIA"),
    ("FRANCE", "EUROPE"),
    ("GERMANY", "EUROPE"),
    ("ROMANIA", "EUROPE"),
    ("RUSSIA", "EUROPE"),
    ("UNITED KINGDOM", "EUROPE"),
    ("EGYPT", "MIDDLE EAST"),
    ("IRAN", "MIDDLE EAST"),
    ("IRAQ", "MIDDLE EAST"),
    ("JORDAN", "MIDDLE EAST"),
    ("SAUDI ARABIA", "MIDDLE EAST"),
];

/// SSB city naming, into a reused buffer: the nation name
/// space-padded/truncated to 9 characters plus a digit 0–9 (hence
/// `UNITED KI1` for the United Kingdom).
fn format_city<'b>(buf: &'b mut String, nation: &str, digit: u32) -> &'b str {
    buf.clear();
    buf.extend(nation.chars().take(9));
    while buf.len() < 9 {
        buf.push(' ');
    }
    write!(buf, "{digit}").expect("writing to a String cannot fail");
    buf
}

/// Formats into a reused buffer: a generated value that has to be text is
/// written once per row into the same allocation, not into a fresh `String`.
fn format_into<'b>(buf: &'b mut String, args: std::fmt::Arguments<'_>) -> &'b str {
    buf.clear();
    buf.write_fmt(args).expect("writing to a String cannot fail");
    buf
}

const MKT_SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"];
const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const COLORS: [&str; 16] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
];
const CONTAINERS: [&str; 8] =
    ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"];
const TYPES: [&str; 6] = [
    "STANDARD ANODIZED",
    "SMALL PLATED",
    "MEDIUM POLISHED",
    "LARGE BRUSHED",
    "ECONOMY BURNISHED",
    "PROMO ANODIZED",
];
const MONTH_NAMES: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];
const MONTH_ABBR: [&str; 12] =
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];
const WEEKDAYS: [&str; 7] =
    ["Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday"];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: usize) -> u32 {
    match month {
        1 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        3 | 5 | 8 | 10 => 30,
        _ => 31,
    }
}

/// Row counts for each SSB table at a given scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbSizes {
    /// `lineorder` rows.
    pub lineorder: usize,
    /// `customer` rows.
    pub customer: usize,
    /// `supplier` rows.
    pub supplier: usize,
    /// `part` rows.
    pub part: usize,
    /// `date` rows (constant: the full 1992-01-01 … 1998-12-31 calendar,
    /// 2,557 days — SSB documentation rounds this to 2,556).
    pub date: usize,
}

impl SsbSizes {
    /// Sizes at scale factor `sf`.
    pub fn at(sf: f64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        let part = if sf >= 1.0 {
            200_000 * (1 + sf.log2().floor() as usize)
        } else {
            ((200_000.0 * sf) as usize).max(2_000)
        };
        SsbSizes {
            lineorder: ((6_000_000.0 * sf) as usize).max(1),
            customer: ((30_000.0 * sf) as usize).max(100),
            supplier: ((2_000.0 * sf) as usize).max(50),
            part,
            date: 2_557,
        }
    }
}

/// Generates the full SSB database at scale factor `sf`, deterministically
/// from `seed` (same arguments → same values; a unit test pins them). The
/// database arrives **sealed**: the fact table's builders encode each
/// column chunk the moment it completes, so generation never holds more
/// than one segment of the fact table flat, and the closing seal covers
/// what is left (the dimensions and the partial tail segment).
pub fn generate(sf: f64, seed: u64) -> Database {
    let sizes = SsbSizes::at(sf);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();
    for mut table in [
        gen_date(),
        gen_customer(sizes.customer, &mut rng),
        gen_supplier(sizes.supplier, &mut rng),
        gen_part(sizes.part, &mut rng),
        gen_lineorder(sizes, &mut rng),
    ] {
        table.seal_segments();
        db.add_table(table);
    }
    db
}

/// The 2,557-row date dimension covering 1992-01-01 … 1998-12-31.
pub fn gen_date() -> Table {
    let mut datekey = Vec::new();
    let mut date_str = StrColumn::new();
    let mut dayofweek = DictBuilder::new();
    let mut month = DictBuilder::new();
    let mut year = Vec::new();
    let mut yearmonthnum = Vec::new();
    let mut yearmonth = DictBuilder::new();
    let mut daynuminweek = Vec::new();
    let mut daynuminmonth = Vec::new();
    let mut daynuminyear = Vec::new();
    let mut monthnuminyear = Vec::new();
    let mut weeknuminyear = Vec::new();
    let mut sellingseason = DictBuilder::new();
    let mut lastdayinweekfl = Vec::new();
    let mut holidayfl = Vec::new();
    let mut weekdayfl = Vec::new();

    let mut text = String::new();
    // 1992-01-01 was a Wednesday (day-of-week index 3 with Sunday = 0).
    let mut dow = 3usize;
    for y in 1992..=1998 {
        let mut doy = 1i32;
        for m in 0..12usize {
            for d in 1..=days_in_month(y, m) {
                datekey.push(y * 10_000 + (m as i32 + 1) * 100 + d as i32);
                date_str.push(format_into(&mut text, format_args!("{} {d}, {y}", MONTH_NAMES[m])));
                dayofweek.push(WEEKDAYS[dow]);
                month.push(MONTH_NAMES[m]);
                year.push(y);
                yearmonthnum.push(y * 100 + m as i32 + 1);
                yearmonth.push(format_into(&mut text, format_args!("{}{y}", MONTH_ABBR[m])));
                daynuminweek.push(dow as i32 + 1);
                daynuminmonth.push(d as i32);
                daynuminyear.push(doy);
                monthnuminyear.push(m as i32 + 1);
                weeknuminyear.push((doy - 1) / 7 + 1);
                sellingseason.push(match m {
                    11 | 0 => "Christmas",
                    1 | 2 => "Winter",
                    3 | 4 => "Spring",
                    5..=7 => "Summer",
                    _ => "Fall",
                });
                lastdayinweekfl.push(i32::from(dow == 6));
                holidayfl.push(i32::from((m == 11 && d == 25) || (m == 0 && d == 1)));
                weekdayfl.push(i32::from((1..=5).contains(&dow)));
                dow = (dow + 1) % 7;
                doy += 1;
            }
        }
    }

    let schema = Schema::new(vec![
        ColumnDef::new("d_datekey", DataType::I32),
        ColumnDef::new("d_date", DataType::Str),
        ColumnDef::new("d_dayofweek", DataType::Dict),
        ColumnDef::new("d_month", DataType::Dict),
        ColumnDef::new("d_year", DataType::I32),
        ColumnDef::new("d_yearmonthnum", DataType::I32),
        ColumnDef::new("d_yearmonth", DataType::Dict),
        ColumnDef::new("d_daynuminweek", DataType::I32),
        ColumnDef::new("d_daynuminmonth", DataType::I32),
        ColumnDef::new("d_daynuminyear", DataType::I32),
        ColumnDef::new("d_monthnuminyear", DataType::I32),
        ColumnDef::new("d_weeknuminyear", DataType::I32),
        ColumnDef::new("d_sellingseason", DataType::Dict),
        ColumnDef::new("d_lastdayinweekfl", DataType::I32),
        ColumnDef::new("d_holidayfl", DataType::I32),
        ColumnDef::new("d_weekdayfl", DataType::I32),
    ]);
    Table::from_columns(
        "date",
        schema,
        vec![
            Column::I32(datekey.into()),
            Column::Str(date_str),
            Column::Dict(dayofweek.finish()),
            Column::Dict(month.finish()),
            Column::I32(year.into()),
            Column::I32(yearmonthnum.into()),
            Column::Dict(yearmonth.finish()),
            Column::I32(daynuminweek.into()),
            Column::I32(daynuminmonth.into()),
            Column::I32(daynuminyear.into()),
            Column::I32(monthnuminyear.into()),
            Column::I32(weeknuminyear.into()),
            Column::Dict(sellingseason.finish()),
            Column::I32(lastdayinweekfl.into()),
            Column::I32(holidayfl.into()),
            Column::I32(weekdayfl.into()),
        ],
    )
}

fn gen_customer(n: usize, rng: &mut SmallRng) -> Table {
    let mut name = StrColumn::new();
    let mut address = StrColumn::new();
    let mut city = DictBuilder::new();
    let mut nation = DictBuilder::new();
    let mut region = DictBuilder::new();
    let mut phone = StrColumn::new();
    let mut mkt = DictBuilder::new();
    let mut text = String::new();
    for i in 0..n {
        let nk = rng.gen_range(0..NATIONS.len());
        let (nat, reg) = NATIONS[nk];
        name.push(format_into(&mut text, format_args!("Customer#{i:09}")));
        address.push(format_into(&mut text, format_args!("addr-{:x}", rng.gen::<u32>())));
        city.push(format_city(&mut text, nat, rng.gen_range(0..10)));
        nation.push(nat);
        region.push(reg);
        phone.push(format_phone(&mut text, nk, rng));
        mkt.push(MKT_SEGMENTS[rng.gen_range(0..MKT_SEGMENTS.len())]);
    }
    let schema = Schema::new(vec![
        ColumnDef::new("c_name", DataType::Str),
        ColumnDef::new("c_address", DataType::Str),
        ColumnDef::new("c_city", DataType::Dict),
        ColumnDef::new("c_nation", DataType::Dict),
        ColumnDef::new("c_region", DataType::Dict),
        ColumnDef::new("c_phone", DataType::Str),
        ColumnDef::new("c_mktsegment", DataType::Dict),
    ]);
    Table::from_columns(
        "customer",
        schema,
        vec![
            Column::Str(name),
            Column::Str(address),
            Column::Dict(city.finish()),
            Column::Dict(nation.finish()),
            Column::Dict(region.finish()),
            Column::Str(phone),
            Column::Dict(mkt.finish()),
        ],
    )
}

/// An SSB phone number of nation `nk` (country code `10 + nk`), drawn from
/// `rng` into a reused buffer.
fn format_phone<'b>(buf: &'b mut String, nk: usize, rng: &mut SmallRng) -> &'b str {
    let (a, b, c) =
        (rng.gen_range(100..1000), rng.gen_range(100..1000), rng.gen_range(1000..10000));
    format_into(buf, format_args!("{:02}-{a:03}-{b:03}-{c:04}", 10 + nk))
}

fn gen_supplier(n: usize, rng: &mut SmallRng) -> Table {
    let mut name = StrColumn::new();
    let mut address = StrColumn::new();
    let mut city = DictBuilder::new();
    let mut nation = DictBuilder::new();
    let mut region = DictBuilder::new();
    let mut phone = StrColumn::new();
    let mut text = String::new();
    for i in 0..n {
        let nk = rng.gen_range(0..NATIONS.len());
        let (nat, reg) = NATIONS[nk];
        name.push(format_into(&mut text, format_args!("Supplier#{i:09}")));
        address.push(format_into(&mut text, format_args!("saddr-{:x}", rng.gen::<u32>())));
        city.push(format_city(&mut text, nat, rng.gen_range(0..10)));
        nation.push(nat);
        region.push(reg);
        phone.push(format_phone(&mut text, nk, rng));
    }
    let schema = Schema::new(vec![
        ColumnDef::new("s_name", DataType::Str),
        ColumnDef::new("s_address", DataType::Str),
        ColumnDef::new("s_city", DataType::Dict),
        ColumnDef::new("s_nation", DataType::Dict),
        ColumnDef::new("s_region", DataType::Dict),
        ColumnDef::new("s_phone", DataType::Str),
    ]);
    Table::from_columns(
        "supplier",
        schema,
        vec![
            Column::Str(name),
            Column::Str(address),
            Column::Dict(city.finish()),
            Column::Dict(nation.finish()),
            Column::Dict(region.finish()),
            Column::Str(phone),
        ],
    )
}

fn gen_part(n: usize, rng: &mut SmallRng) -> Table {
    let mut name = DictBuilder::new();
    let mut mfgr = DictBuilder::new();
    let mut category = DictBuilder::new();
    let mut brand1 = DictBuilder::new();
    let mut color = DictBuilder::new();
    let mut ptype = DictBuilder::new();
    let mut size = Vec::with_capacity(n);
    let mut container = DictBuilder::new();
    let mut text = String::new();
    for _ in 0..n {
        let m = rng.gen_range(1..=5);
        let c = rng.gen_range(1..=5);
        let b = rng.gen_range(1..=40);
        let col1 = COLORS[rng.gen_range(0..COLORS.len())];
        let col2 = COLORS[rng.gen_range(0..COLORS.len())];
        name.push(format_into(&mut text, format_args!("{col1} {col2}")));
        mfgr.push(format_into(&mut text, format_args!("MFGR#{m}")));
        category.push(format_into(&mut text, format_args!("MFGR#{m}{c}")));
        brand1.push(format_into(&mut text, format_args!("MFGR#{m}{c}{b:02}")));
        color.push(col1);
        ptype.push(TYPES[rng.gen_range(0..TYPES.len())]);
        size.push(rng.gen_range(1..=50));
        container.push(CONTAINERS[rng.gen_range(0..CONTAINERS.len())]);
    }
    let schema = Schema::new(vec![
        ColumnDef::new("p_name", DataType::Dict),
        ColumnDef::new("p_mfgr", DataType::Dict),
        ColumnDef::new("p_category", DataType::Dict),
        ColumnDef::new("p_brand1", DataType::Dict),
        ColumnDef::new("p_color", DataType::Dict),
        ColumnDef::new("p_type", DataType::Dict),
        ColumnDef::new("p_size", DataType::I32),
        ColumnDef::new("p_container", DataType::Dict),
    ]);
    Table::from_columns(
        "part",
        schema,
        vec![
            Column::Dict(name.finish()),
            Column::Dict(mfgr.finish()),
            Column::Dict(category.finish()),
            Column::Dict(brand1.finish()),
            Column::Dict(color.finish()),
            Column::Dict(ptype.finish()),
            Column::I32(size.into()),
            Column::Dict(container.finish()),
        ],
    )
}

/// The fact table. Columns fill segment-sized chunks directly (what the
/// table stores), each sealed as it completes — no whole-table flat array
/// is ever built, and no more than one segment's worth of flat rows exists
/// at a time — and the dictionary columns (`lo_orderpriority`,
/// `lo_shipmode`) are emitted as interned codes: no per-row `String` is
/// ever allocated for them.
fn gen_lineorder(sizes: SsbSizes, rng: &mut SmallRng) -> Table {
    let n = sizes.lineorder;
    let mut orderkey = ChunkedBuilder::new().sealing();
    let mut linenumber = ChunkedBuilder::new().sealing();
    let mut custkey = ChunkedBuilder::new().sealing();
    let mut partkey = ChunkedBuilder::new().sealing();
    let mut suppkey = ChunkedBuilder::new().sealing();
    let mut orderdate = ChunkedBuilder::new().sealing();
    let mut orderpriority = DictBuilder::new().sealing();
    let mut shippriority = ChunkedBuilder::new().sealing();
    let mut quantity = ChunkedBuilder::new().sealing();
    let mut extendedprice = ChunkedBuilder::new().sealing();
    let mut ordtotalprice = ChunkedBuilder::new().sealing();
    let mut discount = ChunkedBuilder::new().sealing();
    let mut revenue = ChunkedBuilder::new().sealing();
    let mut supplycost = ChunkedBuilder::new().sealing();
    let mut tax = ChunkedBuilder::new().sealing();
    let mut commitdate = ChunkedBuilder::new().sealing();
    let mut shipmode = DictBuilder::new().sealing();
    // A ship mode's code, interned the first time the mode is drawn: one
    // array index per row instead of a hash of its name.
    let mut ship_codes = [None; SHIP_MODES.len()];

    let mut i = 0usize;
    let mut order = 0i64;
    while i < n {
        order += 1;
        let lines = rng.gen_range(1..=7usize).min(n - i);
        // Orders arrive in (roughly) chronological sequence: the order date
        // advances linearly with the order's position in the table, with a
        // ±30-day entry jitter. This is how operational fact tables
        // actually fill up (append-in-arrival-order), and the physical
        // date clustering it produces is what makes per-segment zone maps
        // prune the date-selective SSB flights (Q1.x) instead of scanning
        // everything. Marginal distributions stay uniform over the
        // calendar, so published SSB selectivities are unaffected.
        let base = (i as u64 * sizes.date as u64 / n.max(1) as u64) as i64;
        let odate = (base + rng.gen_range(-30..=30i64)).clamp(0, sizes.date as i64 - 1) as u32;
        let ck = rng.gen_range(0..sizes.customer as u32);
        let prio = orderpriority.intern(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]);
        let mut total = 0i64;
        let start = i;
        for l in 0..lines {
            let q = rng.gen_range(1..=50i32);
            let price_base = rng.gen_range(900..=1_109i64);
            let eprice = (i64::from(q) * price_base).min(55_450);
            let disc = rng.gen_range(0..=10i32);
            let rev = eprice * i64::from(100 - disc) / 100;
            total += eprice;
            orderkey.push(order);
            linenumber.push(l as i32 + 1);
            custkey.push(ck);
            partkey.push(rng.gen_range(0..sizes.part as u32));
            suppkey.push(rng.gen_range(0..sizes.supplier as u32));
            orderdate.push(odate);
            orderpriority.push_code(prio);
            shippriority.push(0i32);
            quantity.push(q);
            extendedprice.push(eprice);
            discount.push(disc);
            revenue.push(rev);
            supplycost.push(price_base * 6 / 10);
            tax.push(rng.gen_range(0..=8i32));
            commitdate.push((odate + rng.gen_range(30..=90u32)).min(sizes.date as u32 - 1));
            let mode = rng.gen_range(0..SHIP_MODES.len());
            let code = *ship_codes[mode].get_or_insert_with(|| shipmode.intern(SHIP_MODES[mode]));
            shipmode.push_code(code);
            i += 1;
        }
        for _ in start..i {
            ordtotalprice.push(total);
        }
    }

    let schema = Schema::new(vec![
        ColumnDef::new("lo_orderkey", DataType::I64),
        ColumnDef::new("lo_linenumber", DataType::I32),
        ColumnDef::new("lo_custkey", DataType::Key { target: "customer".into() }),
        ColumnDef::new("lo_partkey", DataType::Key { target: "part".into() }),
        ColumnDef::new("lo_suppkey", DataType::Key { target: "supplier".into() }),
        ColumnDef::new("lo_orderdate", DataType::Key { target: "date".into() }),
        ColumnDef::new("lo_orderpriority", DataType::Dict),
        ColumnDef::new("lo_shippriority", DataType::I32),
        ColumnDef::new("lo_quantity", DataType::I32),
        ColumnDef::new("lo_extendedprice", DataType::I64),
        ColumnDef::new("lo_ordtotalprice", DataType::I64),
        ColumnDef::new("lo_discount", DataType::I32),
        ColumnDef::new("lo_revenue", DataType::I64),
        ColumnDef::new("lo_supplycost", DataType::I64),
        ColumnDef::new("lo_tax", DataType::I32),
        ColumnDef::new("lo_commitdate", DataType::Key { target: "date".into() }),
        ColumnDef::new("lo_shipmode", DataType::Dict),
    ]);
    Table::from_columns(
        "lineorder",
        schema,
        vec![
            Column::I64(orderkey.finish()),
            Column::I32(linenumber.finish()),
            Column::Key { target: "customer".into(), keys: custkey.finish() },
            Column::Key { target: "part".into(), keys: partkey.finish() },
            Column::Key { target: "supplier".into(), keys: suppkey.finish() },
            Column::Key { target: "date".into(), keys: orderdate.finish() },
            Column::Dict(orderpriority.finish()),
            Column::I32(shippriority.finish()),
            Column::I32(quantity.finish()),
            Column::I64(extendedprice.finish()),
            Column::I64(ordtotalprice.finish()),
            Column::I32(discount.finish()),
            Column::I64(revenue.finish()),
            Column::I64(supplycost.finish()),
            Column::I32(tax.finish()),
            Column::Key { target: "date".into(), keys: commitdate.finish() },
            Column::Dict(shipmode.finish()),
        ],
    )
}

/// A named SSB query.
#[derive(Debug, Clone)]
pub struct SsbQuery {
    /// "Q1.1" … "Q4.3".
    pub id: &'static str,
    /// The SPJGA query.
    pub query: Query,
}

/// The 13 SSB queries, in flight order.
pub fn queries() -> Vec<SsbQuery> {
    let rev_disc = || {
        MeasureExpr::Mul(
            Box::new(MeasureExpr::col("lo_extendedprice")),
            Box::new(MeasureExpr::col("lo_discount")),
        )
    };
    let profit = || {
        MeasureExpr::Sub(
            Box::new(MeasureExpr::col("lo_revenue")),
            Box::new(MeasureExpr::col("lo_supplycost")),
        )
    };
    let rev = || MeasureExpr::col("lo_revenue");

    vec![
        SsbQuery {
            id: "Q1.1",
            query: Query::new()
                .root("lineorder")
                .filter("date", Pred::eq("d_year", 1993))
                .filter("lineorder", Pred::between("lo_discount", 1, 3))
                .filter("lineorder", Pred::cmp("lo_quantity", CmpOp::Lt, 25))
                .agg(Aggregate::sum(rev_disc(), "revenue")),
        },
        SsbQuery {
            id: "Q1.2",
            query: Query::new()
                .root("lineorder")
                .filter("date", Pred::eq("d_yearmonthnum", 199401))
                .filter("lineorder", Pred::between("lo_discount", 4, 6))
                .filter("lineorder", Pred::between("lo_quantity", 26, 35))
                .agg(Aggregate::sum(rev_disc(), "revenue")),
        },
        SsbQuery {
            id: "Q1.3",
            query: Query::new()
                .root("lineorder")
                .filter("date", Pred::eq("d_weeknuminyear", 6).and(Pred::eq("d_year", 1994)))
                .filter("lineorder", Pred::between("lo_discount", 5, 7))
                .filter("lineorder", Pred::between("lo_quantity", 26, 35))
                .agg(Aggregate::sum(rev_disc(), "revenue")),
        },
        SsbQuery {
            id: "Q2.1",
            query: Query::new()
                .root("lineorder")
                .filter("part", Pred::eq("p_category", "MFGR#12"))
                .filter("supplier", Pred::eq("s_region", "AMERICA"))
                .group("date", "d_year")
                .group("part", "p_brand1")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::asc("p_brand1")),
        },
        SsbQuery {
            id: "Q2.2",
            query: Query::new()
                .root("lineorder")
                .filter("part", Pred::between("p_brand1", "MFGR#2221", "MFGR#2228"))
                .filter("supplier", Pred::eq("s_region", "ASIA"))
                .group("date", "d_year")
                .group("part", "p_brand1")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::asc("p_brand1")),
        },
        SsbQuery {
            id: "Q2.3",
            query: Query::new()
                .root("lineorder")
                .filter("part", Pred::eq("p_brand1", "MFGR#2239"))
                .filter("supplier", Pred::eq("s_region", "EUROPE"))
                .group("date", "d_year")
                .group("part", "p_brand1")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::asc("p_brand1")),
        },
        SsbQuery {
            id: "Q3.1",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::eq("c_region", "ASIA"))
                .filter("supplier", Pred::eq("s_region", "ASIA"))
                .filter("date", Pred::between("d_year", 1992, 1997))
                .group("customer", "c_nation")
                .group("supplier", "s_nation")
                .group("date", "d_year")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::desc("revenue")),
        },
        SsbQuery {
            id: "Q3.2",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::eq("c_nation", "UNITED STATES"))
                .filter("supplier", Pred::eq("s_nation", "UNITED STATES"))
                .filter("date", Pred::between("d_year", 1992, 1997))
                .group("customer", "c_city")
                .group("supplier", "s_city")
                .group("date", "d_year")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::desc("revenue")),
        },
        SsbQuery {
            id: "Q3.3",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::in_list("c_city", vec!["UNITED KI1", "UNITED KI5"]))
                .filter("supplier", Pred::in_list("s_city", vec!["UNITED KI1", "UNITED KI5"]))
                .filter("date", Pred::between("d_year", 1992, 1997))
                .group("customer", "c_city")
                .group("supplier", "s_city")
                .group("date", "d_year")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::desc("revenue")),
        },
        SsbQuery {
            id: "Q3.4",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::in_list("c_city", vec!["UNITED KI1", "UNITED KI5"]))
                .filter("supplier", Pred::in_list("s_city", vec!["UNITED KI1", "UNITED KI5"]))
                .filter("date", Pred::eq("d_yearmonth", "Dec1997"))
                .group("customer", "c_city")
                .group("supplier", "s_city")
                .group("date", "d_year")
                .agg(Aggregate::sum(rev(), "revenue"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::desc("revenue")),
        },
        SsbQuery {
            id: "Q4.1",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::eq("c_region", "AMERICA"))
                .filter("supplier", Pred::eq("s_region", "AMERICA"))
                .filter("part", Pred::in_list("p_mfgr", vec!["MFGR#1", "MFGR#2"]))
                .group("date", "d_year")
                .group("customer", "c_nation")
                .agg(Aggregate::sum(profit(), "profit"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::asc("c_nation")),
        },
        SsbQuery {
            id: "Q4.2",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::eq("c_region", "AMERICA"))
                .filter("supplier", Pred::eq("s_region", "AMERICA"))
                .filter("date", Pred::in_list("d_year", vec![1997, 1998]))
                .filter("part", Pred::in_list("p_mfgr", vec!["MFGR#1", "MFGR#2"]))
                .group("date", "d_year")
                .group("supplier", "s_nation")
                .group("part", "p_category")
                .agg(Aggregate::sum(profit(), "profit"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::asc("s_nation"))
                .order(OrderKey::asc("p_category")),
        },
        SsbQuery {
            id: "Q4.3",
            query: Query::new()
                .root("lineorder")
                .filter("customer", Pred::eq("c_region", "AMERICA"))
                .filter("supplier", Pred::eq("s_nation", "UNITED STATES"))
                .filter("date", Pred::in_list("d_year", vec![1997, 1998]))
                .filter("part", Pred::eq("p_category", "MFGR#14"))
                .group("date", "d_year")
                .group("supplier", "s_city")
                .group("part", "p_brand1")
                .agg(Aggregate::sum(profit(), "profit"))
                .order(OrderKey::asc("d_year"))
                .order(OrderKey::asc("s_city"))
                .order(OrderKey::asc("p_brand1")),
        },
    ]
}

/// The count-only "star-join" reductions of the SSB queries used by the
/// paper's §6.1.3 micro-benchmark ("we simplified the SSB queries by using
/// count() instead of other aggregation expression and eliminating all
/// group-by clauses").
pub fn starjoin_queries() -> Vec<SsbQuery> {
    queries()
        .into_iter()
        .map(|mut q| {
            q.query.group_by.clear();
            q.query.aggregates = vec![Aggregate::count("n")];
            q.query.order_by.clear();
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_core::exec::{execute, ExecOptions};

    #[test]
    fn sizes_scale() {
        let s = SsbSizes::at(1.0);
        assert_eq!(s.lineorder, 6_000_000);
        assert_eq!(s.customer, 30_000);
        assert_eq!(s.supplier, 2_000);
        assert_eq!(s.part, 200_000);
        assert_eq!(s.date, 2_557);
        let s4 = SsbSizes::at(4.0);
        assert_eq!(s4.part, 600_000);
        let tiny = SsbSizes::at(0.001);
        assert_eq!(tiny.lineorder, 6_000);
        assert!(tiny.customer >= 100);
    }

    #[test]
    fn date_dimension_calendar() {
        let d = gen_date();
        assert_eq!(d.num_slots(), 2_557);
        let years = d.column("d_year").unwrap().as_i32().unwrap().to_vec();
        assert_eq!(years[0], 1992);
        assert_eq!(years[2_556], 1998);
        // 1992 and 1996 are leap years: 366 days.
        assert_eq!(years.iter().filter(|&&y| y == 1992).count(), 366);
        assert_eq!(years.iter().filter(|&&y| y == 1993).count(), 365);
        assert_eq!(years.iter().filter(|&&y| y == 1996).count(), 366);
        // Spot-check datekeys.
        let dk = d.column("d_datekey").unwrap().as_i32().unwrap().to_vec();
        assert_eq!(dk[0], 19_920_101);
        assert_eq!(dk[31], 19_920_201);
        // Dec1997 yearmonth exists.
        let ym = d.column("d_yearmonth").unwrap().as_dict().unwrap();
        assert!(ym.dict().code_of("Dec1997") != NULL_KEY);
    }

    #[test]
    fn city_name_shapes() {
        let mut buf = String::from("stale");
        assert_eq!(format_city(&mut buf, "UNITED KINGDOM", 1), "UNITED KI1");
        assert_eq!(format_city(&mut buf, "PERU", 3), "PERU     3");
        assert_eq!(format_city(&mut buf, "UNITED STATES", 0), "UNITED ST0");
    }

    #[test]
    fn generated_database_is_referentially_sound() {
        let db = generate(0.002, 42);
        assert!(db.validate_references().is_empty());
        let lo = db.table("lineorder").unwrap();
        assert_eq!(lo.num_slots(), 12_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0.001, 7);
        let b = generate(0.001, 7);
        let ka = a.table("lineorder").unwrap().column("lo_custkey").unwrap().as_key().unwrap().1;
        let kb = b.table("lineorder").unwrap().column("lo_custkey").unwrap().as_key().unwrap().1;
        assert_eq!(ka, kb);
        let c = generate(0.001, 8);
        let kc = c.table("lineorder").unwrap().column("lo_custkey").unwrap().as_key().unwrap().1;
        assert_ne!(ka, kc, "different seeds give different data");
    }

    /// FNV-1a over every table's rows, plus the code arrays and dictionary
    /// order of the interned fact columns (two layouts could render the
    /// same rows).
    fn digest(db: &Database) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for name in db.table_names() {
            let t = db.table(name).unwrap();
            eat(&mut h, name.as_bytes());
            for row in 0..t.num_slots() as u32 {
                eat(&mut h, format!("{:?}", t.row(row)).as_bytes());
            }
        }
        for col in ["lo_orderpriority", "lo_shipmode"] {
            let dc = db.table("lineorder").unwrap().column(col).unwrap().as_dict().unwrap();
            eat(&mut h, format!("{:?}{:?}", dc.dict().values(), dc.codes().to_vec()).as_bytes());
        }
        h
    }

    /// The generated bytes are part of the repository's contract: the
    /// golden snapshot fixtures, the benchmark's reference answers and every
    /// recorded measurement assume `generate(sf, seed)` keeps producing
    /// exactly this database. Pinned when the per-row-`String` generator was
    /// retired, from that generator's output.
    #[test]
    fn generated_database_is_pinned() {
        assert_eq!(digest(&generate(0.002, 42)), PINNED_DIGEST);
    }

    #[test]
    fn generation_arrives_sealed_without_a_flat_fact_table() {
        let db = generate(0.002, 42);
        let lo = db.table("lineorder").unwrap();
        assert!((0..lo.segment_count()).all(|s| lo.segment_written(s).is_none()), "sealed");
        let (enc, raw) = lo.encoded_footprint();
        assert!(enc * 2 <= raw, "encoded {enc} must be ≤ half of raw {raw}");
        assert!(db.validate_references().is_empty());

        // With 4 096-row segments SF 0.01 has 14 complete segments: every
        // integer chunk of them left the builders already encoded.
        let sizes = SsbSizes::at(0.01);
        let geo = Geometry::new(4096);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut customer = ChunkedBuilder::with_geometry(geo).sealing();
        let mut quantity = ChunkedBuilder::with_geometry(geo).sealing();
        for _ in 0..sizes.lineorder {
            customer.push(rng.gen_range(0..sizes.customer as u32));
            quantity.push(rng.gen_range(1..=50i32));
        }
        let (customer, quantity) = (customer.finish(), quantity.finish());
        let complete = sizes.lineorder / 4096;
        assert!(complete >= 14);
        for seg in 0..complete {
            assert!(customer.chunk(seg).as_flat().is_none(), "custkey chunk {seg} is flat");
            assert!(quantity.chunk(seg).as_flat().is_none(), "quantity chunk {seg} is flat");
        }
        assert!(customer.chunk(complete).as_flat().is_some(), "the filling tail stays flat");
    }

    const PINNED_DIGEST: u64 = 0x088c_b3ea_3b6e_4052;

    #[test]
    fn revenue_consistent_with_price_and_discount() {
        let db = generate(0.001, 1);
        let lo = db.table("lineorder").unwrap();
        let price = lo.column("lo_extendedprice").unwrap().as_i64().unwrap().to_vec();
        let disc = lo.column("lo_discount").unwrap().as_i32().unwrap().to_vec();
        let rev = lo.column("lo_revenue").unwrap().as_i64().unwrap().to_vec();
        for i in 0..lo.num_slots() {
            assert_eq!(rev[i], price[i] * i64::from(100 - disc[i]) / 100);
            assert!(price[i] <= 55_450);
            assert!((0..=10).contains(&disc[i]));
        }
    }

    #[test]
    fn q1_selectivities_roughly_match_ssb() {
        let db = generate(0.01, 42);
        let qs = queries();
        // Q1.1 selectivity ~1.9% of lineorder (1/7 * 3/11 * 24/50).
        let out = execute(&db, &qs[0].query, &ExecOptions::default()).unwrap();
        let n = db.table("lineorder").unwrap().num_slots() as f64;
        let sel = out.plan.selected_rows as f64 / n;
        assert!((0.012..0.028).contains(&sel), "Q1.1 selectivity {sel}");
        assert_eq!(out.result.rows.len(), 1);
    }

    #[test]
    fn all_13_queries_run_and_produce_output() {
        let db = generate(0.005, 42);
        for q in queries() {
            let out = execute(&db, &q.query, &ExecOptions::default()).unwrap();
            // All SSB queries hit something at this scale except possibly
            // the ultra-selective Q3.4 / Q2.3.
            if q.id == "Q3.4" || q.id == "Q2.3" || q.id == "Q3.3" {
                continue;
            }
            assert!(!out.result.is_empty(), "{} returned nothing", q.id);
        }
    }

    #[test]
    fn starjoin_variants_are_count_only() {
        for q in starjoin_queries() {
            assert!(q.query.group_by.is_empty());
            assert_eq!(q.query.aggregates.len(), 1);
            assert!(q.query.order_by.is_empty());
        }
    }

    #[test]
    fn nations_cover_five_regions_evenly() {
        let mut by_region = std::collections::HashMap::new();
        for (_, r) in NATIONS {
            *by_region.entry(r).or_insert(0) += 1;
        }
        assert_eq!(by_region.len(), 5);
        assert!(by_region.values().all(|&c| c == 5));
    }
}
