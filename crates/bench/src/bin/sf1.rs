//! **SF 1 proof point** for the compressed segment encodings: streams the
//! 6M-row SSB database into sealed (encoded) form without materializing the
//! uncompressed table, then answers all 13 flight queries over the encoded
//! segments. Records boot time, resident bytes (encoded vs the flat
//! columnar footprint the same segments would occupy raw), and per-query
//! times in `BENCH_sf1.json`.
//!
//! `ASTORE_SF` overrides the scale factor (CI smoke runs at 0.2); the
//! first CLI argument overrides the output path.

use std::fmt::Write as _;
use std::time::Instant;

use astore_bench::{ms, time_best_of, TablePrinter};
use astore_core::prelude::*;
use astore_datagen::{env_scale_factor, ssb};

fn main() {
    let sf = env_scale_factor(1.0);
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sf1.json".to_owned());

    println!("=== sf1 — compressed segments at scale (paper §4.2/§6) ===");
    println!("scale factor (ASTORE_SF) = {sf}");

    let t0 = Instant::now();
    let db = ssb::generate(sf, 42);
    let boot = t0.elapsed();

    let fact_rows = db.table("lineorder").expect("lineorder").num_slots();
    let (mut encoded_bytes, mut raw_bytes) = (0u64, 0u64);
    for name in db.table_names() {
        let (e, r) = db.table(name).expect("table").encoded_footprint();
        encoded_bytes += e;
        raw_bytes += r;
    }
    let ratio = encoded_bytes as f64 / raw_bytes.max(1) as f64;
    println!(
        "boot {:.1}ms, {fact_rows} fact rows, encoded {encoded_bytes} B vs raw {raw_bytes} B \
         ({:.1}% of flat)\n",
        ms(boot),
        ratio * 100.0
    );

    let queries = ssb::queries();
    let opts = ExecOptions::default();
    let mut table = TablePrinter::new(&["query", "ms", "rows"]);
    let mut per_query_ms = vec![0.0f64; queries.len()];
    for (qi, sq) in queries.iter().enumerate() {
        let (d, out) = time_best_of(3, || execute(&db, &sq.query, &opts).unwrap());
        per_query_ms[qi] = ms(d);
        table.row(vec![
            sq.id.to_string(),
            format!("{:.2}", ms(d)),
            out.result.rows.len().to_string(),
        ]);
    }
    let total: f64 = per_query_ms.iter().sum();
    table.row(vec!["TOTAL".into(), format!("{total:.2}"), String::new()]);
    table.print();

    // Hand-rolled JSON (the bench crate is std-only by design).
    let mut per = String::new();
    for (qi, sq) in queries.iter().enumerate() {
        let _ = write!(per, "\"{}\": {:.3}", sq.id, per_query_ms[qi]);
        if qi + 1 < queries.len() {
            per.push_str(", ");
        }
    }
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"sf1\",");
    let _ = writeln!(j, "  \"paper_ref\": \"compressed AIR scan at SF 1 (§4.2/§6)\",");
    let _ = writeln!(j, "  \"dataset\": \"ssb\",");
    let _ = writeln!(j, "  \"sf\": {sf},");
    let _ = writeln!(j, "  \"fact_rows\": {fact_rows},");
    let _ = writeln!(j, "  \"boot_ms\": {:.3},", ms(boot));
    let _ = writeln!(j, "  \"encoded_bytes\": {encoded_bytes},");
    let _ = writeln!(j, "  \"raw_bytes\": {raw_bytes},");
    let _ = writeln!(j, "  \"encoded_over_raw\": {ratio:.4},");
    let _ = writeln!(j, "  \"total_ms\": {total:.3},");
    let _ = writeln!(j, "  \"per_query_ms\": {{{per}}}");
    let _ = writeln!(j, "}}");
    std::fs::write(&out_path, &j).unwrap_or_else(|e| {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out_path}");

    assert!(
        encoded_bytes * 2 <= raw_bytes,
        "encoded footprint regressed past 50% of flat: {encoded_bytes} vs {raw_bytes}"
    );
}
