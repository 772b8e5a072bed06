//! **Fig. 9-style multicore scalability** (paper §5 / §6.4): the 13 SSB
//! flight queries through the morsel-driven parallel executor at 1, 2, 4
//! and 8 worker threads, verifying that every thread count returns the
//! serial answer, and recording totals + speedups in `BENCH_parallel.json`.
//!
//! The dataset is the *sealed* SF 0.1 SSB database (600K fact rows,
//! zone-map pruning and encoded segments active) — large enough that the
//! planner's two-segments-per-thread floor grants real fan-out, and
//! representative of the serving configuration rather than a flat
//! unsealed table. The executor that *actually* ran is taken from
//! `PlanInfo::executor` — the planner may clamp the request (e.g. 8
//! threads to 4 on a scan with only 9 segments' worth of rows, or all the way
//! to serial on a tiny `ASTORE_SF`), and the JSON records the clamped
//! truth, not the request. `ASTORE_SF` overrides the scale factor; the
//! first CLI argument overrides the output path.

use std::fmt::Write as _;

use astore_bench::{ms, time_best_of, TablePrinter};
use astore_core::prelude::*;
use astore_datagen::{env_scale_factor, ssb};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let sf = env_scale_factor(0.1);
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_parallel.json".to_owned());
    let host_cores = astore_core::host_cores();

    println!("=== parallel scaling — morsel-driven execution (paper §5) ===");
    println!(
        "scale factor (ASTORE_SF) = {sf}, host cores = {host_cores}, \
         thread counts = {THREAD_COUNTS:?}"
    );
    println!(
        "note: speedup is bounded by physical cores; on a {host_cores}-core host the\n\
         curve above {host_cores} threads measures dispatcher overhead, not scaling.\n"
    );

    let db = ssb::generate(sf, 42);
    let queries = ssb::queries();

    let mut headers: Vec<String> = vec!["query".into()];
    headers.extend(THREAD_COUNTS.iter().map(|t| format!("{t}t")));
    let mut table = TablePrinter::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    // per_query_ms[ti][qi], executor summaries per thread count.
    let mut per_query_ms = vec![vec![0.0f64; queries.len()]; THREAD_COUNTS.len()];
    let mut executor_threads = vec![1usize; THREAD_COUNTS.len()];
    let mut executor_morsels = vec![0usize; THREAD_COUNTS.len()];

    for (qi, sq) in queries.iter().enumerate() {
        let mut cells = vec![sq.id.to_string()];
        let mut reference: Option<QueryResult> = None;
        for (ti, &threads) in THREAD_COUNTS.iter().enumerate() {
            let opts = ExecOptions::default().threads(threads);
            let (d, out) = time_best_of(3, || execute(&db, &sq.query, &opts).unwrap());
            match &reference {
                None => reference = Some(out.result.clone()),
                Some(r) => assert!(
                    out.result.same_contents(r, 1e-9),
                    "{} diverged at {threads} threads",
                    sq.id
                ),
            }
            // A serial clamp is the planner doing its job (two full segments
            // per thread minimum) — record it, never panic on it.
            match out.plan.executor {
                ExecutorInfo::Serial { .. } => {}
                ExecutorInfo::Parallel { threads: t, morsels, .. } => {
                    executor_threads[ti] = executor_threads[ti].max(t);
                    executor_morsels[ti] = executor_morsels[ti].max(morsels);
                }
            }
            per_query_ms[ti][qi] = ms(d);
            cells.push(format!("{:.2}ms", ms(d)));
        }
        table.row(cells);
    }

    let totals: Vec<f64> = per_query_ms.iter().map(|col| col.iter().sum()).collect();
    let mut avg_row = vec!["TOTAL".to_string()];
    avg_row.extend(totals.iter().map(|t| format!("{t:.2}ms")));
    table.row(avg_row);
    table.print();

    println!("\nspeedup vs serial (wall-clock, best-of-3 per query):");
    for (ti, &t) in THREAD_COUNTS.iter().enumerate().skip(1) {
        println!(
            "  {t} threads (executor ran {}): {:.2}x over {} morsels max",
            executor_threads[ti],
            totals[0] / totals[ti],
            executor_morsels[ti]
        );
    }

    // Hand-rolled JSON (the bench crate is std-only by design).
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"parallel_scaling\",");
    let _ = writeln!(j, "  \"paper_ref\": \"fig9-style multicore scalability (§5/§6.4)\",");
    let _ = writeln!(j, "  \"dataset\": \"ssb\",");
    let _ = writeln!(j, "  \"sf\": {sf},");
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"queries\": {},", queries.len());
    let _ = writeln!(j, "  \"runs\": [");
    for (ti, &t) in THREAD_COUNTS.iter().enumerate() {
        let mut per = String::new();
        for (qi, sq) in queries.iter().enumerate() {
            let _ = write!(per, "\"{}\": {:.3}", sq.id, per_query_ms[ti][qi]);
            if qi + 1 < queries.len() {
                per.push_str(", ");
            }
        }
        let _ = writeln!(
            j,
            "    {{\"requested_threads\": {t}, \"executor_threads\": {}, \
             \"max_morsels\": {}, \"total_ms\": {:.3}, \
             \"speedup_vs_serial\": {:.3}, \"per_query_ms\": {{{per}}}}}{}",
            executor_threads[ti],
            executor_morsels[ti],
            totals[ti],
            totals[0] / totals[ti],
            if ti + 1 < THREAD_COUNTS.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    std::fs::write(&out_path, &j).unwrap_or_else(|e| {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out_path}");
}
