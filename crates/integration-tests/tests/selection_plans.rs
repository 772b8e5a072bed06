//! The selection plan is pinned: the `selection:` line bare `EXPLAIN`
//! prints for each of the 13 SSB queries on one seeded SF 0.01 database is
//! recorded in `testdata/ssb-selection-plans.txt`, and
//!
//! 1. every line reproduces byte for byte, so the selection tests, their
//!    estimates and their order stay what they were when it was recorded;
//! 2. every line equals the `selection:` line `EXPLAIN ANALYZE` reports for
//!    the same statement on the same snapshot — `EXPLAIN` prints the plan
//!    the execution builds, not a copy of it.
//!
//! After a change that moves a plan on purpose, regenerate the file from
//! the output of `cargo test -p astore-integration-tests --test
//! selection_plans -- --nocapture` and say why in the change.

use astore_bench::replay::SSB_SQL;
use astore_datagen::ssb;
use astore_server::json::Json;
use astore_server::{Engine, StatementRegistry};
use astore_storage::snapshot::SharedDatabase;

const PINNED: &str = include_str!("../testdata/ssb-selection-plans.txt");

/// The `selection:` line of an `EXPLAIN` (`member = "explain"`) or
/// `EXPLAIN ANALYZE` (`member = "analyze"`) frame.
fn selection_line(frame: &Json, member: &str) -> String {
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{frame}");
    let lines = frame.get(member).and_then(Json::as_array).expect("plan lines");
    let found = lines.iter().filter_map(Json::as_str).find(|l| l.starts_with("selection: "));
    found.unwrap_or_else(|| panic!("no selection line in {frame}")).to_owned()
}

#[test]
fn ssb_selection_plans_are_pinned_and_explain_prints_the_executed_plan() {
    let e = Engine::new(SharedDatabase::new(ssb::generate(0.01, 20261017)));
    let mut session = StatementRegistry::default();
    let mut run = |sql: String| {
        e.handle_line_session(&Json::obj([("sql", Json::Str(sql))]).to_string(), &mut session)
    };
    let mut got = String::new();
    for (name, stmt) in SSB_SQL {
        let explained = selection_line(&run(format!("EXPLAIN {stmt}")), "explain");
        let analyzed = selection_line(&run(format!("EXPLAIN ANALYZE {stmt}")), "analyze");
        assert_eq!(explained, analyzed, "{name}: EXPLAIN and EXPLAIN ANALYZE disagree");
        got.push_str(&format!("{name}\t{explained}\n"));
    }
    print!("{got}");
    for (want, have) in PINNED.lines().zip(got.lines()) {
        assert_eq!(have, want, "a pinned selection plan moved");
    }
    assert_eq!(got.lines().count(), PINNED.lines().count(), "one pinned line per SSB query");
}
