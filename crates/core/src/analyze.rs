//! `EXPLAIN ANALYZE` rendering: the executed plan annotated with actual
//! times, rows, and per-segment decisions.
//!
//! The report is assembled from two sources the executor already produces:
//! the [`PlanInfo`](crate::exec::PlanInfo)/[`PhaseTimings`](crate::exec::PhaseTimings) in the
//! [`ExecOutput`], and the span tree a [`TraceBuf`] collected while the
//! query ran. Rendering is plain text, one line per entry, so every layer
//! (CLI, server frame, tests) shares the same format.

use std::collections::HashMap;

use astore_obs::{Span, SpanId, TraceBuf};

use crate::exec::ExecOutput;

/// Children rendered per parent before the tree is elided with a
/// `(+N more)` line — keeps a thousand-morsel scan readable.
const MAX_CHILDREN_SHOWN: usize = 32;

/// Renders an `EXPLAIN ANALYZE` report: plan summary lines followed by the
/// indented span tree.
pub fn render_analyze(out: &ExecOutput, trace: &TraceBuf) -> Vec<String> {
    let mut lines = plan_lines(out);
    let dropped = trace.dropped();
    let spans = trace.spans();
    if dropped > 0 {
        lines.push(format!("trace: {} spans ({dropped} dropped at cap)", spans.len()));
    } else {
        lines.push(format!("trace: {} spans", spans.len()));
    }
    lines.extend(render_span_tree(&spans));
    lines
}

/// The plan-summary lines of the report (everything except the span tree).
pub fn plan_lines(out: &ExecOutput) -> Vec<String> {
    let p = &out.plan;
    let t = &out.timings;
    vec![
        format!("root: {}  executor: {}", p.root, p.executor),
        format!(
            "phases: leaf={}us scan={}us agg={}us total={}us",
            t.leaf.as_micros(),
            t.scan.as_micros(),
            t.agg.as_micros(),
            t.total.as_micros()
        ),
        format!(
            "segments: scanned={} pruned={}  chains: predvec={} direct={}",
            p.segments_scanned, p.segments_pruned, p.predvec_chains, p.direct_chains
        ),
        format!("selection: {}", p.selection),
        format!(
            "rows: selected={} groups={}  agg: {:?}",
            p.selected_rows, p.groups, p.agg_strategy
        ),
    ]
}

/// Renders a span forest as indented `name start..end` lines with attrs.
pub fn render_span_tree(spans: &[Span]) -> Vec<String> {
    let mut children: HashMap<Option<SpanId>, Vec<&Span>> = HashMap::new();
    let ids: std::collections::HashSet<SpanId> = spans.iter().map(|s| s.id).collect();
    for s in spans {
        // A child whose parent was dropped at the cap renders at the root.
        let parent = s.parent.filter(|p| ids.contains(p));
        children.entry(parent).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start_us, s.id.0));
    }
    let mut lines = Vec::new();
    walk(&children, None, 1, &mut lines);
    lines
}

fn walk(
    children: &HashMap<Option<SpanId>, Vec<&Span>>,
    parent: Option<SpanId>,
    depth: usize,
    lines: &mut Vec<String>,
) {
    // Depth bound: the executor nests three levels; anything deeper means a
    // malformed parent link, which should not hang the renderer.
    if depth > 8 {
        return;
    }
    let Some(kids) = children.get(&parent) else { return };
    for (i, s) in kids.iter().enumerate() {
        if i == MAX_CHILDREN_SHOWN {
            lines.push(format!(
                "{}… (+{} more {})",
                "  ".repeat(depth),
                kids.len() - MAX_CHILDREN_SHOWN,
                s.name
            ));
            break;
        }
        let mut line = format!("{}{} {}..{}us", "  ".repeat(depth), s.name, s.start_us, s.end_us());
        for (k, v) in &s.attrs {
            line.push_str(&format!(" {k}={v}"));
        }
        lines.push(line);
        walk(children, Some(s.id), depth + 1, lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use crate::expr::Pred;
    use crate::query::{Aggregate, Query};
    use astore_storage::prelude::*;
    use std::sync::Arc;

    fn small_db() -> Database {
        let mut dim =
            Table::new("dim", Schema::new(vec![ColumnDef::new("d_name", DataType::Dict)]));
        dim.append_row(&[Value::Str("a".into())]);
        dim.append_row(&[Value::Str("b".into())]);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        for i in 0..100 {
            fact.append_row(&[Value::Key((i % 2) as u32), Value::Int(i)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    #[test]
    fn traced_execution_renders_a_report() {
        let db = small_db();
        let q = Query::new()
            .filter("dim", Pred::eq("d_name", "a"))
            .group("dim", "d_name")
            .agg(Aggregate::count("n"));
        let trace = Arc::new(TraceBuf::new());
        let opts = ExecOptions::default().trace(trace.clone());
        let out = execute(&db, &q, &opts).unwrap();
        let lines = render_analyze(&out, &trace);
        let text = lines.join("\n");
        assert!(text.contains("root: fact"), "{text}");
        assert!(text.contains("phases: leaf="), "{text}");
        assert!(text.contains("segments: scanned="), "{text}");
        assert!(text.contains("selection: builds range f_dim ~50.00%"), "{text}");
        assert!(text.contains("execute "), "{text}");
        assert!(text.contains("phase2_scan"), "{text}");
        assert!(text.contains("segment_prune"), "{text}");
    }

    #[test]
    fn untraced_execution_records_nothing() {
        let db = small_db();
        let q = Query::new().root("fact").agg(Aggregate::count("n"));
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows.len(), 1);
        // No trace attached — plan lines still render on their own.
        let lines = plan_lines(&out);
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3], "selection: live rows", "no test, nothing builds");
    }

    #[test]
    fn long_sibling_runs_are_elided() {
        let trace = TraceBuf::new();
        let root = trace.alloc();
        for i in 0..(MAX_CHILDREN_SHOWN + 5) {
            trace.add("morsel", Some(root), i as u64, 1, vec![]);
        }
        trace.record(root, "scan", None, 0, 1000, vec![]);
        let lines = render_span_tree(&trace.spans());
        let shown = lines.iter().filter(|l| l.contains("morsel ")).count();
        assert_eq!(shown, MAX_CHILDREN_SHOWN);
        assert!(lines.iter().any(|l| l.contains("(+5 more morsel)")), "{lines:?}");
    }
}
