//! The workspace audit driver.
//!
//! Default mode (no arguments) performs the full audit and exits nonzero on
//! any finding:
//!
//! 1. lints every library source file in `crates/*/src` and `src/` with the
//!    `no-panic`, `no-lossy-cast`, and `doc-pub-fn` rules plus the
//!    determinism/concurrency pass (`no-unordered-iter`, `no-entropy`,
//!    `no-raw-spawn`, `no-float-accum-order`, `lock-order`), gating the
//!    findings through the `audit_baseline.toml` suppression baseline;
//! 2. runs the deep runtime invariant validators (`Csr::validate`,
//!    `LayeredGraph::validate`, `Tape::check_graph`, PPR score checks)
//!    against tiny seeded datasets — unconditionally, so structural bugs
//!    surface even in builds where the `debug_assert!` hooks are gone.
//!
//! Flags:
//!
//! - `--json` — lint-only workspace gate: one JSON array of findings on
//!   stdout (`file`, `line`, `rule`, `fingerprint`, `suppressed`,
//!   `message`), per-rule counts on stderr. Scripts parse this.
//! - `--lint-dir <path> [--json]` — lint one directory with every rule
//!   enabled and no baseline (used against the committed fixture trees to
//!   prove each rule fires).
//!
//! Exit code contract (pinned by `tests/cli_contract.rs`): **0** clean,
//! **1** findings, **2** usage/config/IO error (unreadable tree, malformed
//! baseline).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kucnet::{KucNet, KucNetConfig, SelectorKind};
use kucnet_audit::{baseline, lint_dir, workspace_report, Diagnostic, GatedReport, LintOptions};
use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
use kucnet_eval::Recommender;
use kucnet_graph::{
    build_layered_graph, build_pair_computation_graph, KeepAll, LayeringOptions, NodeId,
};
use kucnet_ppr::{validate_scores, PprCache, PprConfig, PprGraph};
use kucnet_tensor::{Matrix, Tape};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        [] => full_audit(),
        ["--json"] => json_gate(),
        ["--lint-dir", dir] => lint_one_dir(Path::new(dir), false),
        ["--lint-dir", dir, "--json"] | ["--json", "--lint-dir", dir] => {
            lint_one_dir(Path::new(dir), true)
        }
        _ => {
            eprintln!("usage: audit [--json] [--lint-dir <path>]");
            ExitCode::from(2)
        }
    }
}

/// Lints a single directory with all rules on and no baseline; exits 1 on
/// any finding.
fn lint_one_dir(dir: &Path, json: bool) -> ExitCode {
    match lint_dir(dir, &LintOptions::default()) {
        Ok(diags) => {
            if json {
                let report = GatedReport { new: diags, ..GatedReport::default() };
                print_json(&report);
                print_rule_counts(&report);
                if report.new.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            } else {
                report_lint(&diags, &format!("{}", dir.display()))
            }
        }
        Err(e) => {
            eprintln!("audit: cannot lint {}: {e}", dir.display());
            ExitCode::from(2)
        }
    }
}

/// `--json`: the lint-only workspace gate with baseline suppression.
fn json_gate() -> ExitCode {
    let report = match workspace_report(&repo_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: workspace gate failed: {e}");
            return ExitCode::from(2);
        }
    };
    print_json(&report);
    print_rule_counts(&report);
    for e in &report.stale {
        eprintln!("audit: stale baseline entry {} [{}] {}", e.file, e.rule, e.fingerprint);
    }
    if report.new.is_empty() && report.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Emits one JSON array of findings (new then suppressed) on stdout.
fn print_json(report: &GatedReport) {
    let mut items = Vec::new();
    for (diags, suppressed) in [(&report.new, false), (&report.suppressed, true)] {
        for d in diags.iter() {
            items.push(format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"fingerprint\":{},\"suppressed\":{},\"message\":{}}}",
                json_str(&baseline::path_key(&d.file)),
                d.line,
                json_str(d.rule),
                json_str(&d.fingerprint),
                suppressed,
                json_str(&d.message),
            ));
        }
    }
    println!("[{}]", items.join(","));
}

/// Per-rule `new/suppressed` counts on stderr (human + script progress).
fn print_rule_counts(report: &GatedReport) {
    let mut counts: std::collections::BTreeMap<&str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for d in &report.new {
        counts.entry(d.rule).or_default().0 += 1;
    }
    for d in &report.suppressed {
        counts.entry(d.rule).or_default().1 += 1;
    }
    for (rule, (new, sup)) in &counts {
        eprintln!("audit: rule {rule}: {new} new, {sup} baselined");
    }
    eprintln!(
        "audit: total {} new, {} baselined, {} stale baseline entr(ies)",
        report.new.len(),
        report.suppressed.len(),
        report.stale.len()
    );
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn full_audit() -> ExitCode {
    let root = repo_root();
    println!("== kucnet-audit: static lint pass ({}) ==", root.display());
    let lint_status = match workspace_report(&root) {
        Ok(report) => {
            for d in &report.new {
                println!("{d}");
            }
            for e in &report.stale {
                println!("stale baseline entry: {} [{}] {}", e.file, e.rule, e.fingerprint);
            }
            if report.new.is_empty() && report.stale.is_empty() {
                println!(
                    "lint: workspace clean ({} baselined finding(s) suppressed)",
                    report.suppressed.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "lint: {} new issue(s), {} stale baseline entr(ies)",
                    report.new.len(),
                    report.stale.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("audit: cannot walk workspace: {e}");
            ExitCode::from(2)
        }
    };

    println!("\n== kucnet-audit: runtime invariant validators ==");
    let mut failures = 0usize;
    for (name, result) in runtime_checks() {
        match result {
            Ok(()) => println!("ok   {name}"),
            Err(msg) => {
                failures += 1;
                println!("FAIL {name}: {msg}");
            }
        }
    }

    if failures > 0 {
        eprintln!("\naudit: {failures} runtime invariant check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("\nruntime invariants: all checks passed");
    lint_status
}

fn report_lint(diags: &[Diagnostic], what: &str) -> ExitCode {
    if diags.is_empty() {
        println!("lint: {what} clean");
        ExitCode::SUCCESS
    } else {
        for d in diags {
            println!("{d}");
        }
        eprintln!("lint: {} issue(s) in {what}", diags.len());
        ExitCode::FAILURE
    }
}

/// The audit binary lives at `crates/audit`; the workspace root is two up.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit has a workspace root two levels up")
        .to_path_buf()
}

/// Every runtime validator run against tiny seeded data, by name.
fn runtime_checks() -> Vec<(&'static str, Result<(), String>)> {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 7);
    let split = traditional_split(&data, 0.2, 11);
    let ckg = data.build_ckg(&split.train);
    let csr = ckg.csr();

    let mut checks: Vec<(&'static str, Result<(), String>)> = Vec::new();

    checks.push(("Csr::validate on generated CKG", csr.validate()));

    // PPR: per-user power iteration scores must be a finite sub-stochastic
    // nonnegative vector; the pruning cache must preserve that per entry.
    let cfg = PprConfig::default();
    let mut ppr_result = Ok(());
    let ppr_graph = PprGraph::new(csr);
    for u in 0..ckg.n_users().min(8) {
        let scores = ppr_graph.scores(NodeId(u as u32), &cfg);
        if let Err(e) = validate_scores(&scores, csr.n_nodes()) {
            ppr_result = Err(format!("user {u}: {e}"));
            break;
        }
    }
    checks.push(("PPR score invariants (first 8 users)", ppr_result));

    let cache = PprCache::compute(csr, ckg.n_users(), &cfg, 32, 2);
    let mut cache_result = Ok(());
    'users: for u in 0..cache.n_users() {
        for &(node, s) in cache.entries(kucnet_graph::UserId(u as u32)) {
            if (node as usize) >= csr.n_nodes() || !s.is_finite() || s < 0.0 {
                cache_result = Err(format!("user {u}: bad cache entry ({node}, {s})"));
                break 'users;
            }
        }
    }
    checks.push(("PprCache entry invariants", cache_result));

    // Layered graphs: the unpruned, PPR-pruned, and pair-wise constructions
    // must all produce edges that exist in the CSR with consistent positions.
    let mut layered_result = Ok(());
    for u in 0..ckg.n_users().min(4) {
        let root = ckg.user_node(kucnet_graph::UserId(u as u32));
        let g = build_layered_graph(csr, root, &LayeringOptions::new(3), &mut KeepAll);
        if let Err(e) = g.validate(csr) {
            layered_result = Err(format!("KeepAll user {u}: {e}"));
            break;
        }
        let mut sel = cache.selector(kucnet_graph::UserId(u as u32), 64);
        let gp = build_layered_graph(csr, root, &LayeringOptions::new(3), &mut sel);
        if let Err(e) = gp.validate(csr) {
            layered_result = Err(format!("PprTopK user {u}: {e}"));
            break;
        }
    }
    checks.push(("LayeredGraph::validate (KeepAll + PprTopK)", layered_result));

    let user0 = ckg.user_node(kucnet_graph::UserId(0));
    let item0 = ckg.item_node(kucnet_graph::ItemId(0));
    let pair = build_pair_computation_graph(csr, user0, item0, 3);
    checks.push(("LayeredGraph::validate (pair computation graph)", pair.validate(csr)));

    // Tape: build a small but representative DAG (matmul, gather, scatter,
    // broadcast, nonlinearity, reduction), run backward, and check the full
    // graph — shapes, topology, finiteness of values and gradients.
    let tape = Tape::new();
    let x = tape.leaf(Matrix::from_fn(6, 4, |r, c| 0.1 * (r as f32) - 0.05 * (c as f32)));
    let w = tape.leaf(Matrix::from_fn(4, 3, |r, c| 0.02 * ((r + c) as f32) - 0.03));
    let b = tape.leaf(Matrix::from_fn(1, 3, |_, c| 0.01 * (c as f32)));
    let h = tape.add_row_broadcast(tape.matmul(x, w), b);
    let g = tape.gather_rows(h, &[0, 2, 2, 5]);
    let s = tape.scatter_add_rows(g, &[1, 0, 3, 1], 4);
    let out = tape.mean_all(tape.sigmoid(s));
    checks.push(("Tape::check_graph before backward", tape.check_graph()));
    tape.backward(out);
    checks.push(("Tape::check_graph after backward", tape.check_graph()));

    // Pooled tape + fused kernels: run the same graph shape twice through
    // one resettable tape so the second pass is served entirely from
    // recycled buffers, then check the graph after each backward.
    // `check_graph`'s aliasing invariant proves no two live nodes were
    // handed overlapping pooled storage — the failure mode pooling risks.
    let pooled = Tape::new();
    let mut pooled_result = Ok(());
    for round in 0..2 {
        pooled.reset();
        let hs = pooled.leaf(Matrix::from_fn(5, 4, |r, c| 0.2 * (r as f32) - 0.1 * (c as f32)));
        let rel = pooled.leaf(Matrix::from_fn(3, 4, |r, c| 0.05 * ((r * c) as f32) - 0.04));
        let bias = pooled.leaf(Matrix::from_fn(1, 2, |_, c| 0.03 * (c as f32)));
        let w_a = pooled.leaf(Matrix::from_fn(2, 1, |r, _| 0.4 - 0.3 * (r as f32)));
        let w_att = pooled.leaf(Matrix::from_fn(4, 2, |r, c| 0.06 * ((r + c) as f32) - 0.1));
        let msg = pooled.gather_pair_add(hs, &[0, 4, 4, 2], rel, &[1, 0, 2, 1]);
        let att = pooled.matmul(msg, w_att);
        let alpha = pooled.attn_edge_score(att, att, bias, w_a);
        let agg = pooled.scale_mask_scatter_add(msg, Some(alpha), None, &[1, 0, 1, 2], 3);
        let loss = pooled.mean_all(pooled.square(agg));
        pooled.backward(loss);
        if let Err(e) = pooled.check_graph() {
            pooled_result = Err(format!("round {round}: {e}"));
            break;
        }
    }
    checks.push(("Tape::check_graph on pooled + fused graph (2 rounds)", pooled_result));

    // End to end: one real training epoch must leave the model's tape-built
    // graphs and parameters finite (KucNet::train_epoch re-checks its own
    // tape under debug assertions; here we verify training completes and the
    // resulting scores are finite).
    let mut model = KucNet::new(
        KucNetConfig::default().with_epochs(1).with_selector(SelectorKind::KeepAll),
        data.build_ckg(&split.train),
    );
    model.fit();
    let mut train_result = Ok(());
    let scores = model.score_items(kucnet_graph::UserId(0));
    if !scores.iter().all(|s| s.is_finite()) {
        train_result = Err("non-finite item score after one training epoch".to_string());
    }
    checks.push(("KucNet one-epoch training sanity", train_result));

    checks
}
