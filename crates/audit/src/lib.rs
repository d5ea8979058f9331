//! # kucnet-audit
//!
//! Self-hosted static analysis plus deep runtime invariant checks for the
//! KUCNet workspace. Three halves:
//!
//! 1. **Linter** ([`lint_workspace`] / [`lint_dir`]): a pure-std Rust
//!    tokenizer and nine rules over every library source file in
//!    `crates/*/src` and `src/`: the original `no-panic`, `no-lossy-cast`,
//!    and `doc-pub-fn` ([`rules`]) plus the determinism/concurrency pass
//!    `no-unordered-iter`, `no-entropy`, `no-raw-spawn`,
//!    `no-float-accum-order`, `lock-order`, and `no-libm-tanh`
//!    ([`rules_concurrency`]).
//!    Suppression is in-line (`// audit: allow(<rule>) — <reason>` or
//!    `// #[allow(kucnet::<rule>)] — <reason>`).
//! 2. **Suppression baseline** ([`baseline`], [`workspace_report`]):
//!    justified legacy findings live in `audit_baseline.toml` keyed by
//!    stable fingerprints; the gate fails on any finding *not* in the
//!    baseline, and `scripts/audit_ratchet.sh` fails if the baseline grows.
//! 3. **Runtime validators** (exercised by the `audit` binary): the
//!    `Csr::validate`, `LayeredGraph::validate`, `Tape::check_graph`, and
//!    `validate_scores` invariant checkers run unconditionally against tiny
//!    seeded datasets, so a broken structural invariant fails the audit even
//!    in release builds where the `debug_assert!` hooks are compiled out.
//!
//! `cargo run -p kucnet-audit --bin audit` exits 0 when clean, 1 on
//! findings, 2 on config/IO errors; `--json` emits machine-readable
//! diagnostics (see `src/bin/audit.rs`).

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod rules_concurrency;

use std::io;
use std::path::{Path, PathBuf};

pub use baseline::{BaselineEntry, GatedReport};
pub use rules::{
    lint_source, Diagnostic, LintOptions, RULE_DOC_PUB_FN, RULE_NO_LOSSY_CAST, RULE_NO_PANIC,
};
pub use rules_concurrency::{
    ConcurrencyConfig, RULE_LOCK_ORDER, RULE_NO_ENTROPY, RULE_NO_FLOAT_ACCUM, RULE_NO_LIBM_TANH,
    RULE_NO_RAW_SPAWN, RULE_NO_UNORDERED_ITER,
};

/// Crates whose ids flow through `u32` spaces; only these get the
/// `no-lossy-cast` rule (elsewhere, `as` casts of float statistics are
/// routine and harmless). `serve` is included because its request ids,
/// counters, and histogram math must stay exact for arbitrary client input;
/// `par` because its work-item indices feed every other crate's id spaces;
/// `tensor` because the pooled-tape and fused edge-message kernels route
/// `u32` row indices through every gather/scatter hot path, where a silent
/// truncation would read or write the wrong row; `dynamic` because its write path
/// funnels raw client-supplied ids into the graph's `u32` node and relation
/// spaces.
const LOSSY_CAST_CRATES: [&str; 6] = ["graph", "ppr", "serve", "par", "tensor", "dynamic"];

/// Crates under the bitwise-reproducibility contract (DESIGN.md §10): every
/// value they compute must be a pure function of config + seed, so hash
/// iteration order, entropy sources, and unordered float reductions are
/// hazards. `serve` and `bench` are exempt from those three rules — they
/// time things and shuffle client load on purpose — but still get
/// `no-raw-spawn` (serve's long-lived service threads are baselined) and
/// `lock-order`. `dynamic` is in: its refresh ticks must replay to
/// byte-identical epochs, so wall clocks and unordered iteration are bugs
/// there, not conveniences.
const DETERMINISTIC_CRATES: [&str; 7] =
    ["core", "datasets", "eval", "graph", "par", "ppr", "dynamic"];

/// The default baseline location relative to the repo root.
pub const BASELINE_FILE: &str = "audit_baseline.toml";

/// Per-module upgrades layered on top of the owning crate's rule config.
/// The sharded serving path (DESIGN.md §17) spans three crates whose new
/// modules carry stricter contracts than their crates' defaults: `core` and
/// `datasets` are not lossy-cast crates, but these modules funnel u64
/// segment addresses and on-disk island records into `u32` id spaces (and
/// `frozen.rs` maps every source's layout-global node ids to item ids), so
/// a bare narrowing there is a real corruption hazard.
const MODULE_LOSSY_CAST: [&str; 3] =
    ["crates/core/src/frozen.rs", "crates/core/src/sharded.rs", "crates/datasets/src/scale.rs"];

/// Applies the per-module upgrade lists to one repo-relative file path.
/// Only ever *tightens* the crate config, so a module list entry can never
/// silently exempt a file from its crate's rules.
fn options_for_module(shown: &Path, crate_opts: LintOptions) -> LintOptions {
    let key: String = shown.iter().map(|c| c.to_string_lossy()).collect::<Vec<_>>().join("/");
    let mut opts = crate_opts;
    if MODULE_LOSSY_CAST.contains(&key.as_str()) {
        opts.lossy_casts = true;
    }
    opts
}

/// Rule toggles for one crate, by directory name.
fn options_for_crate(name: &str) -> LintOptions {
    let deterministic = DETERMINISTIC_CRATES.contains(&name);
    LintOptions {
        lossy_casts: LOSSY_CAST_CRATES.contains(&name),
        concurrency: ConcurrencyConfig {
            unordered_iter: deterministic,
            entropy: deterministic,
            // All parallelism funnels through kucnet-par, which is the one
            // crate allowed to touch std::thread directly.
            raw_spawn: name != "par",
            float_accum: deterministic,
            lock_order: true,
        },
    }
}

/// Lints every `.rs` file under `dir` (recursively), sorted by path for
/// deterministic output. Files under a `bin/` directory are skipped: the
/// rules target library code, and CLI binaries legitimately exit via panics
/// and print paths. Diagnostics carry baseline fingerprints; paths are
/// reported relative to `display_root` when given (the workspace gate uses
/// the repo root so fingerprints are machine-independent).
pub fn lint_dir_rel(
    dir: &Path,
    display_root: Option<&Path>,
    opts: &LintOptions,
) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs_files(dir, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let shown = match display_root {
            Some(root) => file.strip_prefix(root).unwrap_or(&file).to_path_buf(),
            None => file.clone(),
        };
        let mut diags = lint_source(&shown, &source, &options_for_module(&shown, *opts));
        baseline::stamp_fingerprints(&mut diags, &baseline::path_key(&shown), &source);
        out.extend(diags);
        sources.push((shown, source));
    }
    if opts.concurrency.lock_order {
        let mut diags = rules_concurrency::lock_order_rules(&sources);
        diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let mut i = 0;
        while i < diags.len() {
            let mut j = i + 1;
            while j < diags.len() && diags[j].file == diags[i].file {
                j += 1;
            }
            if let Some((file, src)) = sources.iter().find(|(f, _)| *f == diags[i].file) {
                baseline::stamp_fingerprints(&mut diags[i..j], &baseline::path_key(file), src);
            }
            i = j;
        }
        out.extend(diags);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

/// [`lint_dir_rel`] with absolute display paths (fixture and one-off runs).
pub fn lint_dir(dir: &Path, opts: &LintOptions) -> io::Result<Vec<Diagnostic>> {
    lint_dir_rel(dir, None, opts)
}

/// Lints the whole workspace rooted at `repo_root`: each `crates/<name>/src`
/// tree plus the root `src/`, with per-crate rule configs
/// ([`options_for_crate`]). Fixture trees (anything not directly under a
/// crate's own `src`) are naturally excluded. Paths in the returned
/// diagnostics are repo-relative.
pub fn lint_workspace(repo_root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut targets: Vec<(PathBuf, LintOptions)> = Vec::new();
    let crates_dir = repo_root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    for name in names {
        let src = crates_dir.join(&name).join("src");
        if src.is_dir() {
            targets.push((src, options_for_crate(&name)));
        }
    }
    // The root crate is re-export glue: deterministic-crate rules apply.
    targets.push((repo_root.join("src"), options_for_crate("root")));

    let mut out = Vec::new();
    for (dir, opts) in targets {
        out.extend(lint_dir_rel(&dir, Some(repo_root), &opts)?);
    }
    Ok(out)
}

/// Reads the baseline file (missing file = empty baseline) and returns it
/// alongside any parse failure mapped to `io::ErrorKind::InvalidData` —
/// the binary turns that into exit code 2.
pub fn load_baseline(repo_root: &Path) -> io::Result<Vec<BaselineEntry>> {
    let path = repo_root.join(BASELINE_FILE);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path)?;
    baseline::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The full workspace gate: lint, then split findings through the
/// suppression baseline. The audit passes iff `report.new` is empty.
pub fn workspace_report(repo_root: &Path) -> io::Result<GatedReport> {
    let diags = lint_workspace(repo_root)?;
    let entries = load_baseline(repo_root)?;
    Ok(baseline::apply(diags, &entries))
}

/// Recursively gathers `.rs` files, skipping `bin/` directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            if entry.file_name() == "bin" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn repo_root() -> PathBuf {
        // crates/audit -> crates -> repo root
        Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("repo root").to_path_buf()
    }

    fn fixture(rel: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rel)
    }

    #[test]
    fn workspace_gate_is_clean() {
        let report = workspace_report(&repo_root()).expect("workspace readable");
        assert!(
            report.new.is_empty(),
            "workspace lint found {} unbaselined issue(s):\n{}",
            report.new.len(),
            report.new.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
        assert!(
            report.stale.is_empty(),
            "audit_baseline.toml holds {} stale entr(ies) — delete them:\n{}",
            report.stale.len(),
            report
                .stale
                .iter()
                .map(|e| format!("{} [{}] {}", e.file, e.rule, e.fingerprint))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn baseline_only_holds_serve_service_threads() {
        // The baseline is a debt ledger, not a dumping ground: today it may
        // only contain the serve crate's justified long-lived raw spawns.
        let entries = load_baseline(&repo_root()).expect("baseline readable");
        for e in &entries {
            assert_eq!(e.rule, RULE_NO_RAW_SPAWN, "unexpected baselined rule: {e:?}");
            assert!(e.file.starts_with("crates/serve/src/"), "unexpected baselined file: {e:?}");
            assert!(!e.note.is_empty(), "baseline entries need a justification note: {e:?}");
        }
    }

    #[test]
    fn module_upgrade_lists_only_tighten() {
        let core = options_for_crate("core");
        assert!(!core.lossy_casts, "core gaining crate-wide lossy-cast? update this test");
        let sharded = options_for_module(Path::new("crates/core/src/sharded.rs"), core);
        assert!(sharded.lossy_casts, "sharded.rs must get no-lossy-cast");
        let frozen = options_for_module(Path::new("crates/core/src/frozen.rs"), core);
        assert!(frozen.lossy_casts, "frozen.rs (shared build + scoring) must get no-lossy-cast");

        let datasets = options_for_crate("datasets");
        let scale = options_for_module(Path::new("crates/datasets/src/scale.rs"), datasets);
        assert!(scale.lossy_casts, "scale.rs must get no-lossy-cast");

        // The upgrade only tightens: crate-level toggles stay on, and files
        // not on a list keep their crate's config untouched.
        assert!(sharded.concurrency.unordered_iter && sharded.concurrency.raw_spawn);
        let serve = options_for_crate("serve");
        let other = options_for_module(Path::new("crates/serve/src/http.rs"), serve);
        assert!(other.lossy_casts && !other.concurrency.entropy);
    }

    #[test]
    fn fixtures_trip_every_rule() {
        let diags = lint_dir(&fixture("bad/src"), &LintOptions::default()).expect("readable");
        let fired: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
        for rule in [RULE_NO_PANIC, RULE_NO_LOSSY_CAST, RULE_DOC_PUB_FN] {
            assert!(fired.contains(rule), "fixture did not trip {rule}: {diags:?}");
        }
    }

    #[test]
    fn concurrency_fixtures_trip_each_rule_exactly_once() {
        let cases = [
            ("bad_concurrency/unordered_iter/src", RULE_NO_UNORDERED_ITER),
            ("bad_concurrency/entropy/src", RULE_NO_ENTROPY),
            ("bad_concurrency/raw_spawn/src", RULE_NO_RAW_SPAWN),
            ("bad_concurrency/float_accum/src", RULE_NO_FLOAT_ACCUM),
            ("bad_concurrency/lock_order/src", RULE_LOCK_ORDER),
            ("bad_concurrency/libm_tanh/src", RULE_NO_LIBM_TANH),
        ];
        for (dir, rule) in cases {
            let diags = lint_dir(&fixture(dir), &LintOptions::default()).expect("readable");
            assert_eq!(diags.len(), 1, "{dir} must trip exactly one finding, got: {diags:?}");
            assert_eq!(diags[0].rule, rule, "{dir} tripped the wrong rule: {diags:?}");
            assert_eq!(diags[0].fingerprint.len(), 16, "fingerprint stamped: {diags:?}");
        }
    }

    #[test]
    fn good_concurrency_fixture_is_clean() {
        let diags =
            lint_dir(&fixture("good_concurrency/src"), &LintOptions::default()).expect("readable");
        assert!(diags.is_empty(), "clean fixture tripped: {diags:?}");
    }

    #[test]
    fn fixtures_are_not_reached_by_workspace_walk() {
        let diags = lint_workspace(&repo_root()).expect("workspace readable");
        assert!(
            diags.iter().all(|d| !d.file.components().any(|c| c.as_os_str() == "fixtures")),
            "workspace walk leaked into fixtures"
        );
    }

    #[test]
    fn bin_directories_are_exempt() {
        // The repo root src/bin holds CLI entry points; the walker must not
        // visit them (they print paths and exit — not library code).
        let root = repo_root();
        let diags = lint_workspace(&root).expect("workspace readable");
        assert!(
            diags.iter().all(|d| !d.file.components().any(|c| c.as_os_str() == "bin")),
            "lint walked into a bin/ directory"
        );
    }

    #[test]
    fn workspace_paths_are_repo_relative() {
        // Fingerprints embed the path; it must not depend on where the repo
        // is checked out.
        let diags = lint_workspace(&repo_root()).expect("workspace readable");
        assert!(diags.iter().all(|d| d.file.is_relative()), "absolute path leaked into gate");
    }
}
