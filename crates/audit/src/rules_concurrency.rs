//! Determinism & concurrency rules.
//!
//! Six token-level rules that make the workspace's reproducibility
//! guarantees *statically* checkable instead of relying solely on the
//! differential/chaos suites sampling the right schedule:
//!
//! - **`no-unordered-iter`** — iterating a `HashMap`/`HashSet` leaks hash
//!   order into results. Flagged in the deterministic crates unless the
//!   iteration is immediately sorted, collected into an ordered container,
//!   or fed into an order-insensitive sink (`count`, `min`, `max`, `any`,
//!   `all`, integer `sum`).
//! - **`no-entropy`** — `thread_rng`, `from_entropy`, `SystemTime::now`,
//!   and `Instant::now`-derived seeds inject run-to-run entropy. Timing-only
//!   `Instant::now` (no seed in the same statement) is fine.
//! - **`no-raw-spawn`** — `thread::spawn` bypasses the ordered `kucnet-par`
//!   pool; all compute parallelism must go through it so results reduce in
//!   index order. Long-lived service threads in `serve` are baselined.
//! - **`no-float-accum-order`** — `.sum::<f32>()`/`.fold(..)` over a
//!   par-produced collection is only deterministic if the reduction order
//!   is; the `kucnet_par::ordered_*` helpers make that explicit.
//! - **`lock-order`** — builds a per-crate lock-acquisition graph from
//!   `Mutex`/`RwLock` field names and flags pairs acquired in both orders
//!   (the classic AB/BA deadlock shape).
//! - **`no-libm-tanh`** — `f32::tanh`/`f64::tanh` paths and zero-argument
//!   `.tanh()` calls reach the host C library, whose results vary between
//!   libcs and versions. Every crate uses `kucnet_tensor::tanh` instead;
//!   only its own file, `crates/tensor/src/tanh.rs`, is exempt.
//!
//! All rules are token-stream heuristics, not type-checked analysis: names
//! are tracked by declaration-site type mentions, and acquisition "held"
//! scopes are over-approximated to the rest of the function body. False
//! positives are expected to be rare and are silenced with a
//! `// #[allow(kucnet::<rule>)] — <reason>` comment-annotation or recorded
//! in `audit_baseline.toml`. Known blind spots: locks reached through
//! free-function calls (the graph is per-body), `thread::Builder` spawns,
//! and hash maps aliased through untyped bindings.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::lexer::{tokenize, turbofish_after, Tok, TokKind};
use crate::rules::{allowed, next_code, prev_code, test_code_mask, Diagnostic};

/// Rule name: forbid unordered `HashMap`/`HashSet` iteration.
pub const RULE_NO_UNORDERED_ITER: &str = "no-unordered-iter";
/// Rule name: forbid run-to-run entropy sources in deterministic crates.
pub const RULE_NO_ENTROPY: &str = "no-entropy";
/// Rule name: forbid `thread::spawn` outside the ordered pool crate.
pub const RULE_NO_RAW_SPAWN: &str = "no-raw-spawn";
/// Rule name: forbid order-sensitive float reductions of par results.
pub const RULE_NO_FLOAT_ACCUM: &str = "no-float-accum-order";
/// Rule name: flag cyclic lock-acquisition orders.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule name: forbid the host libm's tanh outside the workspace kernel.
pub const RULE_NO_LIBM_TANH: &str = "no-libm-tanh";

/// The file that holds the workspace's one tanh, exempt from
/// `no-libm-tanh`.
const TANH_KERNEL_FILE: &str = "crates/tensor/src/tanh.rs";

/// Per-crate toggles for the concurrency rules. `lint_workspace` switches
/// the first three on only for the deterministic-crate allowlist; `serve`
/// and `bench` keep entropy/unordered iteration (timing, shuffled client
/// load) but still get `no-raw-spawn` and `lock-order`.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrencyConfig {
    /// Enables `no-unordered-iter`.
    pub unordered_iter: bool,
    /// Enables `no-entropy`.
    pub entropy: bool,
    /// Enables `no-raw-spawn`.
    pub raw_spawn: bool,
    /// Enables `no-float-accum-order`.
    pub float_accum: bool,
    /// Enables `lock-order` (checked at directory granularity by
    /// [`lock_order_rules`], not per file).
    pub lock_order: bool,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        Self {
            unordered_iter: true,
            entropy: true,
            raw_spawn: true,
            float_accum: true,
            lock_order: true,
        }
    }
}

/// Iterator-producing methods on hash containers: reaching one of these in
/// a use chain means hash order escapes.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Order-insensitive sinks: a hash iteration ending in one of these
/// produces the same value for every iteration order.
const SINK_METHODS: [&str; 5] = ["count", "min", "max", "any", "all"];

/// Parallel-map entry points whose results are index-ordered but whose
/// float reductions must still be explicit.
const PAR_FNS: [&str; 3] = ["par_map", "par_map_with", "par_try_map_with"];

/// The blessed ordered-reduction helpers from `kucnet-par`.
const ORDERED_HELPERS: [&str; 3] = ["ordered_sum_f32", "ordered_sum_f64", "ordered_fold"];

/// Runs the per-file concurrency rules (everything except `lock-order`,
/// which needs the whole directory) and returns suppression-filtered
/// diagnostics. `skipped` is the test-code mask for `toks`.
pub fn file_rules(
    file: &Path,
    source: &str,
    toks: &[Tok],
    skipped: &[bool],
    cfg: &ConcurrencyConfig,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut dedupe: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    let mut flag = |line: u32, rule: &'static str, message: String| {
        if dedupe.insert((line, rule)) && !allowed(source, line, rule) {
            out.push(Diagnostic {
                file: file.to_path_buf(),
                line,
                rule,
                message,
                fingerprint: String::new(),
            });
        }
    };
    if cfg.unordered_iter {
        unordered_iter_rule(toks, skipped, &mut flag);
    }
    if cfg.entropy {
        entropy_rule(toks, skipped, &mut flag);
    }
    if cfg.raw_spawn {
        raw_spawn_rule(toks, skipped, &mut flag);
    }
    if cfg.float_accum {
        float_accum_rule(toks, skipped, &mut flag);
    }
    if !file.ends_with(TANH_KERNEL_FILE) {
        libm_tanh_rule(toks, skipped, &mut flag);
    }
    out
}

/// Names declared (via `name: Type` ascription or a `let name = ...` whose
/// initializer mentions a hash container) as `HashMap`/`HashSet` values.
/// The flag is true when the declaration mentions *two or more* hash
/// container names — i.e. the value side is itself a hash container, so a
/// `.get(..)` result is still unordered.
fn tracked_hash_names(toks: &[Tok]) -> BTreeMap<String, bool> {
    let mut tracked = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "let" {
            // `let [mut] NAME = <expr mentioning HashMap/HashSet> ;`
            let Some(mut n) = next_code(toks, i) else { continue };
            if toks[n].kind == TokKind::Ident && toks[n].text == "mut" {
                let Some(n2) = next_code(toks, n) else { continue };
                n = n2;
            }
            if toks[n].kind != TokKind::Ident {
                continue;
            }
            let name = toks[n].text.clone();
            let Some(eq) = next_code(toks, n) else { continue };
            if toks[eq].kind != TokKind::Punct('=') {
                continue; // `let name: T` is handled by the `:` pass below
            }
            let hashes = count_hash_idents(toks, eq + 1, stmt_end(toks, eq + 1));
            if hashes > 0 {
                tracked.insert(name, hashes >= 2);
            }
        } else if matches!(next_code(toks, i), Some(c) if toks[c].kind == TokKind::Punct(':')) {
            // `NAME: <type region>` — params, struct fields, typed lets.
            let colon = next_code(toks, i).unwrap_or(i);
            let end = type_region_end(toks, colon + 1);
            let hashes = count_hash_idents(toks, colon + 1, end);
            if hashes > 0 {
                tracked.insert(t.text.clone(), hashes >= 2);
            }
        }
    }
    tracked
}

/// Counts `HashMap`/`HashSet` identifiers in `toks[from..to]`.
fn count_hash_idents(toks: &[Tok], from: usize, to: usize) -> usize {
    toks[from..to.min(toks.len())]
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet"))
        .count()
}

/// End (exclusive) of the type region starting at `from` (just past a `:`):
/// scans until a `, ; ) } = | {` at zero bracket/angle depth. `->` is
/// recognized so its `>` does not close an angle bracket.
fn type_region_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0i64;
    let mut angle = 0i64;
    for k in from..toks.len() {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                if k > 0 && toks[k - 1].kind == TokKind::Punct('-') {
                    continue; // `->` in an fn-pointer type
                }
                angle -= 1;
                if angle < 0 {
                    return k;
                }
            }
            TokKind::Punct(',')
            | TokKind::Punct(';')
            | TokKind::Punct('=')
            | TokKind::Punct('|')
            | TokKind::Punct('{')
            | TokKind::Punct('}')
                if depth == 0 && angle == 0 =>
            {
                return k;
            }
            _ => {}
        }
    }
    toks.len()
}

/// First token of the statement containing `i`: walks backwards to just
/// past the nearest unmatched `{`/`(`/`[` or same-depth `;`.
fn stmt_start(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut k = i;
    while k > 0 {
        match toks[k - 1].kind {
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k -= 1;
    }
    0
}

/// Token index of the `;` (or unmatched closer) ending the statement that
/// contains `i`; returns `toks.len()` at EOF. Blocks nested inside the
/// statement (match arms, closure bodies) are scanned through.
fn stmt_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    for k in i..toks.len() {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len()
}

/// One `.method(...)` chain step after token `j`; returns `(method_index,
/// index_of_closing_paren)` when `toks[j+1..]` starts `. m [::<..>] ( .. )`.
fn chain_step(toks: &[Tok], j: usize) -> Option<(usize, usize)> {
    let dot = next_code(toks, j)?;
    if toks[dot].kind != TokKind::Punct('.') {
        return None;
    }
    let m = next_code(toks, dot)?;
    if toks[m].kind != TokKind::Ident {
        return None;
    }
    // Skip an optional turbofish to the argument list.
    let mut open = next_code(toks, m)?;
    if toks[open].kind == TokKind::PathSep {
        let lt = next_code(toks, open)?;
        if toks[lt].kind != TokKind::Punct('<') {
            return None;
        }
        let mut angle = 0i64;
        let mut after = None;
        for k in lt..toks.len() {
            match toks[k].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    angle -= 1;
                    if angle == 0 {
                        after = next_code(toks, k);
                        break;
                    }
                }
                _ => {}
            }
        }
        open = after?;
    }
    if toks[open].kind != TokKind::Punct('(') {
        // Field access or a method without a call — not a chain step.
        return None;
    }
    let mut depth = 0i64;
    for k in open..toks.len() {
        match toks[k].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some((m, k));
                }
            }
            _ => {}
        }
    }
    None
}

/// Collects the full method chain rooted at token `j` (a name or a closing
/// paren): returns the method-ident indices in order.
fn collect_chain(toks: &[Tok], mut j: usize) -> Vec<usize> {
    let mut methods = Vec::new();
    while let Some((m, close)) = chain_step(toks, j) {
        methods.push(m);
        j = close;
    }
    methods
}

/// `no-unordered-iter`: flags `for` loops over tracked hash names and
/// iterator-method chains on them, minus the sorted/sink exemptions.
fn unordered_iter_rule<F>(toks: &[Tok], skipped: &[bool], flag: &mut F)
where
    F: FnMut(u32, &'static str, String),
{
    let tracked = tracked_hash_names(toks);
    if tracked.is_empty() {
        return;
    }
    // for-loop headers: `for PAT in <header> {`.
    let mut header_ranges: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident || t.text != "for" {
            continue;
        }
        // `impl Trait for Type` has no `in`; `for<'a>` opens with `<`.
        let Some((header_start, header_end)) = for_header(toks, i) else { continue };
        header_ranges.push((header_start, header_end));
        for k in header_start..header_end {
            if toks[k].kind != TokKind::Ident {
                continue;
            }
            let Some(&value_is_hash) = tracked.get(&toks[k].text) else { continue };
            let methods = collect_chain(toks, k);
            let names: Vec<&str> = methods.iter().map(|&m| toks[m].text.as_str()).collect();
            let verdict = if names.is_empty() {
                true // iterated directly (possibly via `&`/`&mut`)
            } else if names.iter().any(|m| ITER_METHODS.contains(m)) {
                !chain_is_exempt(toks, &methods)
            } else if names[0] == "get" && value_is_hash {
                true // Option<&HashSet<_>> in a for header is iterated
            } else {
                // `m.len()`, `m.contains(..)`, unknown-returning methods:
                // no direct evidence that hash order escapes.
                false
            };
            if verdict {
                flag(
                    toks[i].line,
                    RULE_NO_UNORDERED_ITER,
                    format!(
                        "iterating hash container `{}` leaks nondeterministic order; use a \
                         BTree container, sort first, or annotate with \
                         `// #[allow(kucnet::unordered_iter)] — <reason>`",
                        toks[k].text
                    ),
                );
            }
            break; // judge only the first tracked name per header
        }
    }
    // Method chains outside for headers: `m.iter()...` must end ordered.
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident {
            continue;
        }
        if !tracked.contains_key(&t.text) {
            continue;
        }
        if header_ranges.iter().any(|&(s, e)| i >= s && i < e) {
            continue; // already judged by the for-header pass
        }
        let methods = collect_chain(toks, i);
        if !methods.iter().any(|&m| ITER_METHODS.contains(&toks[m].text.as_str())) {
            continue;
        }
        if chain_is_exempt(toks, &methods) {
            continue;
        }
        flag(
            t.line,
            RULE_NO_UNORDERED_ITER,
            format!(
                "hash-order iteration of `{}` escapes into an ordered context; collect into \
                 a BTree container, sort the result, or annotate with \
                 `// #[allow(kucnet::unordered_iter)] — <reason>`",
                t.text
            ),
        );
    }
}

/// Bounds of a `for ... in <header> {` header, if the `for` at `i` is a
/// loop (not `impl ... for` or `for<'a>`).
fn for_header(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    if matches!(next_code(toks, i), Some(n) if toks[n].kind == TokKind::Punct('<')) {
        return None;
    }
    let mut depth = 0i64;
    let mut k = i + 1;
    let start = loop {
        let t = toks.get(k)?;
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') | TokKind::Punct(';') if depth == 0 => return None,
            TokKind::Ident if depth == 0 && t.text == "in" => break k + 1,
            _ => {}
        }
        k += 1;
    };
    let mut depth = 0i64;
    for k in start..toks.len() {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some((start, k)),
            _ => {}
        }
    }
    None
}

/// True when an iterator chain ends somewhere order-insensitive: a sink
/// method, an integer `sum`, `collect` into an ordered (or still-hashed)
/// container, or a `let`-bound vector that the *next* statement sorts.
fn chain_is_exempt(toks: &[Tok], methods: &[usize]) -> bool {
    for &m in methods {
        let name = toks[m].text.as_str();
        if SINK_METHODS.contains(&name) || name.starts_with("sort") {
            return true;
        }
        if name == "sum" || name == "product" {
            // Integer reduction is order-insensitive; float is not.
            match turbofish_after(toks, m) {
                Some(tys) => {
                    if !tys.iter().any(|t| t == "f32" || t == "f64") {
                        return true;
                    }
                }
                None => return false,
            }
        }
        if name == "collect" {
            if let Some(tys) = turbofish_after(toks, m) {
                if collects_reorderable(&tys) {
                    return true;
                }
            } else if let Some(first) = methods.first() {
                // No turbofish: the target type is on the `let`, or the
                // binding is sorted by the very next statement.
                let s = stmt_start(toks, *first);
                if let_type_is_reorderable(toks, s) || next_stmt_sorts_binding(toks, s) {
                    return true;
                }
            }
        }
    }
    false
}

/// Collection targets that either restore a canonical order (BTree*,
/// BinaryHeap) or stay unordered-but-unobserved (Hash*): both are fine —
/// a later leaky iteration of the re-collected hash gets its own finding.
fn collects_reorderable(type_names: &[String]) -> bool {
    type_names
        .iter()
        .any(|t| t.starts_with("BTree") || t == "BinaryHeap" || t == "HashMap" || t == "HashSet")
}

/// True when the statement starting at `s` is `let [mut] NAME: <ty> = ...`
/// with an ordered/hash collection type.
fn let_type_is_reorderable(toks: &[Tok], s: usize) -> bool {
    if toks.get(s).map(|t| t.text.as_str()) != Some("let") {
        return false;
    }
    let end = stmt_end(toks, s);
    let mut names = Vec::new();
    for t in &toks[s..end.min(toks.len())] {
        if t.kind == TokKind::Punct('=') {
            break;
        }
        if t.kind == TokKind::Ident {
            names.push(t.text.clone());
        }
    }
    collects_reorderable(&names)
}

/// True when the statement at `s` is `let [mut] NAME = ...;` and the next
/// statement starts `NAME.sort...`.
fn next_stmt_sorts_binding(toks: &[Tok], s: usize) -> bool {
    if toks.get(s).map(|t| t.text.as_str()) != Some("let") {
        return false;
    }
    let Some(mut n) = next_code(toks, s) else { return false };
    if toks[n].kind == TokKind::Ident && toks[n].text == "mut" {
        match next_code(toks, n) {
            Some(n2) => n = n2,
            None => return false,
        }
    }
    if toks[n].kind != TokKind::Ident {
        return false;
    }
    let name = toks[n].text.as_str();
    let semi = stmt_end(toks, n);
    let Some(first) = next_code(toks, semi) else { return false };
    if toks[first].kind != TokKind::Ident || toks[first].text != name {
        return false;
    }
    let Some(dot) = next_code(toks, first) else { return false };
    let Some(meth) = next_code(toks, dot) else { return false };
    toks[dot].kind == TokKind::Punct('.')
        && toks[meth].kind == TokKind::Ident
        && toks[meth].text.starts_with("sort")
}

/// `no-entropy`: flags run-to-run entropy sources. `Instant::now` is only
/// an entropy source when the same statement derives a seed from it.
fn entropy_rule<F>(toks: &[Tok], skipped: &[bool], flag: &mut F)
where
    F: FnMut(u32, &'static str, String),
{
    const SEED_HINTS: [&str; 5] = ["seed", "seed_from_u64", "from_seed", "SmallRng", "StdRng"];
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "thread_rng" => {
                if matches!(next_code(toks, i), Some(n) if toks[n].kind == TokKind::Punct('(')) {
                    flag(
                        t.line,
                        RULE_NO_ENTROPY,
                        "thread_rng() draws OS entropy; seed a SmallRng deterministically \
                         instead"
                            .to_string(),
                    );
                }
            }
            "from_entropy" => {
                flag(
                    t.line,
                    RULE_NO_ENTROPY,
                    "from_entropy seeds from the OS; derive the seed from the run config"
                        .to_string(),
                );
            }
            "SystemTime" | "Instant" => {
                let Some(sep) = next_code(toks, i) else { continue };
                let Some(now) = next_code(toks, sep) else { continue };
                if toks[sep].kind != TokKind::PathSep
                    || toks[now].kind != TokKind::Ident
                    || toks[now].text != "now"
                {
                    continue;
                }
                let is_seed_context = t.text == "SystemTime" || {
                    let (s, e) = (stmt_start(toks, i), stmt_end(toks, i));
                    toks[s..e.min(toks.len())]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && SEED_HINTS.contains(&t.text.as_str()))
                };
                if is_seed_context {
                    flag(
                        t.line,
                        RULE_NO_ENTROPY,
                        format!(
                            "{}::now() makes the run depend on wall-clock state; derive \
                             seeds from the run config",
                            t.text
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// `no-raw-spawn`: flags `thread::spawn` (any path ending in it).
fn raw_spawn_rule<F>(toks: &[Tok], skipped: &[bool], flag: &mut F)
where
    F: FnMut(u32, &'static str, String),
{
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident || t.text != "thread" {
            continue;
        }
        let Some(sep) = next_code(toks, i) else { continue };
        let Some(sp) = next_code(toks, sep) else { continue };
        if toks[sep].kind == TokKind::PathSep
            && toks[sp].kind == TokKind::Ident
            && toks[sp].text == "spawn"
        {
            flag(
                t.line,
                RULE_NO_RAW_SPAWN,
                "raw thread::spawn bypasses the ordered kucnet-par pool; use par_map/\
                 par_map_with (or baseline a justified long-lived service thread)"
                    .to_string(),
            );
        }
    }
}

/// `no-libm-tanh`: flags `f32::tanh` / `f64::tanh` paths (called or passed
/// as a function) and zero-argument `.tanh()` method calls. `Tape::tanh`
/// takes an argument and `kucnet_tensor::tanh` is neither form, so both
/// pass.
fn libm_tanh_rule<F>(toks: &[Tok], skipped: &[bool], flag: &mut F)
where
    F: FnMut(u32, &'static str, String),
{
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident || t.text != "tanh" {
            continue;
        }
        let Some(before) = prev_code(toks, i) else { continue };
        let float_path = toks[before].kind == TokKind::PathSep
            && matches!(prev_code(toks, before), Some(ty) if toks[ty].kind == TokKind::Ident
                && (toks[ty].text == "f32" || toks[ty].text == "f64"));
        let no_arg_method = toks[before].kind == TokKind::Punct('.')
            && matches!(next_code(toks, i), Some(open) if toks[open].kind == TokKind::Punct('(')
                && matches!(next_code(toks, open), Some(close)
                    if toks[close].kind == TokKind::Punct(')')));
        if float_path || no_arg_method {
            flag(
                t.line,
                RULE_NO_LIBM_TANH,
                "libm tanh varies between C libraries and does not vectorise; call \
                 kucnet_tensor::tanh"
                    .to_string(),
            );
        }
    }
}

/// `no-float-accum-order`: flags `.sum::<f32|f64>()` / `.fold(float, ..)`
/// in a statement whose receiver expression involves a par fn or a binding
/// produced by one, unless the statement uses the `ordered_*` helpers.
fn float_accum_rule<F>(toks: &[Tok], skipped: &[bool], flag: &mut F)
where
    F: FnMut(u32, &'static str, String),
{
    // Bindings whose initializer mentions a par fn.
    let mut par_vars: BTreeSet<String> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "let" {
            continue;
        }
        let Some(mut n) = next_code(toks, i) else { continue };
        if toks[n].kind == TokKind::Ident && toks[n].text == "mut" {
            match next_code(toks, n) {
                Some(n2) => n = n2,
                None => continue,
            }
        }
        if toks[n].kind != TokKind::Ident {
            continue;
        }
        let end = stmt_end(toks, n);
        if toks[n + 1..end.min(toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && PAR_FNS.contains(&t.text.as_str()))
        {
            par_vars.insert(toks[n].text.clone());
        }
    }

    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident {
            continue;
        }
        let is_sum = t.text == "sum";
        let is_fold = t.text == "fold";
        if !is_sum && !is_fold {
            continue;
        }
        // Must be a call: `.sum::<..>()` / `.fold(..)`.
        let called = match next_code(toks, i) {
            Some(n) if toks[n].kind == TokKind::Punct('(') => true,
            Some(n) if toks[n].kind == TokKind::PathSep => true, // turbofish
            _ => false,
        };
        if !called {
            continue;
        }
        let s = stmt_start(toks, i);
        let e = stmt_end(toks, i);
        let stmt = &toks[s..e.min(toks.len())];
        if stmt
            .iter()
            .any(|t| t.kind == TokKind::Ident && ORDERED_HELPERS.contains(&t.text.as_str()))
        {
            continue;
        }
        // The par producer must sit at the same (or outer) bracket depth as
        // the reduction — a fold *inside* a par closure is a different,
        // per-item reduction and is fine.
        let depth_at = |target: usize| -> i64 {
            let mut d = 0i64;
            for t in &toks[s..target] {
                match t.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                    _ => {}
                }
            }
            d
        };
        let red_depth = depth_at(i);
        let par_context = (s..i).any(|k| {
            toks[k].kind == TokKind::Ident
                && (PAR_FNS.contains(&toks[k].text.as_str()) || par_vars.contains(&toks[k].text))
                && depth_at(k) >= red_depth
        });
        if !par_context {
            continue;
        }
        let is_float = if is_sum {
            match turbofish_after(toks, i) {
                Some(tys) => tys.iter().any(|t| t == "f32" || t == "f64"),
                None => true, // unknown element type: be conservative
            }
        } else {
            fold_seed_is_float(toks, i)
        };
        if is_float {
            flag(
                t.line,
                RULE_NO_FLOAT_ACCUM,
                format!(
                    "float `{}` over a par-produced collection depends on reduction order; \
                     use kucnet_par::ordered_sum_f32/ordered_sum_f64/ordered_fold",
                    t.text
                ),
            );
        }
    }
}

/// Inspects the first argument of the `fold(` call at ident `i`: a float
/// literal or f32/f64 mention means a float accumulator; a bare integer
/// literal means an order-insensitive integer fold. Unknown counts as float.
fn fold_seed_is_float(toks: &[Tok], i: usize) -> bool {
    let Some(open) = next_code(toks, i) else { return true };
    if toks[open].kind != TokKind::Punct('(') {
        return true;
    }
    let mut depth = 0i64;
    for t in toks.iter().skip(open) {
        match &t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return true; // no comma seen: opaque seed expression
                }
            }
            TokKind::Punct(',') if depth == 1 => return true, // non-literal seed
            TokKind::Literal if depth == 1 => {
                let txt = &t.text;
                return txt.contains('.') || txt.ends_with("f32") || txt.ends_with("f64");
            }
            TokKind::Ident if depth == 1 && (t.text == "f32" || t.text == "f64") => return true,
            TokKind::Ident if depth == 1 => return true, // variable seed: conservative
            _ => {}
        }
    }
    true
}

/// One lock acquisition inside a function body.
struct Acquisition {
    lock: String,
    line: u32,
    stmt: usize,
    held: bool,
}

/// `lock-order`: runs at directory granularity over every file's source,
/// building one acquisition graph per directory (≈ one per crate) from
/// `Mutex`/`RwLock`-typed field/binding names, and flags every pair of
/// locks acquired in both orders. Intra-function only: a lock taken by a
/// callee is invisible, which keeps the rule fast and false-cycle-free at
/// the cost of missing cross-function inversions.
pub fn lock_order_rules(files: &[(PathBuf, String)]) -> Vec<Diagnostic> {
    // Lock name -> declared anywhere in this directory.
    let mut locks: BTreeSet<String> = BTreeSet::new();
    let tokenized: Vec<(usize, Vec<Tok>)> =
        files.iter().enumerate().map(|(fi, (_, src))| (fi, tokenize(src))).collect();
    for (_, toks) in &tokenized {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let Some(colon) = next_code(toks, i) else { continue };
            if toks[colon].kind != TokKind::Punct(':') {
                continue;
            }
            let end = type_region_end(toks, colon + 1);
            if toks[colon + 1..end.min(toks.len())]
                .iter()
                .any(|t| t.kind == TokKind::Ident && (t.text == "Mutex" || t.text == "RwLock"))
            {
                locks.insert(t.text.clone());
            }
        }
    }
    if locks.len() < 2 {
        return Vec::new();
    }

    // Edge (a, b): b acquired while a (over-approximately) held. Keep the
    // first site per edge for deterministic reporting.
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for (fi, toks) in &tokenized {
        let skipped = test_code_mask(toks);
        for (i, t) in toks.iter().enumerate() {
            if skipped[i] || t.kind != TokKind::Ident || t.text != "fn" {
                continue;
            }
            let Some(open) = (i..toks.len()).find(|&k| toks[k].kind == TokKind::Punct('{')) else {
                continue;
            };
            let mut depth = 0i64;
            let mut close = open;
            for k in open..toks.len() {
                match toks[k].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            close = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let mut acqs: Vec<Acquisition> = Vec::new();
            for k in open..close {
                if toks[k].kind != TokKind::Ident || !locks.contains(&toks[k].text) {
                    continue;
                }
                let Some((m, _)) = chain_step(toks, k) else { continue };
                let meth = toks[m].text.as_str();
                if meth != "lock" && meth != "read" && meth != "write" {
                    continue;
                }
                let s = stmt_start(toks, k);
                // Guard bound by let / if let / while let / match lives past
                // the statement; a bare expression statement drops it at `;`.
                let held = matches!(
                    toks.get(s).map(|t| t.text.as_str()),
                    Some("let") | Some("if") | Some("while") | Some("match") | Some("for")
                );
                acqs.push(Acquisition {
                    lock: toks[k].text.clone(),
                    line: toks[k].line,
                    stmt: s,
                    held,
                });
            }
            for a in 0..acqs.len() {
                for b in (a + 1)..acqs.len() {
                    if acqs[a].lock == acqs[b].lock {
                        continue; // re-acquisition is a different hazard class
                    }
                    if acqs[a].held || acqs[a].stmt == acqs[b].stmt {
                        edges
                            .entry((acqs[a].lock.clone(), acqs[b].lock.clone()))
                            .or_insert((*fi, acqs[b].line));
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), &(fi, line)) in &edges {
        if !edges.contains_key(&(b.clone(), a.clone())) {
            continue;
        }
        let key = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
        if !reported.insert(key) {
            continue;
        }
        let (file, source) = &files[fi];
        if allowed(source, line, RULE_LOCK_ORDER) {
            continue;
        }
        out.push(Diagnostic {
            file: file.clone(),
            line,
            rule: RULE_LOCK_ORDER,
            message: format!(
                "locks `{a}` and `{b}` are acquired in both orders across this crate \
                 (AB/BA deadlock shape); pick one global order"
            ),
            fingerprint: String::new(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{lint_source, LintOptions};

    fn rules_fired(src: &str) -> Vec<&'static str> {
        lint_source(Path::new("t.rs"), src, &LintOptions::default())
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn direct_hash_iteration_flagged() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) { for (k, v) in m { g(k, v); } }";
        assert_eq!(rules_fired(src), vec![RULE_NO_UNORDERED_ITER]);
    }

    #[test]
    fn hash_lookup_is_fine() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Option<u32> { m.get(&3).copied() }";
        assert!(rules_fired(src).is_empty());
        let len = "fn f(m: &HashMap<u32, u32>) { for i in 0..m.len() { g(i); } }";
        assert!(rules_fired(len).is_empty());
    }

    #[test]
    fn sink_and_sorted_exemptions() {
        let count = "fn f(m: &HashMap<u32, u32>) -> usize { m.values().count() }";
        assert!(rules_fired(count).is_empty());
        let int_sum = "fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum::<u32>() }";
        assert!(rules_fired(int_sum).is_empty());
        let btree = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
                     m.keys().copied().collect::<std::collections::BTreeSet<u32>>()\
                     .into_iter().collect()\n}";
        assert!(rules_fired(btree).is_empty());
        let sorted_next = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
                           let mut ks: Vec<u32> = m.keys().copied().collect();\n    \
                           ks.sort_unstable();\n    ks\n}";
        assert!(rules_fired(sorted_next).is_empty());
    }

    #[test]
    fn float_sum_of_hash_values_still_flagged() {
        let src = "fn f(m: &HashMap<u32, f32>) -> f32 { m.values().sum::<f32>() }";
        assert_eq!(rules_fired(src), vec![RULE_NO_UNORDERED_ITER]);
    }

    #[test]
    fn unordered_collect_to_vec_flagged() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }";
        assert_eq!(rules_fired(src), vec![RULE_NO_UNORDERED_ITER]);
    }

    #[test]
    fn get_of_hash_valued_map_in_for_header_flagged() {
        let src = "fn f(m: &HashMap<u32, HashSet<u32>>, e: &HashSet<u32>) {\n    \
                   for i in m.get(&1).unwrap_or(e) { g(i); }\n}";
        assert_eq!(rules_fired(src), vec![RULE_NO_UNORDERED_ITER]);
    }

    #[test]
    fn attr_annotation_suppresses_unordered_iter() {
        let src = "fn f(m: &HashSet<u32>, out: &mut [bool]) {\n    \
                   // #[allow(kucnet::unordered_iter)] — distinct-index writes commute\n    \
                   for &i in m { out[i as usize] = true; }\n}";
        let diags = lint_source(
            Path::new("t.rs"),
            src,
            &LintOptions { lossy_casts: false, ..LintOptions::default() },
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn entropy_sources_flagged_timing_exempt() {
        assert_eq!(rules_fired("fn f() -> u64 { thread_rng().next_u64() }"), vec![RULE_NO_ENTROPY]);
        assert_eq!(rules_fired("fn f() -> R { SmallRng::from_entropy() }"), vec![RULE_NO_ENTROPY]);
        assert_eq!(rules_fired("fn f() -> T { SystemTime::now() }"), vec![RULE_NO_ENTROPY]);
        let seeded = "fn f() { let seed = Instant::now().elapsed().as_nanos() as u64;\n\
                      let rng = SmallRng::seed_from_u64(seed); g(rng); }";
        assert!(rules_fired(seeded).contains(&RULE_NO_ENTROPY));
        let timing = "fn f() { let started = std::time::Instant::now(); g(started.elapsed()); }";
        assert!(rules_fired(timing).is_empty());
    }

    #[test]
    fn raw_spawn_flagged_scope_exempt() {
        assert_eq!(rules_fired("fn f() { std::thread::spawn(|| 1); }"), vec![RULE_NO_RAW_SPAWN]);
        assert!(rules_fired("fn f() { std::thread::scope(|s| { s.spawn(|| 1); }); }").is_empty());
    }

    #[test]
    fn float_accum_over_par_results_flagged() {
        let sum = "fn f(t: usize) -> f32 {\n    \
                   let parts = kucnet_par::par_map(t, 8, |i| i as f32);\n    \
                   parts.iter().sum::<f32>()\n}";
        assert_eq!(rules_fired(sum), vec![RULE_NO_FLOAT_ACCUM]);
        let fold = "fn f(t: usize) -> f32 {\n    \
                    kucnet_par::par_map(t, 8, |i| i as f32).into_iter().fold(0.0, |a, b| a + b)\n}";
        assert_eq!(rules_fired(fold), vec![RULE_NO_FLOAT_ACCUM]);
    }

    #[test]
    fn float_accum_exemptions() {
        // fold inside the par closure reduces per-item state, not results.
        let inner = "fn f(t: usize) -> Vec<f32> {\n    \
                     kucnet_par::par_map(t, 8, |i| v[i].iter().fold(0.0, |a, b| a + b))\n}";
        assert!(rules_fired(inner).is_empty());
        // Integer sums are order-insensitive.
        let int = "fn f(t: usize) -> usize {\n    \
                   let parts = kucnet_par::par_map(t, 8, |i| i);\n    \
                   parts.iter().sum::<usize>()\n}";
        assert!(rules_fired(int).is_empty());
        // The blessed helper is the fix.
        let helper = "fn f(t: usize) -> f32 {\n    \
                      let parts = kucnet_par::par_map(t, 8, |i| i as f32);\n    \
                      kucnet_par::ordered_sum_f32(&parts)\n}";
        assert!(rules_fired(helper).is_empty());
        // Plain (non-par) folds are out of scope.
        assert!(
            rules_fired("fn f(v: &[f32]) -> f32 { v.iter().fold(0.0, |a, b| a + b) }").is_empty()
        );
    }

    #[test]
    fn lock_order_cycle_detected_once() {
        let src = "pub struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl P {\n\
                   fn ab(&self) -> u32 { let ga = self.a.lock(); let gb = self.b.lock(); *ga + *gb }\n\
                   fn ba(&self) -> u32 { let gb = self.b.lock(); let ga = self.a.lock(); *ga - *gb }\n\
                   }";
        let diags = lock_order_rules(&[(PathBuf::from("t.rs"), src.to_string())]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_LOCK_ORDER);
    }

    #[test]
    fn consistent_lock_order_clean() {
        let src = "pub struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl P {\n\
                   fn x(&self) -> u32 { let ga = self.a.lock(); let gb = self.b.lock(); *ga + *gb }\n\
                   fn y(&self) -> u32 { let ga = self.a.lock(); let gb = self.b.lock(); *ga - *gb }\n\
                   }";
        assert!(lock_order_rules(&[(PathBuf::from("t.rs"), src.to_string())]).is_empty());
        // Dropped-before-reacquire (expression statement) builds no edge.
        let seq = "pub struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl P {\n\
                   fn x(&self) { self.a.lock().take(); self.b.lock().take(); }\n\
                   fn y(&self) { self.b.lock().take(); self.a.lock().take(); }\n\
                   }";
        assert!(lock_order_rules(&[(PathBuf::from("t.rs"), seq.to_string())]).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_concurrency_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(m: &HashMap<u32, u32>) {\n        \
                   for k in m.keys() { g(k); }\n        std::thread::spawn(|| 1);\n    }\n}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn libm_tanh_forms_flagged() {
        for src in [
            "fn f(x: f32) -> f32 { x.tanh() }",
            "fn f(x: f64) -> f64 { f64::tanh(x) }",
            "fn f(m: &[f32]) -> Vec<f32> { m.iter().copied().map(f32::tanh).collect() }",
        ] {
            assert_eq!(rules_fired(src), vec![RULE_NO_LIBM_TANH], "{src}");
        }
    }

    #[test]
    fn kernel_and_tape_tanh_are_fine() {
        let tape = "fn f(t: &Tape, v: Var) -> Var { t.tanh(v) }";
        assert!(rules_fired(tape).is_empty());
        let kernel = "fn f(x: f32) -> f32 { kucnet_tensor::tanh(x) + tanh(x) }";
        assert!(rules_fired(kernel).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn r(x: f64) -> f64 { x.tanh() }\n}";
        assert!(rules_fired(in_test).is_empty());
        let kernel_file = lint_source(
            Path::new(TANH_KERNEL_FILE),
            "fn f(x: f32) -> f32 { x.tanh() }",
            &LintOptions::default(),
        );
        assert!(kernel_file.is_empty(), "{kernel_file:?}");
    }
}
