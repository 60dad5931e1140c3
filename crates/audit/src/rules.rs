//! The audit rules and the analysis passes (per-file and cross-file).
//!
//! Each rule is a named, individually-suppressible invariant of this
//! workspace that only a pass over the whole workspace can check (see
//! `DESIGN.md` §11/§16 for the policy behind each one; the determinism
//! bans that need name resolution instead live in `clippy.toml` and
//! `[workspace.lints]`). Token-level rules match the [`crate::lexer`]
//! stream, so nothing in a comment or string literal can fire. The two
//! symbol-aware families ([`Rule::SeedDiscipline`],
//! [`Rule::UnmeteredQuery`]) additionally consult the item skeleton
//! ([`crate::parser`]), the workspace symbol table ([`crate::symbols`]),
//! and the approximate call graph ([`crate::callgraph`]) — they can see a
//! literal seed passed across a crate boundary or a ranking call that no
//! metered wrapper guards.
//!
//! Suppression: `// ca-audit: allow(<rule>) — <reason>` on the same line as
//! the violation or the line directly above it silences that rule there.
//! The reason is mandatory — a reasonless pragma suppresses nothing and is
//! itself a finding ([`Rule::PragmaMissingReason`]).

use crate::callgraph::{call_args, CallGraph};
use crate::config::AuditConfig;
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parser::{parse, ParsedFile};
use crate::symbols::{FnRef, Workspace};

/// The invariants the pass enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Direct `.inject_user(` / `.try_inject_user(` / `.append_profile(`
    /// in attack code (`copyattack-core` outside `env.rs`): a profile
    /// reaching the platform without passing through the
    /// `AttackEnvironment` injection surface, and therefore outside the
    /// budget/metering the threat model charges attacks against.
    EnvInjection,
    /// `.sum()`/`.fold(` over values produced by a `par::map*` call in the
    /// same statement: a float reduction chained onto parallel output
    /// instead of a serial fold over `ca_par::map`'s input-ordered result.
    UnorderedReduce,
    /// `Vec<Vec<` in the data-plane crates (`ca-recsys`, `ca-datagen`):
    /// the compact CSR arena layout must not silently regress to
    /// pointer-chasing nested allocations on the paths that carry
    /// dataset-scale state.
    NestedVec,
    /// An RNG constructed from a seed that does not derive from the
    /// `split_seed`/config-seed discipline: a literal (`seed_from_u64(42)`)
    /// in non-test code, directly or passed through a seed parameter from
    /// a non-test caller anywhere in the workspace (call-graph checked).
    SeedDiscipline,
    /// A raw `.top_k(`/`.top_k_batch(` ranking call in a function the
    /// attack side can reach without crossing the metered surface
    /// (recommender-trait impls and the platform/engine crate
    /// `ca-recsys`): it spends platform queries the black-box budget
    /// never sees (call-graph reachability checked).
    UnmeteredQuery,
    /// A `ca-audit: allow` pragma with no reason after the rule list.
    PragmaMissingReason,
    /// A `ca-audit` pragma naming a rule id that does not exist (typos
    /// would otherwise silently suppress nothing).
    PragmaUnknownRule,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::EnvInjection,
        Rule::UnorderedReduce,
        Rule::NestedVec,
        Rule::SeedDiscipline,
        Rule::UnmeteredQuery,
        Rule::PragmaMissingReason,
        Rule::PragmaUnknownRule,
    ];

    /// Stable kebab-case id (used in pragmas and reports).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::EnvInjection => "env-injection",
            Rule::UnorderedReduce => "unordered-reduce",
            Rule::NestedVec => "nested-vec",
            Rule::SeedDiscipline => "seed-discipline",
            Rule::UnmeteredQuery => "unmetered-query",
            Rule::PragmaMissingReason => "pragma-missing-reason",
            Rule::PragmaUnknownRule => "pragma-unknown-rule",
        }
    }

    /// Inverse of [`Rule::id`].
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line statement of the violation.
    pub fn message(&self) -> &'static str {
        match self {
            Rule::EnvInjection => {
                "direct profile injection bypasses the AttackEnvironment budget surface"
            }
            Rule::UnorderedReduce => "float reduction chained onto par-produced values",
            Rule::NestedVec => "nested Vec<Vec<…>> in a compact-data-plane crate",
            Rule::SeedDiscipline => {
                "RNG seeded outside the split_seed/config-seed discipline (literal seed in \
                 non-test code)"
            }
            Rule::UnmeteredQuery => {
                "raw .top_k/.top_k_batch reachable from attack code without crossing the \
                 metered query surface"
            }
            Rule::PragmaMissingReason => "ca-audit allow pragma without a reason",
            Rule::PragmaUnknownRule => "ca-audit pragma names an unknown rule",
        }
    }

    /// How to fix (or soundly suppress) the finding.
    pub fn hint(&self) -> &'static str {
        match self {
            Rule::EnvInjection => {
                "inject through AttackEnvironment::inject/try_inject so every crafted \
                 profile is charged against the campaign budget; platform-side test fakes \
                 forwarding to their inner recommender may suppress with a reason"
            }
            Rule::UnorderedReduce => {
                "bind ca_par::map's input-ordered output, then fold it serially: the fold \
                 order, and so the float rounding, is the same at any thread count"
            }
            Rule::NestedVec => {
                "store dataset-scale state in flat CSR arenas (one buffer + offsets, see \
                 recsys::Dataset) or ca_tensor::Matrix; per-query k-sized batch results \
                 may keep the nested shape behind a reasoned pragma"
            }
            Rule::SeedDiscipline => {
                "derive the seed from the run's root seed via ca_par::split_seed (or a \
                 config seed field); literal seeds belong only in tests and root configs"
            }
            Rule::UnmeteredQuery => {
                "query through FallibleBlackBox::try_top_k/try_top_k_batch (with a \
                 RetryPolicy) so every ranking call is metered against the query budget; \
                 platform internals implement the surface and are exempt automatically"
            }
            Rule::PragmaMissingReason => "append `— <why this is sound>` after the rule list",
            Rule::PragmaUnknownRule => {
                "valid rules: env-injection, unordered-reduce, nested-vec, seed-discipline, \
                 unmetered-query (the determinism bans are clippy and rustc lints, exempted \
                 by a reasoned #[expect(...)])"
            }
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation: where, which rule, and what to do about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// [`Rule::message`], owned so reporters need no lookups.
    pub message: String,
}

impl Finding {
    fn new(file: &str, line: u32, rule: Rule) -> Self {
        Finding { file: file.to_string(), line, rule, message: rule.message().to_string() }
    }
}

/// A parsed `ca-audit:` pragma comment.
#[derive(Clone, Debug)]
struct Pragma {
    line: u32,
    rules: Vec<Rule>,
    unknown: Vec<String>,
    has_reason: bool,
}

/// Parses `// ca-audit: allow(rule, …) — reason` out of the comments.
fn parse_pragmas(comments: &[Comment]) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in comments {
        // Doc comments arrive as `/ text` or `! text`; strip the marker.
        let t = c.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = t.strip_prefix("ca-audit:") else { continue };
        let rest = rest.trim_start();
        let mut pragma =
            Pragma { line: c.line, rules: Vec::new(), unknown: Vec::new(), has_reason: false };
        let body = rest.strip_prefix("allow").map(str::trim_start);
        match body.and_then(|b| b.strip_prefix('(')).and_then(|b| b.split_once(')')) {
            Some((list, tail)) => {
                for name in list.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        continue;
                    }
                    match Rule::from_id(name) {
                        Some(r) => pragma.rules.push(r),
                        None => pragma.unknown.push(name.to_string()),
                    }
                }
                // The reason is whatever survives after the separator dash
                // (or any punctuation run) following the rule list.
                let reason = tail.trim_start_matches([' ', '\t', '-', '—', '–', ':', '.', ',']);
                pragma.has_reason = !reason.trim().is_empty();
            }
            None => pragma.unknown.push(rest.to_string()),
        }
        pragmas.push(pragma);
    }
    pragmas
}

/// One file's phase-1 result: lexed, parsed, locally analyzed.
struct FilePass {
    parsed: ParsedFile,
    pragmas: Vec<Pragma>,
    findings: Vec<Finding>,
}

/// Runs the token-level (single-file) rules over one lexed file.
fn local_rules(rel_path: &str, toks: &[Tok], pragmas: &[Pragma]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Pragma hygiene first: unknown rules and missing reasons are findings
    // in their own right (and a reasonless pragma suppresses nothing).
    for p in pragmas {
        for _ in &p.unknown {
            findings.push(Finding::new(rel_path, p.line, Rule::PragmaUnknownRule));
        }
        if !p.unknown.is_empty() || !p.rules.is_empty() {
            if !p.has_reason {
                findings.push(Finding::new(rel_path, p.line, Rule::PragmaMissingReason));
            }
        } else {
            // `ca-audit: allow()` with an empty list: malformed.
            findings.push(Finding::new(rel_path, p.line, Rule::PragmaUnknownRule));
        }
    }

    let in_core = rel_path.starts_with("crates/copyattack-core/src/");
    // env.rs *is* the injection surface — its platform calls are the
    // implementation of the budgeted path, not a bypass of it.
    let in_attack_code = in_core && rel_path != "crates/copyattack-core/src/env.rs";
    let in_dataplane =
        rel_path.starts_with("crates/recsys/src/") || rel_path.starts_with("crates/datagen/src/");

    // Statement window for the unordered-reduce rule: a statement runs
    // between `;`/`{`/`}` boundaries; within one, a float reduction chained
    // after a `par::map*` call is flagged.
    let mut window_has_par_map = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct(c) => {
                if matches!(c, ';' | '{' | '}') {
                    window_has_par_map = false;
                }
                // `.inject_user(` / `.try_inject_user(` / `.append_profile(`
                // — a profile reaching the platform around the environment.
                if in_attack_code
                    && *c == '.'
                    && i + 2 < toks.len()
                    && (toks[i + 1].is_ident("inject_user")
                        || toks[i + 1].is_ident("try_inject_user")
                        || toks[i + 1].is_ident("append_profile"))
                    && toks[i + 2].is_punct('(')
                {
                    findings.push(Finding::new(rel_path, toks[i + 1].line, Rule::EnvInjection));
                }
                // `.sum…` / `.fold(` after a par-map in the same statement.
                if *c == '.'
                    && window_has_par_map
                    && i + 1 < toks.len()
                    && (toks[i + 1].is_ident("sum") || toks[i + 1].is_ident("fold"))
                {
                    findings.push(Finding::new(rel_path, toks[i + 1].line, Rule::UnorderedReduce));
                }
            }
            TokKind::Ident(name) => match name.as_str() {
                // `par::map` / `ca_par::map` opens a parallel statement.
                "par" | "ca_par"
                    if i + 3 < toks.len()
                        && toks[i + 1].is_punct(':')
                        && toks[i + 2].is_punct(':')
                        && toks[i + 3].is_ident("map") =>
                {
                    window_has_par_map = true;
                }
                // `Vec < Vec <` — a nested dataset-scale allocation.
                "Vec"
                    if in_dataplane
                        && i + 3 < toks.len()
                        && toks[i + 1].is_punct('<')
                        && toks[i + 2].is_ident("Vec")
                        && toks[i + 3].is_punct('<') =>
                {
                    findings.push(Finding::new(rel_path, t.line, Rule::NestedVec));
                }
                _ => {}
            },
            TokKind::Number(_) => {}
        }
        i += 1;
    }

    findings
}

// ---------------------------------------------------------------------------
// seed-discipline
// ---------------------------------------------------------------------------

/// How a seed argument classifies.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SeedClass {
    /// Mentions a seed-deriving source (`*seed*`, `split_seed`, `child`).
    Disciplined,
    /// Only numeric literals (and cast/arith helpers): a hard-coded seed.
    Literal,
    /// Exactly one bare identifier — possibly a parameter to chase.
    Param(String),
    /// Anything else: unresolvable, conservatively silent.
    Opaque,
}

/// Identifier fragments that make an argument a derived seed.
fn is_seed_source_ident(s: &str) -> bool {
    let lower = s.to_ascii_lowercase();
    lower.contains("seed") || s == "child"
}

/// Arithmetic/cast helpers that do not launder a literal into a source.
fn is_arith_helper(s: &str) -> bool {
    matches!(
        s,
        "as" | "u64"
            | "u32"
            | "usize"
            | "i64"
            | "wrapping_add"
            | "wrapping_mul"
            | "wrapping_sub"
            | "from"
            | "into"
    )
}

/// Classifies the token range of a seed argument. A single bare
/// identifier classifies as [`SeedClass::Param`] *before* the
/// seed-source check — `fn build(seed: u64)` must chase its callers, not
/// trust its own parameter name; the caller decides param-ness and falls
/// back to Disciplined/Opaque.
fn classify_seed_arg(toks: &[Tok]) -> SeedClass {
    let idents: Vec<&str> = toks.iter().filter_map(Tok::ident).collect();
    let has_number = toks.iter().any(Tok::is_number);
    let real_idents: Vec<&str> = idents.iter().copied().filter(|s| !is_arith_helper(s)).collect();
    if real_idents.len() == 1 && !has_number && idents.len() == real_idents.len() {
        return SeedClass::Param(real_idents[0].to_string());
    }
    if idents.iter().any(|s| is_seed_source_ident(s)) {
        return SeedClass::Disciplined;
    }
    if has_number && real_idents.is_empty() {
        return SeedClass::Literal;
    }
    SeedClass::Opaque
}

/// The RNG-construction entry points the rule watches.
fn is_rng_ctor(name: &str) -> bool {
    matches!(name, "seed_from_u64" | "from_seed")
}

/// Cross-file seed-discipline pass.
///
/// Phase A: every `seed_from_u64`/`from_seed` call in a non-test function
/// classifies its argument — literals fire immediately; a bare parameter
/// name records a *seed parameter* to chase. Phase B walks the call graph:
/// any non-test caller passing a literal into a recorded seed parameter
/// fires at the caller's line, even across crates.
fn seed_discipline(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    // (fn name, arg position among non-self params) pairs to chase.
    let mut seed_params: Vec<(String, usize)> = Vec::new();

    for site in &graph.sites {
        if !is_rng_ctor(&site.name) {
            continue;
        }
        let fref = ws.all_fns[site.caller];
        if ws.is_test_fn(fref) {
            continue;
        }
        let file = ws.file(fref);
        let args = call_args(&file.toks, site.tok + 1);
        let Some(&(lo, hi)) = args.first() else { continue };
        match classify_seed_arg(&file.toks[lo..hi]) {
            SeedClass::Literal => {
                findings.push(Finding::new(&file.path, site.line, Rule::SeedDiscipline));
            }
            SeedClass::Param(name) => {
                // A parameter of the enclosing fn? Record it for caller
                // propagation. A non-parameter bare name (a local) is
                // trusted only when it looks seed-derived.
                let item = ws.item(fref);
                let params = file.fn_params(fref.item);
                if let Some(pos) = params.iter().position(|p| p == &name) {
                    seed_params.push((item.name.clone(), pos));
                }
            }
            _ => {}
        }
    }

    // Phase B: chase seed parameters one hop through the call graph.
    seed_params.sort();
    seed_params.dedup();
    for (fn_name, pos) in &seed_params {
        for site in &graph.sites {
            if &site.name != fn_name {
                continue;
            }
            let caller = ws.all_fns[site.caller];
            if ws.is_test_fn(caller) {
                continue;
            }
            let file = ws.file(caller);
            let args = call_args(&file.toks, site.tok + 1);
            let Some(&(lo, hi)) = args.get(*pos) else { continue };
            if classify_seed_arg(&file.toks[lo..hi]) == SeedClass::Literal {
                findings.push(Finding::new(&file.path, site.line, Rule::SeedDiscipline));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// unmetered-query
// ---------------------------------------------------------------------------

/// Trait impls that *are* the query surface: implementing or forwarding
/// these is the metered path's own machinery, not a bypass of it.
const SURFACE_TRAITS: [&str; 3] = ["BlackBoxRecommender", "FallibleBlackBox", "ScoringEngine"];

/// Path prefixes that are platform/engine internals (they implement
/// ranking; the budget meters *access to* them, not their insides).
const SURFACE_PATHS: [&str; 1] = ["crates/recsys/src/"];

/// Path prefixes that hold attack-side code (the reachability roots).
const ATTACK_PATHS: [&str; 2] = ["crates/copyattack-core/src/", "src/"];

/// Whether a function is on the metered surface.
fn is_surface_fn(ws: &Workspace, r: FnRef) -> bool {
    let item = ws.item(r);
    if item.trait_name.as_deref().is_some_and(|t| SURFACE_TRAITS.contains(&t)) {
        return true;
    }
    let path = &ws.file(r).path;
    SURFACE_PATHS.iter().any(|p| path.starts_with(p))
}

/// Cross-file unmetered-query pass: call-graph proof that raw ranking
/// calls are unreachable from attack code except through the surface.
///
/// Roots are every non-test function in attack-side paths; traversal never
/// expands surface functions (what sits *behind* the metered wrappers is
/// their implementation). Any reachable, non-surface, non-test function
/// containing a raw `.top_k(`/`.top_k_batch(` fires at the call line.
fn unmetered_query(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let roots: Vec<usize> = ws
        .all_fns
        .iter()
        .enumerate()
        .filter(|&(_, &r)| {
            let path = &ws.file(r).path;
            ATTACK_PATHS.iter().any(|p| path.starts_with(p)) && !ws.is_test_fn(r)
        })
        .map(|(i, _)| i)
        .collect();
    let blocked = |fid: usize| is_surface_fn(ws, ws.all_fns[fid]);
    let reach = graph.reachable(&roots, blocked);

    let mut findings = Vec::new();
    for site in &graph.sites {
        if !(site.name == "top_k" || site.name == "top_k_batch") {
            continue;
        }
        let fid = site.caller;
        if !reach[fid] {
            continue;
        }
        let fref = ws.all_fns[fid];
        if ws.is_test_fn(fref) || is_surface_fn(ws, fref) {
            continue;
        }
        findings.push(Finding::new(&ws.file(fref).path, site.line, Rule::UnmeteredQuery));
    }
    findings
}

// ---------------------------------------------------------------------------
// the analysis drivers
// ---------------------------------------------------------------------------

/// Runs the full engine — token rules plus the symbol-aware families —
/// over a set of files analyzed *as one workspace*.
///
/// `files` must be in the path order the report should follow (the
/// workspace walker sorts; single-file callers are trivially ordered).
/// Per-file work fans out through `ca_par::map`, so wall-clock scales with
/// `CA_THREADS` while findings stay byte-identical: results come back in
/// input order and every cross-file pass iterates deterministic
/// structures only.
pub fn analyze_sources(files: &[(&str, &str)], cfg: &AuditConfig) -> Vec<Finding> {
    // Phase 1 — per-file: lex, parse, pragma-scan, token rules.
    let passes: Vec<FilePass> = ca_par::map(files, |_, &(path, src)| {
        let (toks, comments) = lex(src);
        let pragmas = parse_pragmas(&comments);
        let findings = local_rules(path, &toks, &pragmas);
        let parsed = parse(path, &toks);
        FilePass { parsed, pragmas, findings }
    });

    // Phase 2 — assemble the workspace and the call graph (serial; the
    // structures are BTree-ordered so iteration is deterministic).
    let ws = Workspace::new(passes.iter().map(|p| p.parsed.clone()).collect());
    let graph = CallGraph::build(&ws);

    // Phase 3 — cross-file rule families.
    let mut findings: Vec<Finding> = passes.iter().flat_map(|p| p.findings.clone()).collect();
    findings.extend(seed_discipline(&ws, &graph));
    findings.extend(unmetered_query(&ws, &graph));

    // Phase 4 — suppression and ordering. Pragmas suppress by (file, line
    // window); the allowlist by path prefix; then findings sort into the
    // fixed (path, line, rule) report order.
    let rule_pos = |r: Rule| Rule::ALL.iter().position(|&a| a == r).unwrap_or(usize::MAX);
    let pragmas_of = |path: &str| {
        passes.iter().find(|p| p.parsed.path == path).map(|p| p.pragmas.as_slice()).unwrap_or(&[])
    };
    findings.retain(|f| {
        let pragmas = pragmas_of(&f.file);
        match f.rule {
            Rule::PragmaMissingReason | Rule::PragmaUnknownRule => true,
            rule => !pragmas.iter().any(|p| {
                p.has_reason
                    && p.rules.contains(&rule)
                    && (p.line == f.line || p.line + 1 == f.line)
            }),
        }
    });
    findings.retain(|f| !cfg.is_file_skipped(&f.file));

    let file_pos = |path: &str| files.iter().position(|&(p, _)| p == path).unwrap_or(usize::MAX);
    findings.sort_by(|a, b| {
        (file_pos(&a.file), a.line, rule_pos(a.rule)).cmp(&(
            file_pos(&b.file),
            b.line,
            rule_pos(b.rule),
        ))
    });
    findings.dedup();
    findings
}

/// Runs every applicable rule over one file (a one-file workspace).
///
/// `rel_path` is the workspace-relative path (forward slashes); it scopes
/// path-dependent rules ([`Rule::EnvInjection`], [`Rule::NestedVec`], the
/// surface/attack paths of [`Rule::UnmeteredQuery`]) and is matched
/// against the allowlist in `cfg`.
pub fn analyze_source(rel_path: &str, src: &str, cfg: &AuditConfig) -> Vec<Finding> {
    analyze_sources(&[(rel_path, src)], cfg)
}
