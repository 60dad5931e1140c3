//! The audit rules and the analysis passes (per-file and cross-file).
//!
//! Each rule is a named, individually-suppressible invariant of this
//! workspace (see `DESIGN.md` §11/§16 for the policy behind each one).
//! Token-level rules match the [`crate::lexer`] stream, so nothing in a
//! comment or string literal can fire. The three symbol-aware families
//! ([`Rule::SeedDiscipline`], [`Rule::IterationOrder`],
//! [`Rule::UnmeteredQuery`]) additionally consult the item skeleton
//! ([`crate::parser`]), the workspace symbol table ([`crate::symbols`]),
//! and the approximate call graph ([`crate::callgraph`]) — they can see a
//! literal seed passed across a crate boundary or a ranking call that no
//! metered wrapper guards.
//!
//! Suppression: `// ca-audit: allow(<rule>) — <reason>` on the same line as
//! the violation or the line directly above it silences that rule there.
//! The reason is mandatory — a reasonless pragma suppresses nothing and is
//! itself a finding ([`Rule::PragmaMissingReason`]). File-scope rules
//! ([`Rule::UnsafeAudit`]) accept the pragma anywhere in the file.

use crate::callgraph::{call_args, CallGraph};
use crate::config::AuditConfig;
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parser::{parse, ParsedFile};
use crate::symbols::{FnRef, Workspace};

/// How a finding gates the build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reported (and annotated in CI) but does not fail the run.
    Warn,
    /// Fails the run unless suppressed by pragma or allowlist.
    Deny,
}

impl Severity {
    /// Stable lowercase name (JSON / github output).
    pub fn id(&self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// The invariants the pass enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` in library code: iteration order is
    /// nondeterministic, which breaks the bitwise-reproducibility contract
    /// the moment anyone iterates one.
    HashCollections,
    /// `Instant::now` / `SystemTime::now` in a determinism-contract path.
    WallClock,
    /// `thread_rng` / `from_entropy`: ambient OS-seeded randomness outside
    /// the seeded-`StdRng` discipline.
    AdHocRng,
    /// Raw `std::thread::spawn`/`scope` outside `ca-par`: threading that
    /// the `CA_THREADS` knob does not govern.
    RawThread,
    /// Direct `.inject_user(` / `.try_inject_user(` / `.append_profile(`
    /// in attack code (`copyattack-core` outside `env.rs`): a profile
    /// reaching the platform without passing through the
    /// `AttackEnvironment` injection surface, and therefore outside the
    /// budget/metering the threat model charges attacks against.
    EnvInjection,
    /// A library crate whose `lib.rs` does not carry
    /// `#![forbid(unsafe_code)]` (or a justification pragma).
    UnsafeAudit,
    /// `.sum()`/`.fold(` over values produced by a `par::map*` call in the
    /// same statement: a float reduction chained onto parallel output
    /// instead of a serial fold over `ca_par::map`'s input-ordered result.
    UnorderedReduce,
    /// `thread::sleep` inside the service-path crate (`ca-recsys`): the
    /// platform and its fault layer run on `FaultyRecommender`'s logical
    /// clock only, and a real-time block there both stalls the attack loop
    /// and smuggles wall-clock timing into the replay contract.
    ServiceSleep,
    /// `Vec<Vec<` in the data-plane crates (`ca-recsys`, `ca-datagen`):
    /// the compact CSR arena layout must not silently regress to
    /// pointer-chasing nested allocations on the paths that carry
    /// dataset-scale state.
    NestedVec,
    /// Direct `.score_batch(` call outside the shared retrieval path
    /// (`recsys::engine`): a full-catalog scan that bypasses the Top-k
    /// entry points, which own seen-item exclusion, the deterministic
    /// tie-break and the pooled scratch buffers.
    ExactScan,
    /// An RNG constructed from a seed that does not derive from the
    /// `split_seed`/config-seed discipline: a literal (`seed_from_u64(42)`)
    /// in non-test code, directly or passed through a seed parameter from
    /// a non-test caller anywhere in the workspace (call-graph checked).
    SeedDiscipline,
    /// `HashMap`/`HashSet` *iteration* whose results flow into a
    /// determinism-sensitive sink — float accumulation (`sum`/`fold`),
    /// ordered collection (`collect` into `Vec`), or hashing — directly or
    /// one call away through a function that returns hash-iteration
    /// results (call-graph checked).
    IterationOrder,
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
    pub const ALL: [Rule; 15] = [
        Rule::HashCollections,
        Rule::WallClock,
        Rule::AdHocRng,
        Rule::RawThread,
        Rule::EnvInjection,
        Rule::UnsafeAudit,
        Rule::UnorderedReduce,
        Rule::ServiceSleep,
        Rule::NestedVec,
        Rule::ExactScan,
        Rule::SeedDiscipline,
        Rule::IterationOrder,
        Rule::UnmeteredQuery,
        Rule::PragmaMissingReason,
        Rule::PragmaUnknownRule,
    ];

    /// Stable kebab-case id (used in pragmas, JSON output and allowlists).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::AdHocRng => "ad-hoc-rng",
            Rule::RawThread => "raw-thread",
            Rule::EnvInjection => "env-injection",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::UnorderedReduce => "unordered-reduce",
            Rule::ServiceSleep => "service-sleep",
            Rule::NestedVec => "nested-vec",
            Rule::ExactScan => "exact-scan",
            Rule::SeedDiscipline => "seed-discipline",
            Rule::IterationOrder => "iteration-order",
            Rule::UnmeteredQuery => "unmetered-query",
            Rule::PragmaMissingReason => "pragma-missing-reason",
            Rule::PragmaUnknownRule => "pragma-unknown-rule",
        }
    }

    /// Inverse of [`Rule::id`].
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Default gating severity. `iteration-order` is the one taint-based
    /// heuristic family, so it warns; everything else denies.
    pub fn severity(&self) -> Severity {
        match self {
            Rule::IterationOrder => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// One-line statement of the violation.
    pub fn message(&self) -> &'static str {
        match self {
            Rule::HashCollections => {
                "HashMap/HashSet in library code: iteration order is nondeterministic"
            }
            Rule::WallClock => "wall-clock read (Instant::now/SystemTime::now) in library code",
            Rule::AdHocRng => "ambient RNG (thread_rng/from_entropy) outside the seeded discipline",
            Rule::RawThread => "raw std::thread spawn/scope outside the ca-par runtime",
            Rule::EnvInjection => {
                "direct profile injection bypasses the AttackEnvironment budget surface"
            }
            Rule::UnsafeAudit => "library crate does not carry #![forbid(unsafe_code)]",
            Rule::UnorderedReduce => "float reduction chained onto par-produced values",
            Rule::ServiceSleep => "thread::sleep in a logical-clock service path",
            Rule::NestedVec => "nested Vec<Vec<…>> in a compact-data-plane crate",
            Rule::ExactScan => {
                "direct .score_batch call scans the full catalog outside the engine's Top-k \
                 entry points"
            }
            Rule::SeedDiscipline => {
                "RNG seeded outside the split_seed/config-seed discipline (literal seed in \
                 non-test code)"
            }
            Rule::IterationOrder => {
                "hash-collection iteration flows into an order-sensitive sink (float \
                 accumulation, Vec collection, or hashing)"
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
            Rule::HashCollections => {
                "use BTreeMap/BTreeSet or a dense Vec index; if the collection is provably \
                 never iterated, suppress with a reasoned pragma"
            }
            Rule::WallClock => {
                "derive timing from logical clocks; keep wall-clock strictly telemetry-only \
                 and suppress with a reason"
            }
            Rule::AdHocRng => "thread a seeded StdRng (or derive one via ca_par::split_seed)",
            Rule::RawThread => {
                "route through ca_par::map so the CA_THREADS knob governs every parallel \
                 stage"
            }
            Rule::EnvInjection => {
                "inject through AttackEnvironment::inject/try_inject so every crafted \
                 profile is charged against the campaign budget; platform-side test fakes \
                 forwarding to their inner recommender may suppress with a reason"
            }
            Rule::UnsafeAudit => {
                "add #![forbid(unsafe_code)] to the crate root, or suppress with a pragma \
                 stating why unsafe is required"
            }
            Rule::UnorderedReduce => {
                "bind ca_par::map's input-ordered output, then fold it serially: the fold \
                 order, and so the float rounding, is the same at any thread count"
            }
            Rule::ServiceSleep => {
                "model every delay as logical ticks (FallibleBlackBox::wait on \
                 FaultyRecommender's logical clock); the service layer must never block \
                 real time"
            }
            Rule::NestedVec => {
                "store dataset-scale state in flat CSR arenas (one buffer + offsets, see \
                 recsys::Dataset) or ca_tensor::Matrix; per-query k-sized batch results \
                 may keep the nested shape behind a reasoned pragma"
            }
            Rule::ExactScan => {
                "rank through the engine entry points (single_top_k/batch_top_k), which own \
                 seen-item exclusion, the deterministic tie-break and the pooled buffers; \
                 parity tests pinning the dense kernel may suppress with a reason"
            }
            Rule::SeedDiscipline => {
                "derive the seed from the run's root seed via ca_par::split_seed (or a \
                 config seed field); literal seeds belong only in tests and root configs"
            }
            Rule::IterationOrder => {
                "iterate a BTreeMap/BTreeSet (or sort the keys first); hash iteration \
                 order changes per process and per insertion history"
            }
            Rule::UnmeteredQuery => {
                "query through FallibleBlackBox::try_top_k/try_top_k_batch (with a \
                 RetryPolicy) so every ranking call is metered against the query budget; \
                 platform internals implement the surface and are exempt automatically"
            }
            Rule::PragmaMissingReason => "append `— <why this is sound>` after the rule list",
            Rule::PragmaUnknownRule => {
                "valid rules: hash-collections, wall-clock, ad-hoc-rng, raw-thread, \
                 env-injection, unsafe-audit, unordered-reduce, service-sleep, nested-vec, \
                 exact-scan, seed-discipline, iteration-order, unmetered-query"
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

    /// The finding's gating severity (delegates to the rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
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

/// Whether tokens starting at `i` spell the path segment `a::b`.
fn path2(toks: &[Tok], i: usize, a: &[&str], b: &[&str]) -> bool {
    i + 3 < toks.len()
        && a.iter().any(|s| toks[i].is_ident(s))
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && b.iter().any(|s| toks[i + 3].is_ident(s))
}

/// Whether the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Whether `rel_path` is the root module of a library crate (where the
/// unsafe-audit rule applies).
fn is_lib_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"))
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
    let in_service = rel_path.starts_with("crates/recsys/src/");
    let in_dataplane =
        rel_path.starts_with("crates/recsys/src/") || rel_path.starts_with("crates/datagen/src/");
    // The engine module *is* the retrieval path; a `.score_batch(` there is
    // the implementation, not a bypass.
    let in_retrieval_path = rel_path == "crates/recsys/src/engine.rs";

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
                // `.score_batch(` — a full-catalog scan off the shared
                // retrieval path. Definitions (`fn score_batch(`) have no
                // leading dot and do not match.
                if !in_retrieval_path
                    && *c == '.'
                    && i + 2 < toks.len()
                    && toks[i + 1].is_ident("score_batch")
                    && toks[i + 2].is_punct('(')
                {
                    findings.push(Finding::new(rel_path, toks[i + 1].line, Rule::ExactScan));
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
                "HashMap" | "HashSet" => {
                    findings.push(Finding::new(rel_path, t.line, Rule::HashCollections));
                }
                "thread_rng" | "from_entropy" => {
                    findings.push(Finding::new(rel_path, t.line, Rule::AdHocRng));
                }
                "Instant" | "SystemTime" if path2(toks, i, &[name], &["now"]) => {
                    findings.push(Finding::new(rel_path, t.line, Rule::WallClock));
                }
                "thread" if path2(toks, i, &["thread"], &["spawn", "scope"]) => {
                    findings.push(Finding::new(rel_path, t.line, Rule::RawThread));
                }
                "thread" if in_service && path2(toks, i, &["thread"], &["sleep"]) => {
                    findings.push(Finding::new(rel_path, t.line, Rule::ServiceSleep));
                }
                "par" | "ca_par" if path2(toks, i, &[name], &["map"]) => {
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

    if is_lib_root(rel_path) && !has_forbid_unsafe(toks) {
        findings.push(Finding::new(rel_path, 1, Rule::UnsafeAudit));
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
                let (_, params) = file.fn_params(fref.item);
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
// iteration-order
// ---------------------------------------------------------------------------

/// Iterator adapters that surface a collection's internal order.
fn is_iteration_method(name: &str) -> bool {
    matches!(name, "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain")
}

/// Sinks whose result depends on the order elements arrive in.
fn is_order_sink(name: &str) -> bool {
    matches!(name, "sum" | "product" | "fold" | "collect" | "hash" | "extend")
}

/// Collection targets that re-establish a canonical order (collecting hash
/// iteration into these is sound).
fn is_order_safe_collect_target(name: &str) -> bool {
    matches!(name, "BTreeMap" | "BTreeSet" | "HashMap" | "HashSet")
}

/// Hash-typed local bindings of one function body: parameters declared
/// `name: …HashMap/HashSet…` and `let [mut] name …= …HashMap/HashSet…;`.
fn hash_bindings(file: &ParsedFile, item_idx: usize) -> Vec<String> {
    let mut names = Vec::new();
    let item = &file.items[item_idx];
    // Parameters.
    for (name, ty_range) in file.fn_params_with_types(item_idx) {
        if file.toks[ty_range.0..ty_range.1]
            .iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            names.push(name);
        }
    }
    // Let bindings.
    let Some((lo, hi)) = item.body else { return names };
    let mut i = lo;
    while i < hi {
        if file.toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < hi && file.toks[j].is_ident("mut") {
                j += 1;
            }
            let Some(name) = file.toks.get(j).and_then(Tok::ident) else {
                i += 1;
                continue;
            };
            // Scan the statement (to `;` at delimiter depth 0).
            let mut depth = 0isize;
            let mut k = j + 1;
            let mut is_hash = false;
            while k < hi {
                match &file.toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct(';') if depth <= 0 => break,
                    TokKind::Ident(s) if s == "HashMap" || s == "HashSet" => is_hash = true,
                    _ => {}
                }
                k += 1;
            }
            if is_hash {
                names.push(name.to_string());
            }
            i = k;
        } else {
            i += 1;
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether the ident at `i` names a hash-typed value: a local binding, or
/// a field access (`.name`) whose field is hash-typed anywhere in the
/// workspace.
fn is_hash_value(file: &ParsedFile, ws: &Workspace, bindings: &[String], i: usize) -> bool {
    let Some(name) = file.toks[i].ident() else { return false };
    if bindings.iter().any(|b| b == name) {
        return true;
    }
    i > 0 && file.toks[i - 1].is_punct('.') && ws.hash_fields.contains_key(name)
}

/// Scans forward from token `i` to the end of the statement, returning the
/// first order-sensitive sink chained onto the expression (`.sum`, `.fold`,
/// `.collect` into an ordered target, `.hash`, …).
fn chained_sink(file: &ParsedFile, i: usize, hi: usize) -> Option<(usize, u32)> {
    let mut depth = 0isize;
    let mut k = i;
    while k < hi {
        match &file.toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return None; // left the enclosing expression
                }
            }
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') if depth <= 0 => {
                return None;
            }
            TokKind::Punct('.') if depth == 0 => {
                if let Some(name) = file.toks.get(k + 1).and_then(Tok::ident) {
                    if is_order_sink(name) {
                        if name == "collect" {
                            // `.collect::<BTreeMap<…>>()` is order-safe.
                            let safe = file.toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                                && file.toks.get(k + 4).is_some_and(|t| t.is_punct('<'))
                                && file
                                    .toks
                                    .get(k + 5)
                                    .and_then(Tok::ident)
                                    .is_some_and(is_order_safe_collect_target);
                            if safe {
                                k += 2;
                                continue;
                            }
                        }
                        return Some((k + 1, file.toks[k + 1].line));
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Cross-file iteration-order pass.
///
/// Direct: inside each function, iteration of a hash-typed value
/// (`.iter()`, `.keys()`, `for _ in &map`, …) chained into an
/// order-sensitive sink fires at the iteration line. Cross-file: a
/// function whose hash iteration flows into a `.collect` is *tainted*;
/// any caller chaining that function's result into `sum`/`fold`/`product`
/// fires at the call line — the "float accumulator two functions away"
/// case the per-file scanner could never see.
fn iteration_order(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut tainted: Vec<String> = Vec::new();

    for &fref in &ws.all_fns {
        let file = ws.file(fref);
        let item = ws.item(fref);
        let Some((lo, hi)) = item.body else { continue };
        let bindings = hash_bindings(file, fref.item);
        let has_hash_fields = !ws.hash_fields.is_empty();
        if bindings.is_empty() && !has_hash_fields {
            continue;
        }
        let nested = file.nested_fn_bodies(fref.item);
        let in_nested = |i: usize| nested.iter().any(|&(s, e)| s <= i && i < e);

        let mut i = lo;
        while i < hi {
            if in_nested(i) {
                i += 1;
                continue;
            }
            let t = &file.toks[i];
            // `recv.iter()` / `recv.keys()` / … method-iteration events.
            if t.is_punct('.')
                && file.toks.get(i + 1).and_then(Tok::ident).is_some_and(is_iteration_method)
                && file.toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && i > lo
                && is_hash_value(file, ws, &bindings, i - 1)
            {
                let line = file.toks[i + 1].line;
                // Start the chain scan at the iteration call's own `(`,
                // so its `)` balances instead of ending the walk early.
                if let Some((sink_tok, _)) = chained_sink(file, i + 2, hi) {
                    findings.push(Finding::new(&file.path, line, Rule::IterationOrder));
                    if file.toks[sink_tok].is_ident("collect") {
                        tainted.push(item.name.clone());
                    }
                }
            }
            // `for pat in [&]recv {` loop-iteration events.
            if t.is_ident("for") {
                // Find `in` at depth 0 before the loop `{`.
                let mut j = i + 1;
                let mut depth = 0isize;
                let mut in_at = None;
                while j < hi {
                    match &file.toks[j].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                        TokKind::Punct('{') if depth == 0 => break,
                        TokKind::Ident(s) if s == "in" && depth == 0 => {
                            in_at = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(in_at) = in_at {
                    // Expression tokens between `in` and the body `{`.
                    let mut k = in_at + 1;
                    let mut depth = 0isize;
                    let mut hash_iter = false;
                    while k < hi {
                        match &file.toks[k].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                            TokKind::Punct('{') if depth == 0 => break,
                            TokKind::Ident(_) if is_hash_value(file, ws, &bindings, k) => {
                                hash_iter = true;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if hash_iter && k < hi {
                        // Loop body: accumulation (`+=`, `.push(`, `.hash(`)
                        // makes the order observable.
                        let close = match_brace(file, k, hi);
                        let body = &file.toks[k..close];
                        let accumulates = body.windows(2).any(|w| {
                            (w[0].is_punct('+') && w[1].is_punct('='))
                                || (w[0].is_punct('.')
                                    && (w[1].is_ident("push") || w[1].is_ident("hash")))
                        });
                        if accumulates {
                            findings.push(Finding::new(&file.path, t.line, Rule::IterationOrder));
                        }
                        i = close;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    // Taint pass: callers chaining a tainted fn's result into float
    // accumulation inherit the hazard.
    tainted.sort();
    tainted.dedup();
    if !tainted.is_empty() {
        for site in &graph.sites {
            if !tainted.iter().any(|t| t == &site.name) {
                continue;
            }
            let caller = ws.all_fns[site.caller];
            let file = ws.file(caller);
            let Some((_, hi)) = ws.item(caller).body else { continue };
            // Skip the call's own argument list, then look for a chained
            // float sink.
            let args_end = skip_balanced_parens(file, site.tok + 1, hi);
            if let Some((sink_tok, _)) = chained_sink(file, args_end, hi) {
                let name = file.toks[sink_tok].ident().unwrap_or("");
                if matches!(name, "sum" | "fold" | "product") {
                    findings.push(Finding::new(&file.path, site.line, Rule::IterationOrder));
                }
            }
        }
    }
    findings
}

/// Matching `}` index for the `{` at `open` (clamped to `hi`).
fn match_brace(file: &ParsedFile, open: usize, hi: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < hi {
        if file.toks[i].is_punct('{') {
            depth += 1;
        } else if file.toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    hi
}

/// Index just past the `)` matching the `(` at `open` (clamped to `hi`).
fn skip_balanced_parens(file: &ParsedFile, open: usize, hi: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < hi {
        if file.toks[i].is_punct('(') {
            depth += 1;
        } else if file.toks[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    hi
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
    findings.extend(iteration_order(&ws, &graph));
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
            Rule::UnsafeAudit => {
                !pragmas.iter().any(|p| p.has_reason && p.rules.contains(&Rule::UnsafeAudit))
            }
            rule => !pragmas.iter().any(|p| {
                p.has_reason
                    && p.rules.contains(&rule)
                    && (p.line == f.line || p.line + 1 == f.line)
            }),
        }
    });
    findings.retain(|f| !cfg.is_allowed(&f.file, f.rule));

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
/// path-dependent rules ([`Rule::UnsafeAudit`], [`Rule::ServiceSleep`],
/// the surface/attack paths of [`Rule::UnmeteredQuery`]) and is matched
/// against the allowlist in `cfg`.
pub fn analyze_source(rel_path: &str, src: &str, cfg: &AuditConfig) -> Vec<Finding> {
    analyze_sources(&[(rel_path, src)], cfg)
}
