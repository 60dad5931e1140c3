//! `ca-audit` — the workspace query-discipline and determinism lint pass,
//! for the rules that need the whole workspace in view.
//!
//! Every crate in this workspace stakes its correctness on two contracts
//! that ordinary tests only check after the fact:
//!
//! 1. **Determinism** — bitwise-identical results at any `CA_THREADS`
//!    setting (the `ca-par` contract), golden-hash training parity, and
//!    resumable checkpoints. A literal seed or a float reduction over
//!    parallel output silently breaks reproducibility — and with it the
//!    reward-signal fidelity CopyAttack's REINFORCE updates depend on.
//! 2. **Query discipline** — the black-box threat model assumes a strict
//!    query budget, so every ranking call must flow through the metered
//!    `BlackBoxRecommender`/`FallibleBlackBox` wrappers; a direct
//!    `.top_k(…)` in attack code is a soundness bug, not a style issue.
//!
//! The bans that a name-resolving compiler pass checks better — hash
//! collections, wall clocks, ambient RNG, raw threads, sleeps, direct
//! `score_batch` scans and `unsafe` — live in the workspace's `clippy.toml`
//! and `[workspace.lints]` (see `DESIGN.md` §11). This crate keeps what no
//! per-crate lint can see. Token rules run per file over a hand-rolled
//! comment/string-aware tokenizer ([`lexer`]). The **symbol-aware** tier
//! parses every file to an item skeleton ([`parser`]), assembles a
//! workspace symbol table ([`symbols`]) and an approximate call graph
//! ([`callgraph`]), and proves cross-file properties: seed literals
//! flowing through a parameter into an RNG two crates away
//! ([`rules::Rule::SeedDiscipline`]), and raw ranking calls reachable from
//! attack code without crossing the metered surface
//! ([`rules::Rule::UnmeteredQuery`]).
//!
//! Per-file analysis fans out through `ca_par::map`, so the pass scales
//! with `CA_THREADS` while the report stays **byte-identical** at any
//! thread count (findings merge in fixed path order). The crate's only
//! dependency is the in-workspace `ca-par` runtime, so the auditor builds
//! even when the network does not.
//!
//! Suppression is layered (see `DESIGN.md` §16):
//!
//! - inline pragmas `// ca-audit: allow(<rule>) — <reason>` (reason
//!   mandatory) for single sites;
//! - a reviewed path-prefix allowlist ([`config`]) for whole trees.
//!
//! It ships three ways: the CLI (`cargo run -p ca-audit`, with
//! `--format human|github`), the tier-1 gate at `tests/audit.rs`, and a CI
//! job emitting GitHub annotations.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symbols;

pub use config::{AllowEntry, AuditConfig};
pub use rules::{analyze_source, analyze_sources, Finding, Rule};

use std::io;
use std::path::{Path, PathBuf};

/// The top-level directories the pass scans, relative to the workspace
/// root. `vendor/` (offline dependency stand-ins) and `target/` are
/// deliberately outside the contract.
pub const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// The full result of a workspace audit.
#[derive(Clone, Debug, Default)]
pub struct AuditOutcome {
    /// Findings not suppressed by pragma or allowlist, in (path, line,
    /// rule) order.
    pub findings: Vec<Finding>,
}

impl AuditOutcome {
    /// Whether the run passes: no finding survived.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Reads every auditable source file under `root`, as
/// `(workspace-relative path, contents)` in sorted path order — the order
/// every report derives from.
pub fn collect_sources(root: &Path, cfg: &AuditConfig) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if cfg.is_file_skipped(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        files.push((rel, src));
    }
    Ok(files)
}

/// The full pipeline behind the CLI and the tier-1 gate: walk and analyze
/// as one workspace.
pub fn audit_workspace_outcome(root: &Path, cfg: &AuditConfig) -> io::Result<AuditOutcome> {
    let files = collect_sources(root, cfg)?;
    let refs: Vec<(&str, &str)> = files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(AuditOutcome { findings: analyze_sources(&refs, cfg) })
}

/// Recursively collects `.rs` files under `dir` (skipping `target/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target" || n == ".git") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]` (how the CLI finds the root when invoked from a
/// subdirectory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
