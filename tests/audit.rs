//! Tier-1 gate: the workspace must be audit-clean.
//!
//! Runs the full `ca-audit` static pass — per-file token rules plus the
//! cross-file symbol-aware families (seed-discipline, iteration-order,
//! unmetered-query) — over every Rust source in the repository. The gate
//! fails on any finding, Deny or Warn. New violations either get fixed or
//! carry a `// ca-audit: allow(<rule>) — <reason>` pragma; reasonless
//! pragmas are themselves findings, so this test cannot be silenced
//! without a paper trail.

use std::path::Path;

use ca_audit::{audit_workspace_outcome, report, AuditConfig};

#[test]
fn workspace_is_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = audit_workspace_outcome(root, &AuditConfig::workspace_default(), None)
        .expect("audit walk must succeed");
    assert!(
        !outcome.failed(),
        "ca-audit gate failed ({} finding(s)):\n{}",
        outcome.findings.len(),
        report::human(&outcome)
    );
    assert!(
        outcome.findings.is_empty(),
        "ca-audit found {} warning-level violation(s):\n{}",
        outcome.findings.len(),
        report::human(&outcome)
    );
}
