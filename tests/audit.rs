//! Tier-1 gates for the workspace's static checks.
//!
//! `workspace_is_audit_clean` runs the full `ca-audit` pass — per-file
//! token rules plus the cross-file symbol-aware families (seed-discipline,
//! unmetered-query) — over every Rust source in the repository and fails
//! on any finding. New violations either get fixed or carry a
//! `// ca-audit: allow(<rule>) — <reason>` pragma; reasonless pragmas are
//! themselves findings, so this test cannot be silenced without a paper
//! trail.
//!
//! The determinism bans that need name resolution run as rustc and clippy
//! lints (`clippy.toml`, `[workspace.lints]`), which bind a crate only if
//! its manifest opts in; `every_member_opts_into_the_workspace_lints`
//! checks that each one does.

use std::path::Path;

use ca_audit::{audit_workspace_outcome, report, AuditConfig};

#[test]
fn workspace_is_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = audit_workspace_outcome(root, &AuditConfig::workspace_default())
        .expect("audit walk must succeed");
    assert!(
        outcome.is_clean(),
        "ca-audit found {} violation(s):\n{}",
        outcome.findings.len(),
        report::human(&outcome)
    );
}

/// The lines of `manifest`'s `[name]` table, up to the next table header.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let mut lines = manifest.lines().map(str::trim);
    if !lines.any(|l| l == header) {
        return Vec::new();
    }
    lines.take_while(|l| !l.starts_with('[')).filter(|l| !l.is_empty()).collect()
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ must be readable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests.sort();
    assert!(
        manifests.iter().any(|m| m.ends_with("crates/bench/Cargo.toml")),
        "the walk must reach every member, bench included: {manifests:?}"
    );
    for path in &manifests {
        let text = std::fs::read_to_string(path).expect("manifest must be readable");
        let rel = path.strip_prefix(root).unwrap_or(path).display().to_string();
        if rel.starts_with("crates/bench") {
            // The bench binaries allow clippy.toml's bans by design, so the
            // crate keeps its own table; it must still deny `unsafe`.
            assert!(
                table(&text, "lints.rust").contains(&"unsafe_code = \"deny\""),
                "{rel}: its own [lints.rust] table must set unsafe_code = \"deny\""
            );
        } else {
            assert!(
                table(&text, "lints").contains(&"workspace = true"),
                "{rel}: must carry `[lints] workspace = true`, or unsafe_code and \
                 clippy.toml's bans do not bind it"
            );
        }
    }
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(table(&workspace, "workspace.lints.rust").contains(&"unsafe_code = \"deny\""));
}
