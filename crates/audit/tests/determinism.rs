//! The parallel per-file phase must not leak scheduling into the report.
//!
//! `analyze_sources` fans the lex/parse/local-rule phase out through
//! `ca_par::map` and keeps every cross-file pass serial over BTree-ordered
//! state, so the rendered report is a pure function of the sources. This
//! test pins that claim: the same workspace analyzed at 1 and at 4 worker
//! threads must produce byte-identical human and GitHub output.
//!
//! Thread-count sweeps share process-global state (`ca_par::set_threads`),
//! so the whole sweep lives in one test fn and runs sequentially.

use ca_audit::{analyze_sources, report, AuditConfig, AuditOutcome};

/// A small synthetic workspace that exercises both cross-file passes
/// (seed propagation and top-k reachability) plus a per-file token rule in
/// enough files to spread over every worker.
fn sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    files.push((
        "crates/copyattack-core/src/drive.rs".to_string(),
        r#"
fn build_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
fn campaign() -> StdRng {
    build_from(41)
}
fn rank(platform: &Platform) -> Vec<u32> {
    platform.top_k(1, 10)
}
"#
        .to_string(),
    ));
    files.push((
        "crates/recsys/src/dataset.rs".to_string(),
        "struct Rows {\n    rows: Vec<Vec<u32>>,\n}\n".to_string(),
    ));
    for i in 0..20 {
        files.push((
            format!("crates/x/src/bulk_{i:02}.rs"),
            format!(
                "fn noise_{i}(xs: &[f32]) -> f32 {{\n    ca_par::map(xs, |_, &x| x).iter().sum::<f32>() + {i}.0\n}}\n"
            ),
        ));
    }
    // `analyze_sources` inherits collect_sources' contract: paths sorted.
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn render_all(cfg: &AuditConfig) -> (String, String) {
    let owned = sources();
    let refs: Vec<(&str, &str)> = owned.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    let outcome = AuditOutcome { findings: analyze_sources(&refs, cfg) };
    (report::human(&outcome), report::github(&outcome))
}

#[test]
fn reports_are_byte_identical_at_one_and_four_threads() {
    let cfg = AuditConfig::workspace_default();
    let mut per_thread = Vec::new();
    for threads in [1usize, 4] {
        ca_par::set_threads(Some(threads));
        per_thread.push(render_all(&cfg));
    }
    ca_par::set_threads(None);

    let (h1, g1) = &per_thread[0];
    let (h4, g4) = &per_thread[1];
    for rule in ["seed-discipline", "unmetered-query", "nested-vec", "unordered-reduce"] {
        assert!(h1.contains(rule), "sanity: {rule} must fire in\n{h1}");
    }
    assert!(h1.ends_with("ca-audit: 23 finding(s)\n"), "sanity: {h1}");
    assert_eq!(h1, h4, "human report differs across thread counts");
    assert_eq!(g1, g4, "github report differs across thread counts");
}
