//! The parallel per-file phase must not leak scheduling into the report.
//!
//! `analyze_sources` fans the lex/parse/local-rule phase out through
//! `ca_par::map` and keeps every cross-file pass serial over BTree-ordered
//! state, so the rendered report is a pure function of the sources. This
//! test pins that claim: the same workspace analyzed at 1 and at 4 worker
//! threads must produce byte-identical JSON, human, and GitHub output.
//!
//! Thread-count sweeps share process-global state (`ca_par::set_threads`),
//! so the whole sweep lives in one test fn and runs sequentially.

use ca_audit::{analyze_sources, report, AuditConfig, AuditOutcome};

/// A small synthetic workspace that exercises every cross-file pass:
/// seed propagation, hash-iteration taint, and top-k reachability.
fn sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    files.push((
        "crates/copyattack-core/src/drive.rs".to_string(),
        r#"
fn build_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
fn campaign() -> StdRng {
    let _ = HashMap::<u32, f32>::new();
    build_from(41)
}
fn rank(platform: &Platform) -> Vec<u32> {
    platform.top_k(1, 10)
}
"#
        .to_string(),
    ));
    files.push((
        "crates/x/src/stats.rs".to_string(),
        r#"
fn mass(counts: &HashMap<u32, f32>) -> f32 {
    counts.values().sum()
}
fn order(counts: &HashMap<u32, f32>) -> Vec<u32> {
    counts.keys().copied().collect()
}
fn chained(counts: &HashMap<u32, f32>) -> f32 {
    order(counts).iter().map(|k| *k as f32).sum()
}
"#
        .to_string(),
    ));
    for i in 0..20 {
        files.push((
            format!("crates/x/src/bulk_{i:02}.rs"),
            format!(
                "fn noise_{i}() -> u64 {{\n    let now = std::time::Instant::now();\n    let _ = now;\n    {i}\n}}\n"
            ),
        ));
    }
    // `analyze_sources` inherits collect_sources' contract: paths sorted.
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn render_all(cfg: &AuditConfig) -> (String, String, String) {
    let owned = sources();
    let refs: Vec<(&str, &str)> = owned.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    let outcome = AuditOutcome { findings: analyze_sources(&refs, cfg) };
    (report::human(&outcome), report::json(&outcome), report::github(&outcome))
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

    let (h1, j1, g1) = &per_thread[0];
    let (h4, j4, g4) = &per_thread[1];
    assert!(!j1.is_empty() && j1.contains("seed-discipline"), "sanity: {j1}");
    assert_eq!(h1, h4, "human report differs across thread counts");
    assert_eq!(j1, j4, "json report differs across thread counts");
    assert_eq!(g1, g4, "github report differs across thread counts");
}
