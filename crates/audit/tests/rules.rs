//! Fixture tests for the rule engine: every rule must fire on its
//! known-bad fixture at the exact marked line, stay silent on the decoys,
//! and be silenced by (only) a *reasoned* suppression pragma.
//!
//! Fixtures live in `tests/fixtures/<rule_id>.rs` (dashes mapped to
//! underscores — the completeness test leans on that convention) and are
//! never compiled; the workspace audit skips them via the allowlist, so
//! they keep their violations on purpose.

use ca_audit::{analyze_source, AuditConfig, Finding, Rule, Severity};
use proptest::prelude::*;

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("marker {needle:?} not found")) as u32
        + 1
}

fn strict(rel_path: &str, src: &str) -> Vec<Finding> {
    analyze_source(rel_path, src, &AuditConfig::strict())
}

/// (rule id, line) pairs, sorted, for compact exact-match assertions.
fn fired(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    let mut v: Vec<_> = findings.iter().map(|f| (f.rule.id(), f.line)).collect();
    v.sort();
    v
}

/// Like [`fired`], restricted to one rule (for fixtures that trip
/// overlapping rules by construction).
fn fired_rule(findings: &[Finding], rule: Rule) -> Vec<u32> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

/// Copy of `src` with a reasoned `allow(rule)` pragma inserted directly
/// above every line containing `marker` (line-above suppression form).
fn pragma_above(src: &str, marker: &str, rule: &str) -> String {
    let mut out = String::new();
    for l in src.lines() {
        if l.contains(marker) {
            out.push_str(&format!("// ca-audit: allow({rule}) — fixture suppression check\n"));
        }
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Reads `tests/fixtures/<rule_id>.rs` (dashes → underscores).
fn fixture_for(rule: Rule) -> String {
    let path =
        format!("{}/tests/fixtures/{}.rs", env!("CARGO_MANIFEST_DIR"), rule.id().replace('-', "_"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("every rule needs a fixture file; {path}: {e}"))
}

/// The non-test analysis path each rule's fixture is judged at (chosen so
/// the rule is in scope and overlap with path-scoped rules stays minimal).
fn fixture_path(rule: Rule) -> &'static str {
    match rule {
        Rule::HashCollections => "crates/x/src/util.rs",
        Rule::WallClock => "crates/x/src/telemetry.rs",
        Rule::AdHocRng => "crates/x/src/sampling.rs",
        Rule::RawThread => "crates/x/src/workers.rs",
        Rule::EnvInjection => "crates/copyattack-core/src/baselines.rs",
        Rule::UnsafeAudit => "crates/x/src/lib.rs",
        Rule::UnorderedReduce => "crates/x/src/stats.rs",
        Rule::ServiceSleep => "crates/recsys/src/faults.rs",
        Rule::NestedVec => "crates/datagen/src/generator.rs",
        Rule::ExactScan => "crates/mf/src/recommender.rs",
        Rule::SeedDiscipline => "crates/x/src/sampling.rs",
        Rule::IterationOrder => "crates/x/src/stats.rs",
        Rule::UnmeteredQuery => "crates/copyattack-core/src/campaign.rs",
        Rule::PragmaMissingReason => "crates/x/src/telemetry.rs",
        Rule::PragmaUnknownRule => "crates/x/src/anything.rs",
    }
}

#[test]
fn hash_collections_fires_at_the_marked_line_only() {
    let src = include_str!("fixtures/hash_collections.rs");
    let f = strict("crates/x/src/lib.rs", src);
    // The lib-root path also lacks #![forbid(unsafe_code)] — expected.
    assert_eq!(
        fired(&f),
        vec![("hash-collections", line_of(src, "MARK: fires")), ("unsafe-audit", 1)]
    );
}

#[test]
fn wall_clock_fires_on_both_clocks_never_in_strings_or_comments() {
    let src = include_str!("fixtures/wall_clock.rs");
    let f = strict("crates/x/src/telemetry.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("wall-clock", line_of(src, "MARK: instant fires")),
            ("wall-clock", line_of(src, "MARK: system-time fires")),
        ]
    );
}

#[test]
fn ad_hoc_rng_fires_on_ambient_sources_not_seeded_ones() {
    let src = include_str!("fixtures/ad_hoc_rng.rs");
    let f = strict("crates/x/src/sampling.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("ad-hoc-rng", line_of(src, "MARK: thread_rng fires")),
            ("ad-hoc-rng", line_of(src, "MARK: from_entropy fires")),
        ]
    );
}

#[test]
fn raw_thread_fires_on_std_paths_not_scope_handle_methods() {
    let src = include_str!("fixtures/raw_thread.rs");
    let f = strict("crates/x/src/workers.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("raw-thread", line_of(src, "MARK: scope fires")),
            ("raw-thread", line_of(src, "MARK: spawn fires")),
        ]
    );
}

#[test]
fn seed_discipline_fires_on_literals_direct_and_propagated() {
    let src = include_str!("fixtures/seed_discipline.rs");
    let f = strict("crates/x/src/sampling.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("seed-discipline", line_of(src, "MARK: literal fires")),
            ("seed-discipline", line_of(src, "MARK: propagated literal fires")),
        ]
    );
    // The same source under a tests/ tree is all test code: exempt.
    assert!(strict("crates/x/tests/sampling.rs", src).is_empty());
}

#[test]
fn iteration_order_fires_on_sinks_direct_looped_and_one_hop_away() {
    let src = include_str!("fixtures/iteration_order.rs");
    let f = strict("crates/x/src/stats.rs", src);
    assert_eq!(
        fired_rule(&f, Rule::IterationOrder),
        vec![
            line_of(src, "MARK: direct sum fires"),
            line_of(src, "MARK: loop accumulation fires"),
            line_of(src, "MARK: collect fires"),
            line_of(src, "MARK: tainted caller fires"),
        ]
    );
    // The declarations themselves are hash-collections findings — the
    // iteration-order family only adds the flow-sensitive layer.
    assert!(f.iter().any(|x| x.rule == Rule::HashCollections));
}

#[test]
fn unmetered_query_catches_the_planted_raw_top_k() {
    let src = include_str!("fixtures/unmetered_query.rs");
    let f = strict("crates/copyattack-core/src/campaign.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("unmetered-query", line_of(src, "MARK: planted unmetered top_k fires")),
            ("unmetered-query", line_of(src, "MARK: planted unmetered batch fires")),
        ]
    );
    // The same source on the platform side of the fence is the metered
    // surface's own implementation: no attack-side root reaches it.
    assert!(strict("crates/recsys/src/blackbox.rs", src).is_empty());
}

#[test]
fn env_injection_fires_in_attack_code_but_not_in_the_env_itself() {
    let src = include_str!("fixtures/env_injection.rs");
    let expected = vec![
        ("env-injection", line_of(src, "MARK: inject_user fires")),
        ("env-injection", line_of(src, "MARK: try_inject_user fires")),
        ("env-injection", line_of(src, "MARK: append_profile fires")),
    ];
    let sorted = |mut v: Vec<(&'static str, u32)>| {
        v.sort();
        v
    };
    // Attack code anywhere in copyattack-core is in scope.
    assert_eq!(fired(&strict("crates/copyattack-core/src/baselines.rs", src)), sorted(expected));
    // env.rs *is* the injection surface: the same calls are its
    // implementation, not a bypass.
    assert!(strict("crates/copyattack-core/src/env.rs", src).is_empty());
    // Outside the attack crate, platform-side code injects freely.
    assert!(strict("crates/recsys/src/faults.rs", src).is_empty());
    assert!(strict("src/pipeline.rs", src).is_empty());
}

#[test]
fn service_sleep_fires_only_in_service_path_crates() {
    let src = include_str!("fixtures/service_sleep.rs");
    let expected = vec![
        ("service-sleep", line_of(src, "MARK: qualified sleep fires")),
        ("service-sleep", line_of(src, "MARK: imported sleep fires")),
    ];
    // The service path is in scope: the platform and its fault layer.
    assert_eq!(fired(&strict("crates/recsys/src/faults.rs", src)), expected);
    // The same source elsewhere is not bound by the logical-clock contract.
    assert!(strict("crates/train/src/driver.rs", src).is_empty());
    assert!(strict("src/pipeline.rs", src).is_empty());
}

#[test]
fn nested_vec_fires_only_in_data_plane_crates() {
    let src = include_str!("fixtures/nested_vec.rs");
    let expected = vec![
        ("nested-vec", line_of(src, "MARK: field fires")),
        ("nested-vec", line_of(src, "MARK: return type fires")),
    ];
    // Both compact-data-plane crates are in scope.
    assert_eq!(fired(&strict("crates/recsys/src/dataset.rs", src)), expected);
    assert_eq!(fired(&strict("crates/datagen/src/latent.rs", src)), expected);
    // Elsewhere the nested shape carries no dataset-scale state contract.
    assert!(strict("crates/mf/src/recommender.rs", src).is_empty());
    assert!(strict("src/pipeline.rs", src).is_empty());
}

#[test]
fn exact_scan_fires_everywhere_except_the_retrieval_path() {
    let src = include_str!("fixtures/exact_scan.rs");
    let expected = vec![
        ("exact-scan", line_of(src, "MARK: method call fires")),
        ("exact-scan", line_of(src, "MARK: chained call fires")),
    ];
    // Full-catalog scans are flagged wherever they appear off-path…
    assert_eq!(fired(&strict("crates/mf/src/recommender.rs", src)), expected);
    assert_eq!(fired(&strict("src/pipeline.rs", src)), expected);
    assert_eq!(fired(&strict("tests/batch_parity.rs", src)), expected);
    // …but the engine module *is* the retrieval path. The recsys files are
    // also data-plane scoped, so filter to this rule only.
    let exact_scan = |path| {
        let mut findings = strict(path, src);
        findings.retain(|f| f.rule == Rule::ExactScan);
        fired(&findings)
    };
    assert!(exact_scan("crates/recsys/src/engine.rs").is_empty());
    // The exemption covers that one file, not the rest of its crate.
    assert_eq!(exact_scan("crates/recsys/src/knn.rs"), expected);
}

#[test]
fn unsafe_audit_fires_on_lib_roots_only() {
    let src = include_str!("fixtures/unsafe_audit.rs");
    assert_eq!(fired(&strict("crates/x/src/lib.rs", src)), vec![("unsafe-audit", 1)]);
    assert_eq!(fired(&strict("src/lib.rs", src)), vec![("unsafe-audit", 1)]);
    // Non-root modules and binaries are out of the rule's scope.
    assert!(strict("crates/x/src/util.rs", src).is_empty());
    assert!(strict("crates/x/src/main.rs", src).is_empty());
    // A file-scope pragma (anywhere in the file) suppresses it.
    let pragmad =
        format!("{src}\n// ca-audit: allow(unsafe-audit) — FFI shim needs raw pointers\n");
    assert!(strict("crates/x/src/lib.rs", &pragmad).is_empty());
}

#[test]
fn unordered_reduce_fires_on_par_map_chains_not_map_reduce() {
    let src = include_str!("fixtures/unordered_reduce.rs");
    let f = strict("crates/x/src/stats.rs", src);
    assert_eq!(fired(&f), vec![("unordered-reduce", line_of(src, "MARK: sum fires"))]);
}

#[test]
fn reasoned_pragmas_suppress_on_their_line_and_the_line_below() {
    let src = include_str!("fixtures/suppressed.rs");
    assert!(
        strict("crates/x/src/telemetry.rs", src).is_empty(),
        "reasoned pragmas must fully silence the fixture"
    );
}

#[test]
fn reasonless_pragma_is_a_finding_and_suppresses_nothing() {
    let src = include_str!("fixtures/pragma_missing_reason.rs");
    let f = strict("crates/x/src/telemetry.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("pragma-missing-reason", line_of(src, "ca-audit: allow(wall-clock)")),
            ("wall-clock", line_of(src, "MARK: still fires")),
        ]
    );
}

#[test]
fn unknown_rule_in_pragma_is_reported() {
    let src = include_str!("fixtures/pragma_unknown_rule.rs");
    let f = strict("crates/x/src/anything.rs", src);
    assert_eq!(fired(&f), vec![("pragma-unknown-rule", line_of(src, "MARK: typo'd"))]);
}

/// Markers on each code rule's violating lines (the completeness test
/// drives pragma suppression off this table; pragma-hygiene rules are
/// deliberately unsuppressible and are exercised above instead).
fn violation_markers(rule: Rule) -> Option<&'static [&'static str]> {
    match rule {
        Rule::HashCollections => Some(&["MARK: fires"]),
        Rule::WallClock => Some(&["MARK: instant fires", "MARK: system-time fires"]),
        Rule::AdHocRng => Some(&["MARK: thread_rng fires", "MARK: from_entropy fires"]),
        Rule::RawThread => Some(&["MARK: scope fires", "MARK: spawn fires"]),
        Rule::EnvInjection => Some(&[
            "MARK: inject_user fires",
            "MARK: try_inject_user fires",
            "MARK: append_profile fires",
        ]),
        Rule::UnsafeAudit => Some(&["MARK: unsafe fixture"]),
        Rule::UnorderedReduce => Some(&["MARK: sum fires"]),
        Rule::ServiceSleep => Some(&["MARK: qualified sleep fires", "MARK: imported sleep fires"]),
        Rule::NestedVec => Some(&["MARK: field fires", "MARK: return type fires"]),
        Rule::ExactScan => Some(&["MARK: method call fires", "MARK: chained call fires"]),
        Rule::SeedDiscipline => Some(&["MARK: literal fires", "MARK: propagated literal fires"]),
        Rule::IterationOrder => Some(&[
            "MARK: direct sum fires",
            "MARK: loop accumulation fires",
            "MARK: collect fires",
            "MARK: tainted caller fires",
        ]),
        Rule::UnmeteredQuery => {
            Some(&["MARK: planted unmetered top_k fires", "MARK: planted unmetered batch fires"])
        }
        Rule::PragmaMissingReason | Rule::PragmaUnknownRule => None,
    }
}

#[test]
fn every_rule_is_complete_with_docs_fixture_firing_and_suppression() {
    for rule in Rule::ALL {
        assert!(!rule.message().is_empty(), "{rule}: empty message");
        assert!(!rule.hint().is_empty(), "{rule}: empty hint");
        let src = fixture_for(rule); // panics when the fixture file is missing
        let path = fixture_path(rule);
        let before = strict(path, &src);
        assert!(
            before.iter().any(|f| f.rule == rule),
            "{rule}: fixture must make its own rule fire at {path}"
        );
        let Some(markers) = violation_markers(rule) else { continue };
        // UnsafeAudit suppresses file-scope; everything else line-by-line.
        let patched = if rule == Rule::UnsafeAudit {
            format!("{src}\n// ca-audit: allow(unsafe-audit) — fixture suppression check\n")
        } else {
            let mut patched = src.clone();
            for m in markers {
                patched = pragma_above(&patched, m, rule.id());
            }
            patched
        };
        assert!(
            !strict(path, &patched).iter().any(|f| f.rule == rule),
            "{rule}: reasoned pragma above each violation must silence the rule"
        );
    }
}

#[test]
fn severities_gate_as_documented() {
    assert_eq!(Rule::IterationOrder.severity(), Severity::Warn);
    for rule in [Rule::SeedDiscipline, Rule::UnmeteredQuery, Rule::HashCollections] {
        assert_eq!(rule.severity(), Severity::Deny, "{rule}");
    }
    let denies = Rule::ALL.iter().filter(|r| r.severity() == Severity::Deny).count();
    assert_eq!(denies, Rule::ALL.len() - 1, "iteration-order is the only Warn rule");
}

#[test]
fn every_rule_has_a_distinct_id_roundtripping_through_from_id() {
    for r in Rule::ALL {
        assert_eq!(Rule::from_id(r.id()), Some(r));
    }
    let mut ids: Vec<_> = Rule::ALL.iter().map(|r| r.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), Rule::ALL.len(), "rule ids must be unique");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rule_id_round_trip_holds_for_every_index(i in 0usize..15) {
        let rule = Rule::ALL[i];
        prop_assert_eq!(Rule::from_id(rule.id()), Some(rule));
        prop_assert_eq!(rule.id(), rule.to_string());
    }

    #[test]
    fn corrupted_rule_ids_never_resolve(i in 0usize..15, tail in 0u32..1000) {
        let corrupted = format!("{}-{tail}", Rule::ALL[i].id());
        prop_assert_eq!(Rule::from_id(&corrupted), None);
        let truncated = &Rule::ALL[i].id()[..Rule::ALL[i].id().len() - 1];
        prop_assert_eq!(Rule::from_id(truncated), None);
    }
}

#[test]
fn allowlist_entries_beat_strict_findings() {
    let src = include_str!("fixtures/wall_clock.rs");
    let cfg = AuditConfig::workspace_default();
    assert!(
        analyze_source("crates/bench/src/bin/offline.rs", src, &cfg).is_empty(),
        "bench binaries are fully exempt by policy"
    );
    assert!(
        !analyze_source("crates/train/src/driver.rs", src, &cfg).is_empty(),
        "library crates get no such pass"
    );
}
