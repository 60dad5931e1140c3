//! Fixture tests for the rule engine: every rule must fire on its
//! known-bad fixture at the exact marked line, stay silent on the decoys,
//! and be silenced by (only) a *reasoned* suppression pragma.
//!
//! Fixtures live in `tests/fixtures/<rule_id>.rs` (dashes mapped to
//! underscores — the completeness test leans on that convention) and are
//! never compiled; the workspace audit skips them via the allowlist, so
//! they keep their violations on purpose.

use ca_audit::{analyze_source, AuditConfig, Finding, Rule};
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
        Rule::EnvInjection => "crates/copyattack-core/src/baselines.rs",
        Rule::UnorderedReduce => "crates/x/src/stats.rs",
        Rule::NestedVec => "crates/datagen/src/generator.rs",
        Rule::SeedDiscipline => "crates/x/src/sampling.rs",
        Rule::UnmeteredQuery => "crates/copyattack-core/src/campaign.rs",
        Rule::PragmaMissingReason => "crates/x/src/stats.rs",
        Rule::PragmaUnknownRule => "crates/x/src/anything.rs",
    }
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
fn unordered_reduce_fires_on_par_map_chains_not_map_reduce() {
    let src = include_str!("fixtures/unordered_reduce.rs");
    let f = strict("crates/x/src/stats.rs", src);
    assert_eq!(fired(&f), vec![("unordered-reduce", line_of(src, "MARK: sum fires"))]);
}

#[test]
fn reasoned_pragmas_suppress_on_their_line_and_the_line_below() {
    let src = include_str!("fixtures/suppressed.rs");
    assert!(
        strict("crates/x/src/stats.rs", src).is_empty(),
        "reasoned pragmas must fully silence the fixture"
    );
}

#[test]
fn reasonless_pragma_is_a_finding_and_suppresses_nothing() {
    let src = include_str!("fixtures/pragma_missing_reason.rs");
    let f = strict("crates/x/src/stats.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("pragma-missing-reason", line_of(src, "ca-audit: allow(unordered-reduce)")),
            ("unordered-reduce", line_of(src, "MARK: still fires")),
        ]
    );
}

#[test]
fn unknown_rule_in_pragma_is_reported() {
    let src = include_str!("fixtures/pragma_unknown_rule.rs");
    let f = strict("crates/x/src/anything.rs", src);
    assert_eq!(
        fired(&f),
        vec![
            ("pragma-unknown-rule", line_of(src, "MARK: typo'd")),
            ("pragma-unknown-rule", line_of(src, "MARK: moved rule")),
        ]
    );
}

/// Markers on each code rule's violating lines (the completeness test
/// drives pragma suppression off this table; pragma-hygiene rules are
/// deliberately unsuppressible and are exercised above instead).
fn violation_markers(rule: Rule) -> Option<&'static [&'static str]> {
    match rule {
        Rule::EnvInjection => Some(&[
            "MARK: inject_user fires",
            "MARK: try_inject_user fires",
            "MARK: append_profile fires",
        ]),
        Rule::UnorderedReduce => Some(&["MARK: sum fires"]),
        Rule::NestedVec => Some(&["MARK: field fires", "MARK: return type fires"]),
        Rule::SeedDiscipline => Some(&["MARK: literal fires", "MARK: propagated literal fires"]),
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
        let mut patched = src.clone();
        for m in markers {
            patched = pragma_above(&patched, m, rule.id());
        }
        assert!(
            !strict(path, &patched).iter().any(|f| f.rule == rule),
            "{rule}: reasoned pragma above each violation must silence the rule"
        );
    }
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
    fn rule_id_round_trip_holds_for_every_index(i in 0..Rule::ALL.len()) {
        let rule = Rule::ALL[i];
        prop_assert_eq!(Rule::from_id(rule.id()), Some(rule));
        prop_assert_eq!(rule.id(), rule.to_string());
    }

    #[test]
    fn corrupted_rule_ids_never_resolve(i in 0..Rule::ALL.len(), tail in 0u32..1000) {
        let corrupted = format!("{}-{tail}", Rule::ALL[i].id());
        prop_assert_eq!(Rule::from_id(&corrupted), None);
        let truncated = &Rule::ALL[i].id()[..Rule::ALL[i].id().len() - 1];
        prop_assert_eq!(Rule::from_id(truncated), None);
    }
}

#[test]
fn allowlist_entries_beat_strict_findings() {
    let src = include_str!("fixtures/unordered_reduce.rs");
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
