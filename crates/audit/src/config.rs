//! The audit configuration: which paths the pass skips.
//!
//! The allowlist is code, not a config file, on purpose: an exemption is a
//! reviewed policy decision, and the reason column keeps it honest. Inline
//! pragmas (`// ca-audit: allow(<rule>) — <reason>`) handle single sites;
//! allowlist entries exempt whole path prefixes (the bench binaries, the
//! audit fixtures) from every rule.

/// One path-prefix exemption.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Workspace-relative path prefix (forward slashes).
    pub prefix: &'static str,
    /// Why the exemption is sound — mandatory, mirroring the pragma policy.
    pub reason: &'static str,
}

/// The audit configuration.
#[derive(Clone, Debug, Default)]
pub struct AuditConfig {
    /// Path-prefix exemptions.
    pub allow: Vec<AllowEntry>,
}

impl AuditConfig {
    /// A configuration with no exemptions (fixture tests use this).
    pub fn strict() -> Self {
        AuditConfig { allow: Vec::new() }
    }

    /// This workspace's policy.
    pub fn workspace_default() -> Self {
        AuditConfig {
            allow: vec![
                AllowEntry {
                    prefix: "crates/bench/",
                    reason: "bench binaries measure wall-clock by design and never feed \
                             attack results",
                },
                AllowEntry {
                    prefix: "crates/audit/tests/fixtures/",
                    reason: "known-bad lint fixtures must keep their violations",
                },
            ],
        }
    }

    /// Whether `path` is exempt from every rule.
    pub fn is_file_skipped(&self, path: &str) -> bool {
        self.allow.iter().any(|e| path.starts_with(e.prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_default_scopes_exemptions() {
        let cfg = AuditConfig::workspace_default();
        assert!(cfg.is_file_skipped("crates/bench/src/bin/offline.rs"));
        assert!(cfg.is_file_skipped("crates/audit/tests/fixtures/nested_vec.rs"));
        assert!(!cfg.is_file_skipped("crates/par/src/lib.rs"));
        assert!(!cfg.is_file_skipped("crates/audit/src/rules.rs"));
    }

    #[test]
    fn every_exemption_carries_a_reason() {
        for e in AuditConfig::workspace_default().allow {
            assert!(!e.reason.trim().is_empty(), "no reason for {}", e.prefix);
        }
    }
}
