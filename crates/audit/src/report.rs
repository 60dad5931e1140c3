//! Finding reporters: human-readable text and GitHub Actions workflow
//! annotations.
//!
//! The github format emits one `::error` workflow command per finding,
//! with the `%`/newline escaping the Actions runner requires.

use crate::AuditOutcome;

/// Human-readable report: one `file:line [rule] message` block per finding
/// plus a fix hint, ending with a summary.
pub fn human(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        out.push_str(&format!("{}:{} [{}] {}\n", f.file, f.line, f.rule.id(), f.message));
        out.push_str(&format!("    hint: {}\n", f.rule.hint()));
    }
    if outcome.is_clean() {
        out.push_str("ca-audit: clean\n");
    } else {
        out.push_str(&format!("ca-audit: {} finding(s)\n", outcome.findings.len()));
    }
    out
}

/// GitHub Actions annotations: one `::error` workflow command per finding.
/// A trailing plain-text summary line keeps the job log readable.
pub fn github(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        out.push_str(&format!(
            "::error file={},line={},title=ca-audit {}::{}%0Ahint: {}\n",
            gh_property(&f.file),
            f.line,
            gh_property(f.rule.id()),
            gh_message(&f.message),
            gh_message(f.rule.hint()),
        ));
    }
    out.push_str(&format!("ca-audit: {} finding(s)\n", outcome.findings.len()));
    out
}

/// Escapes a workflow-command *message* (`%`, CR, LF).
fn gh_message(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a workflow-command *property* (message escapes plus `:` / `,`,
/// which delimit properties).
fn gh_property(s: &str) -> String {
    gh_message(s).replace(':', "%3A").replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Rule};

    fn sample() -> AuditOutcome {
        AuditOutcome {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: Rule::SeedDiscipline,
                message: Rule::SeedDiscipline.message().into(),
            }],
        }
    }

    #[test]
    fn human_report_names_rule_and_line() {
        let r = human(&sample());
        assert!(r.contains("crates/x/src/lib.rs:7 [seed-discipline] RNG seeded"));
        assert!(r.contains("hint:"));
        assert!(r.contains("1 finding(s)"));
        assert!(human(&AuditOutcome::default()).contains("clean"));
    }

    #[test]
    fn github_annotations_escape_percent_and_newline() {
        let mut o = sample();
        o.findings.push(Finding {
            file: "src/b.rs".into(),
            line: 2,
            rule: Rule::NestedVec,
            message: "50% of\nruns".into(),
        });
        let r = github(&o);
        assert!(
            r.contains("::error file=crates/x/src/lib.rs,line=7,title=ca-audit seed-discipline::")
        );
        assert!(r.contains("::error file=src/b.rs,line=2,title=ca-audit nested-vec::"));
        assert!(r.contains("50%25 of%0Aruns"), "percent and newline are escaped");
        assert_eq!(r.lines().last().unwrap(), "ca-audit: 2 finding(s)");
    }
}
