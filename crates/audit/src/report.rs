//! Finding reporters: human-readable text, machine-readable JSON, and
//! GitHub Actions workflow annotations.
//!
//! JSON serialization is hand-rolled (the crate takes no external
//! dependencies); the escape routine covers everything a path, message,
//! or hint can contain. The github format emits one
//! `::error`/`::warning` workflow command per finding, with the
//! `%`/newline escaping the Actions runner requires.

use crate::rules::Severity;
use crate::AuditOutcome;

/// Human-readable report: one `file:line [rule] message` block per finding
/// plus a fix hint, ending with a summary.
pub fn human(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        out.push_str(&format!(
            "{}:{} [{}] {}: {}\n",
            f.file,
            f.line,
            f.rule.id(),
            f.severity().id(),
            f.message
        ));
        out.push_str(&format!("    hint: {}\n", f.rule.hint()));
    }
    if outcome.is_clean() {
        out.push_str("ca-audit: clean\n");
    } else {
        out.push_str(&format!("ca-audit: {} finding(s)\n", outcome.findings.len()));
    }
    out
}

/// JSON report: `{"findings":[…],"count":N}`.
pub fn json(outcome: &AuditOutcome) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"severity\":{},\"message\":{},\"hint\":{}}}",
            escape(&f.file),
            f.line,
            escape(f.rule.id()),
            escape(f.severity().id()),
            escape(&f.message),
            escape(f.rule.hint()),
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", outcome.findings.len()));
    out
}

/// GitHub Actions annotations: one workflow command per finding (Deny →
/// `::error`, Warn → `::warning`). A trailing plain-text summary line
/// keeps the job log readable.
pub fn github(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        let cmd = match f.severity() {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        };
        out.push_str(&format!(
            "::{cmd} file={},line={},title=ca-audit {}::{}%0Ahint: {}\n",
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

/// JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
                rule: Rule::WallClock,
                message: Rule::WallClock.message().into(),
            }],
        }
    }

    #[test]
    fn human_report_names_rule_line_and_severity() {
        let r = human(&sample());
        assert!(r.contains("crates/x/src/lib.rs:7 [wall-clock] deny:"));
        assert!(r.contains("hint:"));
        assert!(r.contains("1 finding(s)"));
        assert!(human(&AuditOutcome::default()).contains("clean"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let r = json(&sample());
        assert!(r.starts_with("{\"findings\":[{\"file\":\"crates/x/src/lib.rs\""));
        assert!(r.contains("\"rule\":\"wall-clock\""));
        assert!(r.contains("\"severity\":\"deny\""));
        assert!(r.contains("\"count\":1"));
        assert!(r.ends_with("\"count\":1}"));
        assert_eq!(json(&AuditOutcome::default()), "{\"findings\":[],\"count\":0}");
    }

    #[test]
    fn json_escapes_quotes_and_backslashes_in_paths_and_messages() {
        let mut o = sample();
        o.findings[0].file = "crates\\x\\src\\lib.rs".into();
        o.findings[0].message = "say \"hi\"\nnewline".into();
        let r = json(&o);
        assert!(r.contains("\"file\":\"crates\\\\x\\\\src\\\\lib.rs\""));
        assert!(r.contains("\"message\":\"say \\\"hi\\\"\\nnewline\""));
        // Still structurally valid: balanced braces/brackets, no raw
        // control characters.
        assert!(!r.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("tab\there"), "\"tab\\there\"");
        assert_eq!(escape("\r"), "\"\\r\"");
    }

    #[test]
    fn github_annotations_escape_and_rank_by_severity() {
        let mut o = sample();
        o.findings.push(Finding {
            file: "src/b.rs".into(),
            line: 2,
            rule: Rule::IterationOrder,
            message: "50% of\nruns".into(),
        });
        let r = github(&o);
        assert!(r.contains("::error file=crates/x/src/lib.rs,line=7,title=ca-audit wall-clock::"));
        assert!(r.contains("::warning file=src/b.rs"), "warn severity maps to ::warning");
        assert!(r.contains("50%25 of%0Aruns"), "percent and newline are escaped");
        assert_eq!(r.lines().last().unwrap(), "ca-audit: 2 finding(s)");
    }
}
