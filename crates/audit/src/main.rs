//! The `ca-audit` CLI: run the workspace lint pass and report findings.
//!
//! ```text
//! cargo run -p ca-audit                        # human-readable report
//! cargo run -p ca-audit -- --format json       # machine-readable
//! cargo run -p ca-audit -- --format github     # CI annotations
//! cargo run -p ca-audit -- --self-check        # audit the auditor itself
//! ```
//!
//! Exit status: 0 when no Deny finding survives (`--deny-warnings` promotes Warn findings to failures), 1 on
//! failure, 2 on usage or I/O errors — so CI can gate on the exit code
//! alone.

#![forbid(unsafe_code)]
// The whole point of this binary is writing a report to stdout.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

use ca_audit::AuditConfig;

const USAGE: &str =
    "usage: ca-audit [--format human|json|github] [--root <workspace>] [--self-check] \
     [--deny-warnings]";

fn main() -> ExitCode {
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut self_check = false;
    let mut deny_warnings = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "human" || f == "json" || f == "github" => format = f,
                _ => return usage("--format takes `human`, `json`, or `github`"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root takes a path"),
            },
            "--self-check" => self_check = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        ca_audit::find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        return usage("no workspace root found (pass --root)");
    };

    let cfg = AuditConfig::workspace_default();
    // The self-check audits the auditor's own sources: the lint engine
    // must hold itself to the contract it enforces.
    let prefix = self_check.then_some("crates/audit/");
    let outcome = match ca_audit::audit_workspace_outcome(&root, &cfg, prefix) {
        Ok(o) => o,
        Err(e) => return io_error(&e),
    };
    match format.as_str() {
        "json" => println!("{}", ca_audit::report::json(&outcome)),
        "github" => print!("{}", ca_audit::report::github(&outcome)),
        _ => print!("{}", ca_audit::report::human(&outcome)),
    }
    let failed = outcome.failed() || (deny_warnings && !outcome.is_clean());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ca-audit: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn io_error(e: &std::io::Error) -> ExitCode {
    eprintln!("ca-audit: {e}");
    ExitCode::from(2)
}
