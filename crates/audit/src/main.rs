//! The `ca-audit` CLI: run the workspace lint pass and report findings.
//!
//! ```text
//! cargo run -p ca-audit                        # human-readable report
//! cargo run -p ca-audit -- --format github     # CI annotations
//! ```
//!
//! Exit status: 0 when no finding survives, 1 when one does, 2 on usage or
//! I/O errors — so CI can gate on the exit code alone.

#![forbid(unsafe_code)]
#![allow(
    clippy::print_stdout,
    reason = "the whole point of this binary is writing a report to stdout"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use ca_audit::AuditConfig;

const USAGE: &str = "usage: ca-audit [--format human|github] [--root <workspace>]";

fn main() -> ExitCode {
    let mut github = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("human") => github = false,
                Some("github") => github = true,
                _ => return usage("--format takes `human` or `github`"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root takes a path"),
            },
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

    let outcome = match ca_audit::audit_workspace_outcome(&root, &AuditConfig::workspace_default())
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ca-audit: {e}");
            return ExitCode::from(2);
        }
    };
    if github {
        print!("{}", ca_audit::report::github(&outcome));
    } else {
        print!("{}", ca_audit::report::human(&outcome));
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ca-audit: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
