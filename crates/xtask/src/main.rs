//! Repo automation binary — run as `cargo xtask <command>`.
//!
//! Commands:
//!
//! * `lint` — repo-specific static analysis over `crates/core` and
//!   `crates/runtime` (no-panic data plane, no wildcard protocol matches,
//!   doc coverage on `fastjoin-core`). See [`lint`].
//! * `check-protocol [--variant <name> | --all]` — exhaustive model check
//!   of the migration protocol, the dispatcher stage and instance
//!   recovery. See [`checker`].

mod checker;
mod lint;

use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint                        run the repo's custom lint pass over
                              crates/core and crates/runtime
  check-protocol [--variant <v> | --all]
                              exhaustively model-check the migration
                              protocol, the dispatcher stage and instance
                              recovery (the real fastjoin-core structs)
                              over every send / receive order and crash
                              point; <v> defaults to safe. --all
                              runs every variant and fails unless each
                              verdict is the expected one
  help                        show this message
";

/// The variant names, with `*` on the known-bad ones that must keep failing.
fn variant_list() -> String {
    let names: Vec<String> = checker::VARIANTS
        .iter()
        .map(|(name, _, pass)| format!("{name}{}", if *pass { "" } else { "*" }))
        .collect();
    format!("variants (* = known-bad, must keep failing): {}", names.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("lint") => run_lint(),
        Some("check-protocol") => run_check_protocol(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}\n{}", variant_list());
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n\n{USAGE}\n{}", variant_list());
            ExitCode::FAILURE
        }
    }
}

/// Locates the workspace root: `cargo xtask` runs with the workspace as
/// cwd, but fall back to the manifest's grandparent when invoked directly.
#[allow(clippy::panic)] // a dev tool without a filesystem may die loudly
fn repo_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|e| panic!("cannot read cwd: {e}"));
    if cwd.join("crates/core/src").is_dir() {
        return cwd;
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|e| panic!("cannot locate workspace root: {e}"))
}

fn run_lint() -> ExitCode {
    let root = repo_root();
    match lint::lint_repo(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                eprintln!("{d}");
            }
            eprintln!("xtask lint: {} violation(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: cannot read sources: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_check_protocol(args: &[String]) -> ExitCode {
    let mut variant = checker::Variant::Safe;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" if args.len() == 1 => {
                return if checker::check_all() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            "--variant" => {
                let Some(v) = it.next().and_then(|name| checker::Variant::parse(name)) else {
                    eprintln!(
                        "xtask check-protocol: --variant needs one of the {}",
                        variant_list()
                    );
                    return ExitCode::FAILURE;
                };
                variant = v;
            }
            other => {
                eprintln!("xtask check-protocol: unexpected argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if checker::report(&checker::check(variant), variant) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
