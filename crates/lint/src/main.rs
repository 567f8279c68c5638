//! `odp-lint` CLI — see `--help` or DESIGN.md §8.
//!
//! Exit codes: 0 clean (or exactly at the ratchet), 1 a count off its
//! budget or a lock-order cycle, 2 usage/I-O error.

use std::path::PathBuf;
use std::process::ExitCode;

use odp_lint::{ratchet, report, rules};

const USAGE: &str = "\
odp-lint — ODP conformance and concurrency static-analysis gate

USAGE:
    odp-lint [OPTIONS]

OPTIONS:
    --root <DIR>             workspace root (default: .)
    --json                   emit the machine-readable JSON report
    --ratchet <FILE>         compare counts against a checked-in ratchet;
                             fail on any count above or below its budget
    --update-ratchet <FILE>  write current counts as the new ratchet
    --rule <ID>              only run one rule (repeatable), e.g. --rule L2
    -h, --help               this text
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("odp-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut ratchet_path: Option<PathBuf> = None;
    let mut update_path: Option<PathBuf> = None;
    let mut only_rules: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = next_value(&mut args, "--root")?.into(),
            "--json" => json = true,
            "--ratchet" => ratchet_path = Some(next_value(&mut args, "--ratchet")?.into()),
            "--update-ratchet" => {
                update_path = Some(next_value(&mut args, "--update-ratchet")?.into());
            }
            "--rule" => only_rules.push(next_value(&mut args, "--rule")?.to_uppercase()),
            // `cargo lint -- --ratchet ...` forwards a literal `--`.
            "--" => {}
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    let mut rep =
        odp_lint::lint_workspace(&root).map_err(|e| format!("reading {}: {e}", root.display()))?;
    if !only_rules.is_empty() {
        rep.violations
            .retain(|v| only_rules.iter().any(|r| r == v.rule));
    }

    if json {
        print!("{}", report::json(&rep));
    } else {
        print!("{}", report::human(&rep));
    }

    if let Some(path) = update_path {
        let counts = rules::counts(&rep.violations);
        std::fs::write(&path, ratchet::to_json(&counts))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "odp-lint: wrote ratchet {} ({} entries)",
            path.display(),
            counts.len()
        );
    }

    // A lock-order cycle is never ratchetable: it fails the run outright.
    if !rep.lock_graph.cycles.is_empty() {
        eprintln!(
            "odp-lint: FAIL — {} lock-order cycle(s) in the workspace",
            rep.lock_graph.cycles.len()
        );
        return Ok(ExitCode::FAILURE);
    }

    if let Some(path) = ratchet_path {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut budget =
            ratchet::parse_json(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        // With `--rule`, the other rules' entries are not being counted.
        budget.retain(|key, _| {
            only_rules.is_empty() || only_rules.iter().any(|r| key.starts_with(&format!("{r}/")))
        });
        let counts = rules::counts(&rep.violations);
        let check = ratchet::check(&budget, &counts);
        for (key, b, a) in &check.regressions {
            eprintln!("odp-lint: RATCHET REGRESSION {key}: {a} > budget {b}");
        }
        for (key, b, a) in &check.improvements {
            eprintln!(
                "odp-lint: RATCHET SLACK {key}: {a} < budget {b} \
                 (tighten with --update-ratchet)"
            );
        }
        if !check.ok() {
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "odp-lint: within ratchet ({} tracked entries)",
            budget.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if rep.violations.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}
