//! `sync-check` — proves `.github/workflows/ci.yml` runs `ci.sh`'s
//! stages and nothing else.
//!
//! `ci.sh` is the only place a stage body lives. This module makes that
//! a gate: it parses the ordered list of `stage NAME ...` invocations
//! out of the shell script and the ordered list of job ids out of the
//! workflow's `jobs:` mapping, and fails on any drift — a stage missing
//! from either side, or the two lists disagreeing on order. It also
//! fails when a job other than [`EXEMPT`] has no `run:` step starting
//! `./ci.sh --stage <its own id>`, or when any `run:` step calls a
//! `./target/release/` binary itself: a stage body inlined into the
//! workflow is a second copy that could drift from ci.sh's.

use std::fmt::Write as _;

/// The one job without a ci.sh stage body: a fresh runner has no
/// `$TIMINGS` to report, so it reads the job times from the Actions API.
pub const EXEMPT: &str = "timing-summary";

/// Stage names from a `ci.sh`-style script: the second token of every
/// line whose first token is `stage`, in file order.
pub fn sh_stages(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        if tokens.next() == Some("stage") {
            if let Some(name) = tokens.next() {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// One workflow job: its id and the body of each of its `run:` steps.
struct Job {
    id: String,
    runs: Vec<String>,
}

/// The jobs of a GitHub-Actions workflow: the keys indented exactly two
/// spaces under the top-level `jobs:` mapping, in file order, each with
/// its `run:` bodies (an inline value, or the lines of a `|`/`>` block).
/// This is a deliberately narrow parser — it understands the one YAML
/// shape our workflow uses, not YAML.
fn jobs(text: &str) -> Vec<Job> {
    let mut out: Vec<Job> = Vec::new();
    let mut lines = text
        .lines()
        .skip_while(|l| l.trim_end() != "jobs:")
        .skip(1)
        .peekable();
    let indent = |l: &str| l.len() - l.trim_start().len();
    while let Some(line) = lines.next() {
        // Another top-level key ends the jobs mapping.
        if !line.is_empty() && !line.starts_with(' ') && !line.starts_with('#') {
            break;
        }
        // A job id: exactly two spaces of indent, `name:` with nothing
        // after the colon but trailing space/comment.
        if let Some(rest) = line.strip_prefix("  ") {
            if !rest.starts_with(' ') && !rest.starts_with('#') {
                if let Some(key) = rest.trim_end().strip_suffix(':') {
                    if !key.is_empty() && !key.contains(' ') {
                        out.push(Job {
                            id: key.to_string(),
                            runs: Vec::new(),
                        });
                    }
                }
                continue;
            }
        }
        let item = line.trim_start();
        let (key_indent, item) = match item.strip_prefix("- ") {
            Some(rest) => (indent(line) + 2, rest),
            None => (indent(line), item),
        };
        let (Some(job), Some(value)) = (out.last_mut(), item.strip_prefix("run:")) else {
            continue;
        };
        let value = value.trim();
        let body = if value.starts_with('|') || value.starts_with('>') {
            let mut body = Vec::new();
            while let Some(next) = lines.next_if(|l| l.trim().is_empty() || indent(l) > key_indent)
            {
                body.push(next.trim());
            }
            body.join("\n")
        } else {
            value.to_string()
        };
        job.runs.push(body);
    }
    out
}

/// Job ids from a GitHub-Actions workflow: the keys indented exactly two
/// spaces under the top-level `jobs:` mapping, in file order.
pub fn yml_jobs(text: &str) -> Vec<String> {
    jobs(text).into_iter().map(|j| j.id).collect()
}

/// Checks that each job's body is a ci.sh stage: every job but
/// [`EXEMPT`] has a `run:` step starting `./ci.sh --stage <its id>`,
/// and no `run:` step calls `./target/release/` directly.
///
/// # Errors
///
/// A rendered report naming each offending job, ready to print.
pub fn check_bodies(yml: &str) -> Result<(), String> {
    let mut report = String::new();
    for job in jobs(yml) {
        let runs_own_stage = job.runs.iter().any(|run| {
            let mut words = run.split_whitespace();
            words.next() == Some("./ci.sh")
                && words.next() == Some("--stage")
                && words.next() == Some(job.id.as_str())
        });
        if job.id != EXEMPT && !runs_own_stage {
            let _ = writeln!(
                report,
                "  job {} has no `run: ./ci.sh --stage {}` step",
                job.id, job.id
            );
        }
        let lines = job.runs.iter().flat_map(|run| run.lines());
        for line in lines.filter(|l| l.contains("./target/release/")) {
            let _ = writeln!(report, "  job {} inlines a stage body: {line}", job.id);
        }
    }
    if report.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "sync-check: ci.yml must run every stage body through ci.sh\n{report}"
        ))
    }
}

/// Compares the two ordered stage lists; `Ok` holds the report for a
/// matching pair, `Err` the drift diagnosis.
///
/// # Errors
///
/// A rendered report naming every stage missing from either side (or the
/// order mismatch), ready to print.
pub fn compare(sh: &[String], yml: &[String]) -> Result<String, String> {
    if sh == yml {
        let mut report = format!(
            "sync-check: {} stage(s) in lockstep, each job's body a ci.sh stage\n",
            sh.len()
        );
        for name in sh {
            let _ = writeln!(report, "  {name}");
        }
        return Ok(report);
    }
    let mut report = String::from("sync-check: ci.sh and ci.yml have drifted\n");
    for name in sh {
        if !yml.contains(name) {
            let _ = writeln!(report, "  missing from ci.yml jobs: {name}");
        }
    }
    for name in yml {
        if !sh.contains(name) {
            let _ = writeln!(report, "  missing from ci.sh stages: {name}");
        }
    }
    if sh
        .iter()
        .filter(|n| yml.contains(*n))
        .ne(yml.iter().filter(|n| sh.contains(*n)))
    {
        let _ = writeln!(report, "  shared stages are ordered differently");
    }
    let _ = writeln!(report, "  ci.sh : {}", sh.join(" "));
    let _ = writeln!(report, "  ci.yml: {}", yml.join(" "));
    Err(report)
}

/// The whole gate on the two files' text: stage names in lockstep
/// ([`compare`]) and every job body a ci.sh stage ([`check_bodies`]).
///
/// # Errors
///
/// Every drift found, rendered and ready to print.
pub fn check(sh_text: &str, yml_text: &str) -> Result<String, String> {
    let names = compare(&sh_stages(sh_text), &yml_jobs(yml_text));
    match (names, check_bodies(yml_text)) {
        (Ok(report), Ok(())) => Ok(report),
        (Ok(_), Err(bodies)) => Err(bodies),
        (Err(names), Ok(())) => Err(names),
        (Err(names), Err(bodies)) => Err(names + &bodies),
    }
}

/// Reads both files, checks them, prints; returns the process exit code
/// (0 in sync, 1 on drift or unreadable files).
pub fn run(sh_path: &str, yml_path: &str) -> i32 {
    let sh_text = match std::fs::read_to_string(sh_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sync-check: cannot read {sh_path}: {e}");
            return 1;
        }
    };
    let yml_text = match std::fs::read_to_string(yml_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sync-check: cannot read {yml_path}: {e}");
            return 1;
        }
    };
    if sh_stages(&sh_text).is_empty() {
        eprintln!("sync-check: no `stage NAME` lines found in {sh_path}");
        return 1;
    }
    match check(&sh_text, &yml_text) {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(report) => {
            eprint!("{report}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sh_parser_takes_the_second_token_of_stage_lines() {
        let text = "#!/bin/sh\nstage fmt cargo fmt\n  indented stage not-counted\n\
                    stage build cargo build\nSTAGES=\"x\"\n";
        assert_eq!(sh_stages(text), v(&["fmt", "build"]));
    }

    #[test]
    fn yml_parser_takes_two_space_keys_under_jobs() {
        let text = "name: ci\non:\n  push:\njobs:\n  fmt:\n    name: fmt\n    steps:\n\
                    \x20     - run: x\n  build:\n    runs-on: ubuntu\nextra: 1\n  straggler:\n";
        assert_eq!(yml_jobs(text), v(&["fmt", "build"]));
    }

    #[test]
    fn matching_lists_pass() {
        assert!(compare(&v(&["a", "b"]), &v(&["a", "b"])).is_ok());
    }

    #[test]
    fn missing_stage_is_named() {
        let err = compare(&v(&["a", "b"]), &v(&["a"])).unwrap_err();
        assert!(err.contains("missing from ci.yml jobs: b"), "{err}");
    }

    #[test]
    fn order_drift_is_detected() {
        let err = compare(&v(&["a", "b"]), &v(&["b", "a"])).unwrap_err();
        assert!(err.contains("ordered differently"), "{err}");
    }

    /// A workflow whose jobs each run `run` (an inline or block body),
    /// keyed by job id.
    fn workflow(jobs: &[(&str, &str)]) -> String {
        let mut yml = String::from("name: ci\njobs:\n");
        for (id, run) in jobs {
            yml.push_str(&format!(
                "  {id}:\n    steps:\n      - uses: actions/checkout@v4\n"
            ));
            yml.push_str(&format!("      - run: {run}\n"));
        }
        yml
    }

    #[test]
    fn a_job_that_inlines_a_body_fails() {
        let yml = workflow(&[
            ("build", "./ci.sh --stage build"),
            (
                "serve-soak",
                "|\n          ./ci.sh --stage serve-soak\n          \
                 ./target/release/qnn serve --addr 127.0.0.1:0 &",
            ),
        ]);
        let err = check_bodies(&yml).unwrap_err();
        assert!(
            err.contains("job serve-soak inlines a stage body: ./target/release/qnn serve"),
            "{err}"
        );
        assert!(!err.contains("job build"), "{err}");
    }

    #[test]
    fn a_job_running_another_jobs_stage_fails() {
        let yml = workflow(&[
            ("serve-soak", "./ci.sh --stage reload-soak"),
            ("reload-soak", "./ci.sh --stage reload-soak"),
        ]);
        let err = check_bodies(&yml).unwrap_err();
        assert!(
            err.contains("job serve-soak has no `run: ./ci.sh --stage serve-soak` step"),
            "{err}"
        );
        assert!(!err.contains("job reload-soak"), "{err}");
    }

    #[test]
    fn only_timing_summary_is_exempt() {
        for id in ["timing-summary", "timing-summary-2", "summary", "fmt"] {
            let yml = workflow(&[(id, "gh api runs | sort -rn")]);
            assert_eq!(check_bodies(&yml).is_ok(), id == EXEMPT, "job {id}");
        }
    }

    #[test]
    fn the_repo_ci_files_are_actually_in_sync() {
        // The gate, run as a unit test too: the committed ci.sh and
        // ci.yml must agree right now, not just when the CI stage runs.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let sh = std::fs::read_to_string(format!("{root}/ci.sh")).unwrap();
        let yml = std::fs::read_to_string(format!("{root}/.github/workflows/ci.yml")).unwrap();
        let report = check(&sh, &yml);
        assert!(report.is_ok(), "{}", report.unwrap_err());
    }
}
