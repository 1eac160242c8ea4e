//! Command-line entry of the benchmark.
//!
//! ```text
//! teabench --workload <suite-ref|seed-matrix|sim-only> --seed <n>
//!          --seconds <s> --trace <0|1> --expected <file> [--out <dir>]
//! teabench --record <file>
//! ```
//!
//! A measuring run prints one JSON result line on stdout: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). A traced run also writes its spans to
//! `<out>/<workload>-seed<n>.trace.json`. `--record` runs every cell set
//! once and writes the outputs the check compares against.

use std::process::ExitCode;

use tea_workloads::Size;
use teabench::check::Expected;
use teabench::e2e::{self, ACCURACY_SET};
use teabench::layers;
use teabench::span::Spans;
use teabench::workload::{set_up, Workload};
use teabench::Outcome;

/// Failure messages printed to stderr before the rest are counted.
const SHOWN_FAILURES: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    expected: String,
    out: String,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [flag, path] if flag == "--record" => record(path),
        _ => parse(&argv).and_then(|args| measure(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("teabench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SuiteRef,
        seed: 0,
        seconds: 0,
        trace: false,
        expected: String::new(),
        out: "teabench/out".to_string(),
    };
    let mut seen = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--expected" => args.expected.clone_from(value),
            "--out" => args.out.clone_from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        seen.push(flag.as_str());
    }
    for required in ["--workload", "--seed", "--seconds", "--trace", "--expected"] {
        if !seen.contains(&required) {
            return Err(format!("missing {required}"));
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn load_expected(path: &str) -> Result<Expected, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Expected::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn measure(args: &Args) -> Result<(), String> {
    let expected = load_expected(&args.expected)?;
    let mut out = if args.trace {
        let mut spans = Spans::new();
        let (out, reconciliation) =
            layers::run(args.workload, args.seed, Size::Ref, &expected, &mut spans);
        let doc = spans.to_chrome_json(vec![("reconciliation", reconciliation)]);
        std::fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out))?;
        let path = format!(
            "{}/{}-seed{}.trace.json",
            args.out,
            args.workload.name(),
            args.seed
        );
        std::fs::write(&path, doc.render()).map_err(|e| format!("write {path}: {e}"))?;
        out
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &expected)
    };
    report(&mut out);
    Ok(())
}

/// Prints the failures to stderr and the result line to stdout. A
/// metric that is not a finite number counts as one more failure.
fn report(out: &mut Outcome) {
    for (name, value) in out.report.values() {
        if !value.is_finite() {
            out.failures.push(format!("metric {name} is {value}"));
        }
    }
    for f in out.failures.iter().take(SHOWN_FAILURES) {
        eprintln!("teabench: FAILED {f}");
    }
    if out.failures.len() > SHOWN_FAILURES {
        eprintln!(
            "teabench: ... and {} more failures",
            out.failures.len() - SHOWN_FAILURES
        );
    }
    let attempted = out.attempted.max(1);
    let failed = (out.failures.len() as u64).min(attempted);
    println!("{}", out.report.result_line(attempted, failed));
}

/// Runs every cell set once and writes its outputs to `path`. Refuses
/// to record a run in which a cell failed or golden missed a cycle.
fn record(path: &str) -> Result<(), String> {
    let mut expected = Expected::default();
    for workload in Workload::ALL {
        let (setup, _) = set_up(workload, 0);
        let run = setup.engine.run(workload.name(), setup.cells);
        expected.record(workload.name(), &run);
        let failures = expected.check(workload.name(), &run);
        if !failures.is_empty() {
            return Err(format!("{}: {}", workload.name(), failures.join("; ")));
        }
        eprintln!(
            "teabench: recorded {} ({} cells)",
            workload.name(),
            run.cells.len()
        );
        if workload == Workload::SimOnly {
            let run = e2e::accuracy_pass(&setup.kernels);
            expected.record(ACCURACY_SET, &run);
            let failures = expected.check(ACCURACY_SET, &run);
            if !failures.is_empty() {
                return Err(format!("{ACCURACY_SET}: {}", failures.join("; ")));
            }
        }
    }
    std::fs::write(path, expected.render()).map_err(|e| format!("write {path}: {e}"))
}
