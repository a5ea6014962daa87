//! `fjbench` — the benchmark of the FastJoin threaded runtime.
//!
//! `fjbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints every metric by name and unit,
//! then one JSON object as the last line of standard output. Without
//! `--workload` it runs the whole suite, each workload in a fresh child
//! process; `--selfcheck` runs the acceptance procedure of
//! `BENCHMARK.json` on the current build. See `README.md`.

mod alloc;
mod cpu;
mod layers;
mod phases;
mod reference;
mod replay;
mod runtime;
mod stats;
mod suite;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use fastjoin_core::json::Json;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Named measurements in the order they were taken.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`. A value that is not a finite number
    /// (a ratio whose base was empty) is recorded as 0.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name:<40} {value:>16.4} {unit}");
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|&(name, value, unit)| {
            (name, Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]))
        }))
    }
}

/// What one workload run produced: the contract's last-line object.
pub struct Outcome {
    /// Result pairs the checked runs should have produced.
    pub attempted: u64,
    /// Pairs missing, surplus or wrong, summed over those runs.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    fn to_json(&self, quick: bool) -> Json {
        let mut fields = vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed)),
            ("metrics", self.metrics.to_json()),
        ];
        if quick {
            // A tenth of the input is another workload: not comparable.
            fields.push(("comparable", Json::Bool(false)));
        }
        Json::obj(fields)
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub selfcheck: bool,
    pub out: Option<PathBuf>,
    pub spans_out: Option<PathBuf>,
    pub load_spans: Option<PathBuf>,
}

const USAGE: &str = "usage: fjbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--quick] [--out PATH] [--spans-out PATH] [--selfcheck] | --load-spans PATH";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        quick: false,
        selfcheck: false,
        out: None,
        spans_out: None,
        load_spans: None,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out = Some(value()?.into()),
            "--spans-out" => args.spans_out = Some(value()?.into()),
            "--load-spans" => args.load_spans = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its last-line object.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workload::Spec::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let spec = if args.quick { spec.scaled(0.1) } else { spec };
    let outcome = if args.trace {
        phases::per_layer(&spec, args.seed, args.spans_out.as_deref())?
    } else {
        phases::end_to_end(&spec, args.seed, args.seconds)
    };
    outcome.metrics.print();
    println!("{}", outcome.to_json(args.quick));
    Ok(outcome.failed == 0)
}

/// Prints the per-layer table of a span file written by `--spans-out`.
fn load_spans(path: &std::path::Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    replay::print_table(&replay::spans_from_jsonl(&text)?);
    Ok(true)
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args()).and_then(|args| {
        match (&args.load_spans, args.selfcheck, &args.workload) {
            (Some(path), _, _) => load_spans(path),
            (None, true, _) => suite::selfcheck(&args),
            (None, false, Some(name)) => run_workload(&args, name),
            (None, false, None) => suite::run_all(&args),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
