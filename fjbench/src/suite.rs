//! Whole-suite modes: every workload in a fresh child process of this
//! binary, and the self-check that applies `BENCHMARK.json`'s own
//! acceptance rule to the current build.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use fastjoin_core::json::Json;

use crate::stats::{iqr_share, median, quartiles};
use crate::workload::SPECS;
use crate::Args;

/// Runs per workload in each of the self-check's two sets.
const SELFCHECK_RUNS: u64 = 10;

fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Other load on the machine shows up as noise in every number: say so
/// before the first run rather than leave the reader to guess.
pub fn warn_if_loaded() {
    if let Some(load) = load_average() {
        if load > nproc() as f64 {
            eprintln!("warning: 1-min load average {load} exceeds {} cores; expect noise", nproc());
        }
    }
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Where and on what the numbers were taken.
fn environment() -> Json {
    Json::obj(vec![
        ("nproc", Json::uint(nproc() as u64)),
        ("rustc", Json::str(tool_output("rustc", &["--version"]))),
        ("git_rev", Json::str(tool_output("git", &["rev-parse", "--short", "HEAD"]))),
        ("load_average_1min", load_average().map_or(Json::Null, Json::Num)),
    ])
}

/// Runs one workload in a fresh child process, passes its report through
/// and returns its last-line object.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(path)) = (trace, &args.spans_out) {
        cmd.arg("--spans-out").arg(format!("{}.{workload}.jsonl", path.display()));
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed its checks",
            u8::from(trace)
        ));
    }
    Ok(result)
}

/// The default command: every workload, end to end and per layer.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let env = environment();
    eprintln!("env: {env}");
    warn_if_loaded();
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let end_to_end = run_child(args, spec.name, args.seed, false)?;
        let per_layer = run_child(args, spec.name, args.seed, true)?;
        workloads.push((
            spec.name,
            Json::obj(vec![("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    if let Some(path) = &args.out {
        let doc = Json::obj(vec![
            ("env", env),
            ("seed", Json::uint(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("comparable", Json::Bool(!args.quick)),
            ("workloads", Json::obj(workloads)),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(true)
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics(benchmark: &Json) -> Result<Vec<Declared>, String> {
    let list = benchmark.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Declared {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// The acceptance rule of the benchmark applied to this build: two sets of
/// ten end-to-end runs per workload, each run on another seed. Within a
/// set every metric but `setup_s` must spread (quartile distance ÷ median)
/// no wider than its bound; across sets no median may worsen by more than
/// the bound. Run from the repository root, where `BENCHMARK.json` is.
pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the current directory: {e}"))?;
    let declared = declared_metrics(&Json::parse(&text)?)?;
    eprintln!("env: {}", environment());
    warn_if_loaded();

    let mut ok = true;
    for spec in &SPECS {
        // values[set][metric] = the ten runs' values.
        let mut values: [BTreeMap<&str, Vec<f64>>; 2] = Default::default();
        for (set, values) in values.iter_mut().enumerate() {
            for i in 0..SELFCHECK_RUNS {
                let seed = args.seed + set as u64 * SELFCHECK_RUNS + i;
                let result = run_child(args, spec.name, seed, false)?;
                for d in &declared {
                    let v =
                        result.get("metrics").and_then(|m| m.get(&d.name)?.get("value")?.as_num());
                    values
                        .entry(&d.name)
                        .or_default()
                        .push(v.ok_or(format!("no {} in result", d.name))?);
                }
            }
        }
        for d in &declared {
            let (a, b) = (&values[0][d.name.as_str()], &values[1][d.name.as_str()]);
            let (m1, m2) = (median(a), median(b));
            let worse = if d.higher_is_better { (m1 - m2) / m1 } else { (m2 - m1) / m1 };
            let spread = iqr_share(a).max(iqr_share(b));
            let pass = worse <= d.bound && (d.name == "setup_s" || spread <= d.bound);
            ok &= pass;
            let ([a1, _, a3], [b1, _, b3]) = (quartiles(a), quartiles(b));
            println!(
                "selfcheck {:<16} {:<24} set1 {m1:.4} [{a1:.4}..{a3:.4}] set2 {m2:.4} [{b1:.4}..{b3:.4}] \
                 spread {:.1}% worse {:+.1}% bound {:.0}% {}",
                spec.name,
                d.name,
                spread * 100.0,
                worse * 100.0,
                d.bound * 100.0,
                if pass { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}
