//! Drives the built `fjbench` binary the way a user and the benchmark
//! driver do.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn fjbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fjbench"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The whole suite at a tenth of the size: all four workloads end to end
/// and per layer, each checked against the reference, in under 20 s, with
/// the output marked as not comparable to a full run. The span files it
/// writes load back into the very table the traced run printed.
#[test]
fn quick_suite_is_fast_checked_and_marked_not_comparable() {
    let dir = scratch("quick");
    let (out, spans) = (dir.join("results.json"), dir.join("spans"));
    let start = Instant::now();
    let run = fjbench()
        .args(["--quick", "--seed", "3", "--seconds", "1", "--out"])
        .arg(&out)
        .arg("--spans-out")
        .arg(&spans)
        .output()
        .unwrap();
    let took = start.elapsed();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));
    assert!(took < Duration::from_secs(20), "--quick took {took:?}");

    let doc = std::fs::read_to_string(&out).unwrap();
    assert!(doc.contains("\"comparable\": false"), "{doc}");
    for workload in ["tiered_fastjoin", "tiered_hash", "wide_state", "zipf_head"] {
        assert!(doc.contains(&format!("\"{workload}\"")), "{workload} missing from {doc}");
    }
    assert!(!doc.contains("\"correct\": false"));

    // Each run printed exactly the metrics BENCHMARK.json declares for its
    // mode, no more and no fewer.
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let (end_to_end, per_layer) = declared.split_once("\"per_layer\"").unwrap();
    let names = |text: &str| -> Vec<String> {
        text.match_indices("\"name\": \"")
            .map(|(i, m)| text[i + m.len()..].split('"').next().unwrap().to_string())
            .filter(|n| {
                !["tiered_fastjoin", "tiered_hash", "wide_state", "zipf_head"].contains(&n.as_str())
            })
            .collect()
    };
    let printed = |line: &str| -> Vec<String> {
        let metrics = line.split_once("\"metrics\":{").unwrap().1;
        metrics
            .split("\"unit\"")
            .filter_map(|part| {
                let name = part.rsplit_once("\":{\"value\"")?.0.rsplit('"').next()?;
                Some(name.to_string())
            })
            .collect()
    };
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with("{\"correct\"")).collect();
    assert_eq!(results.len(), 8, "{stdout}");
    for pair in results.chunks(2) {
        assert_eq!(printed(pair[0]), names(end_to_end));
        assert_eq!(printed(pair[1]), names(per_layer));
    }

    // The suite runs `zipf_head` last, so its table is the last one.
    let last_table = |text: &str| -> Vec<String> {
        let rows: Vec<_> = text.lines().filter(|l| l.starts_with("replay self time")).collect();
        rows[rows.len().saturating_sub(6)..].iter().map(|l| l.to_string()).collect()
    };
    let printed = last_table(&stdout);
    assert_eq!(printed.len(), 6, "{stdout}");
    let reload =
        fjbench().arg("--load-spans").arg(dir.join("spans.zipf_head.jsonl")).output().unwrap();
    assert!(reload.status.success());
    assert_eq!(last_table(&String::from_utf8(reload.stdout).unwrap()), printed);
}

/// Bad input is refused with a usage error and no result line.
#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--seed"],
        &["--frobnicate"],
    ] {
        let run = fjbench().args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage:"), "{args:?}");
    }
}
