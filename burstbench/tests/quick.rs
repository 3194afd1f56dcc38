//! Every workload runs to its end in quick mode (reduced sizes, every output
//! check on), traced and untraced, and prints a well-formed result line.

use std::process::Command;

fn run(workload: &str, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_burstbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn field(line: &str, key: &str) -> u64 {
    let rest = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
    rest[..rest.find(',').expect("a following field")]
        .parse()
        .expect("a whole number")
}

/// `max_failed`: operations allowed to fail (the tampered-journal
/// recoveries, one per serve round).
fn check(workload: &str, max_failed: u64) {
    let manifest = include_str!("../../BENCHMARK.json");
    for trace in [0, 1] {
        let line = run(workload, trace);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(field(&line, "attempted") >= 1, "{line}");
        assert!(field(&line, "failed") <= max_failed, "{line}");
        let section = if trace == 0 {
            "\"end_to_end\""
        } else {
            "\"per_layer\""
        };
        let names = &manifest[manifest.find(section).expect(section)..];
        let names = &names[..names.find(']').expect("list end")];
        for entry in names.split("\"name\": \"").skip(1) {
            let name = &entry[..entry.find('"').expect("name end")];
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing: {line}"
            );
        }
    }
}

#[test]
fn absorb_50k_quick() {
    check("absorb-50k", 0);
}

#[test]
fn sharded_10k_quick() {
    check("sharded-10k", 0);
}

/// Quick mode runs two rounds. Each round's tampered-journal recovery
/// counts as failed while `recover` accepts an assignment that fails
/// validation.
#[test]
fn serve_journal_10k_quick() {
    check("serve-journal-10k", 2);
}

#[test]
fn unknown_workload_is_refused() {
    let status = Command::new(env!("CARGO_BIN_EXE_burstbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .status()
        .expect("the benchmark binary runs");
    assert_eq!(status.code(), Some(2));
}
