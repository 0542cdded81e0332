//! The command line the driver uses, end to end through the built
//! binary: one workload, shrunk to 8 HITs, in both trace modes.

use std::process::Command;

fn bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dragoon-bench"))
        .args(args)
        .output()
        .expect("run dragoon-bench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The metric names of one section of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let body = json
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .expect("section present");
    let body = body.split("\n  ]").next().expect("section ends");
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn assert_result_line(stdout: &str, section: &str) {
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.ends_with("}}}"),
        "unexpected result line: {line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    let expected = names(section);
    assert!(!expected.is_empty());
    for name in &expected {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from: {line}"
        );
    }
    assert_eq!(line.matches("\"value\": ").count(), expected.len());
}

#[test]
fn end_to_end_mode_prints_every_end_to_end_metric() {
    let (code, stdout) = bench(&[
        "--workload",
        "micro_market",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--hits",
        "8",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert_result_line(&stdout, "end_to_end");
    // Five passes of eight HITs.
    assert!(stdout.contains("\"attempted\": 40,"), "{stdout}");
}

#[test]
fn trace_mode_prints_every_per_layer_metric() {
    let (code, stdout) = bench(&[
        "--workload",
        "micro_market",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--hits",
        "8",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert_result_line(&stdout, "per_layer");
}

#[test]
fn bad_arguments_exit_with_an_error_and_no_result() {
    for args in [
        &["--workload", "no_such_market"][..],
        &["--workload", "micro_market", "--trace", "2"][..],
        &[][..],
    ] {
        let (code, stdout) = bench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}
