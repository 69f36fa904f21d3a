//! End-to-end test of the `typilus` binary: generate a corpus, train,
//! predict, evaluate and audit through the real CLI surface.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_typilus"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("typilus_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

#[test]
fn full_cli_pipeline() {
    let dir = workdir();
    let corpus = dir.join("corpus");
    let model = dir.join("model.typilus");

    // gen-corpus
    let out = bin()
        .args([
            "gen-corpus",
            "--out",
            corpus.to_str().unwrap(),
            "--files",
            "15",
            "--seed",
            "3",
        ])
        .output()
        .expect("gen-corpus runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // train (tiny settings for test speed)
    let out = bin()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--epochs",
            "2",
            "--dim",
            "8",
            "--gnn-steps",
            "2",
        ])
        .output()
        .expect("train runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists(), "model artefact written");

    // predict on a fresh file, with the checker filter
    let sample = dir.join("sample.py");
    std::fs::write(
        &sample,
        "def f(count):\n    total = count + 1\n    return total\n",
    )
    .expect("write sample");
    let out = bin()
        .args([
            "predict",
            "--model",
            model.to_str().unwrap(),
            "--top",
            "2",
            "--check",
            sample.to_str().unwrap(),
        ])
        .output()
        .expect("predict runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("count"),
        "predictions mention the parameter: {stdout}"
    );

    // eval
    let out = bin()
        .args([
            "eval",
            "--model",
            model.to_str().unwrap(),
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("eval runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exact match"), "{stdout}");

    // audit
    let out = bin()
        .args([
            "audit",
            "--model",
            model.to_str().unwrap(),
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("audit runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `typilus index` is the one way to build the sharded index:
    // `--shards 1` builds exactly one shard, and `--info` reads it back.
    let out = bin()
        .args(["index", "--model", model.to_str().unwrap(), "--shards", "1"])
        .output()
        .expect("index runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["index", "--model", model.to_str().unwrap(), "--info"])
        .output()
        .expect("index --info runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" 1 shards,"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn missing_required_option_fails() {
    let out = bin()
        .args(["train", "--corpus", "/nonexistent"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--model"), "{stderr}");
}

/// Runs the binary and asserts a usage error (exit 2) whose message
/// names `option` and `command`.
fn assert_rejected(args: &[&str], option: &str, command: &str) {
    let out = bin().args(args).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown option {option} for `typilus {command}`")),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn train_rejects_index_options() {
    // The sharded index is built by `typilus index` alone; `train`
    // must not quietly train without the index it was asked for.
    for option in [
        "--index",
        "--shards",
        "--trees",
        "--leaf-size",
        "--search-k",
        "--rebuild-threshold",
    ] {
        assert_rejected(
            &["train", "--corpus", "c", "--model", "m", option, "2"],
            option,
            "train",
        );
    }
}

#[test]
fn misspelled_option_is_rejected_not_ignored() {
    // `--seeed` used to be stored and never read: the corpus came out
    // at seed 0 without a word.
    assert_rejected(
        &["gen-corpus", "--out", "never-written", "--seeed", "9"],
        "--seeed",
        "gen-corpus",
    );
}

#[test]
fn non_utf8_source_is_quarantined_and_named() {
    // Not under `workdir()`: `full_cli_pipeline` removes that one while
    // this test may still be running.
    let dir = std::env::temp_dir().join(format!("typilus_cli_latin1_{}", std::process::id()));
    let corpus = dir.join("corpus");
    let model = dir.join("model.typilus");
    let out = bin()
        .args(["gen-corpus", "--out", corpus.to_str().unwrap()])
        .args(["--files", "8", "--seed", "4"])
        .output()
        .expect("gen-corpus runs");
    assert!(out.status.success());
    // "café" in Latin-1: 0xE9 is not UTF-8.
    let latin1 = corpus.join("latin1.py");
    std::fs::write(&latin1, b"name = 'caf\xe9'\n").expect("write Latin-1 file");
    let runs: [&[&str]; 3] = [
        &["train", "--epochs", "1", "--dim", "8", "--gnn-steps", "2"],
        &["eval"],
        &["audit"],
    ];
    for run in runs {
        let out = bin()
            .args(run)
            .args(["--corpus", corpus.to_str().unwrap()])
            .args(["--model", model.to_str().unwrap()])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", run[0]);
        assert!(stderr.contains("1 not UTF-8"), "{}: {stderr}", run[0]);
        assert!(
            stderr.contains(&format!(
                "skipped {}: not valid UTF-8 (first bad byte at offset 11)",
                latin1.display()
            )),
            "{}: {stderr}",
            run[0]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
