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

    // --index takes exact|sharded: the retired in-memory forest is an
    // unknown mode, and `--shards 1` builds exactly one shard.
    let one = dir.join("one.typilus");
    let train = |mode: &str| {
        bin()
            .args(["train", "--corpus", corpus.to_str().unwrap()])
            .args(["--model", one.to_str().unwrap()])
            .args(["--epochs", "1", "--dim", "8", "--gnn-steps", "2"])
            .args(["--index", mode, "--shards", "1"])
            .output()
            .expect("train runs")
    };
    let out = train("forest");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exact|sharded"), "{stderr}");
    let out = train("sharded");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["index", "--model", one.to_str().unwrap(), "--info"])
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
