//! End-to-end test of the `typilus` binary: generate a corpus, train,
//! predict, evaluate, audit, index and serve through the real CLI
//! surface.

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
    // `predict` skips the file with the same warning and reports on
    // the rest.
    let good = py_files(&corpus)
        .into_iter()
        .find(|p| *p != latin1)
        .expect("a generated file");
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args([&latin1, &good])
        .output()
        .expect("predict runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "predict: {stderr}");
    assert!(
        stderr.contains(&format!(
            "skipped {}: not valid UTF-8 (first bad byte at offset 11)",
            latin1.display()
        )),
        "predict: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("== ").count(), 1, "{stdout}");
    assert!(
        stdout.contains(&format!("== {}", good.display())),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `.py` file under `dir`, at any depth.
fn py_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("list dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(py_files(&path));
        } else if path.extension().is_some_and(|e| e == "py") {
            out.push(path);
        }
    }
    out
}

/// Kills the `typilus serve` child if the test fails before shutting
/// it down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn served_replies_match_predict_and_serving_leaves_artifacts_untouched() {
    use std::io::BufRead as _;
    let dir = std::env::temp_dir().join(format!("typilus_cli_serve_{}", std::process::id()));
    let corpus = dir.join("corpus");
    let model = dir.join("model.typilus");
    let sidecar = dir.join("model.typilus.space");
    let run = |args: &[&str]| {
        let out = bin().args(args).output().expect("runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let (corpus_s, model_s) = (corpus.to_str().unwrap(), model.to_str().unwrap());
    run(&[
        "gen-corpus",
        "--out",
        corpus_s,
        "--files",
        "12",
        "--seed",
        "7",
    ]);
    run(&[
        "train",
        "--corpus",
        corpus_s,
        "--model",
        model_s,
        "--epochs",
        "2",
        "--dim",
        "8",
        "--gnn-steps",
        "2",
    ]);
    run(&["index", "--model", model_s, "--shards", "2"]);

    // Three corpus files and one Latin-1 file, which `predict` and
    // `query` must both skip with the same warning.
    let mut files: Vec<String> = py_files(&corpus)
        .iter()
        .map(|p| p.display().to_string())
        .collect();
    files.sort();
    files.truncate(3);
    let latin1 = dir.join("latin1.py");
    std::fs::write(&latin1, b"name = 'caf\xe9'\n").expect("write Latin-1 file");
    files.insert(1, latin1.display().to_string());
    let skipped = format!(
        "skipped {}: not valid UTF-8 (first bad byte at offset 11)",
        latin1.display()
    );
    let files: Vec<&str> = files.iter().map(String::as_str).collect();

    let oneshot = dir.join("oneshot.txt");
    let mut args = vec!["predict", "--model", model_s];
    args.extend(["--out", oneshot.to_str().unwrap()]);
    args.extend(&files);
    let out = run(&args);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&skipped),
        "predict names the skipped file"
    );
    let report = std::fs::read_to_string(&oneshot).expect("read predict report");
    assert_eq!(report.matches("== ").count(), 3, "{report}");
    let artifacts = || {
        (
            std::fs::read(&model).expect("read model"),
            std::fs::read(&sidecar).expect("read sidecar"),
        )
    };
    let before = artifacts();

    let sock = dir.join("serve.sock");
    let sock_s = sock.to_str().unwrap();
    let mut daemon = Daemon(
        bin()
            .args(["serve", "--model", model_s, "--socket", sock_s])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("serve starts"),
    );
    // The readiness line is flushed once the socket is bound.
    let mut stdout = std::io::BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("read readiness line");
    assert!(ready.starts_with("serving "), "{ready:?}");
    let query = |extra: &[&str]| {
        let mut args = vec!["query", "--socket", sock_s, "--timeout-ms", "60000"];
        args.extend(extra);
        run(&args)
    };

    let served = dir.join("served.txt");
    let mut args = vec!["--out", served.to_str().unwrap()];
    args.extend(&files);
    let out = query(&args);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&skipped),
        "query names the skipped file"
    );
    assert_eq!(
        std::fs::read(&served).expect("read served report"),
        report.as_bytes(),
        "served report differs from one-shot predict output"
    );

    let bind = dir.join("bind.py");
    std::fs::write(
        &bind,
        "def drain(fresh_marker_symbol):\n    return fresh_marker_symbol\n",
    )
    .expect("write binding snippet");
    let bind_s = bind.to_str().unwrap();
    let out = query(&[
        "--add-symbol",
        "fresh_marker_symbol",
        "--add-type",
        "int",
        bind_s,
    ]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("bound fresh_marker_symbol"));
    // The one file of --add-symbol is the request: a bad one is an
    // error that names it.
    let out = bin()
        .args([
            "query",
            "--socket",
            sock_s,
            "--add-symbol",
            "x",
            "--add-type",
            "int",
        ])
        .arg(&latin1)
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "a Latin-1 binding snippet is an error"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .contains(&format!("{}: not valid UTF-8", latin1.display())),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = query(&["--reindex"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("reindexed"));
    let out = query(&["--stats"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 markers added"));
    let mut args = vec!["--out", served.to_str().unwrap()];
    args.extend(&files);
    query(&args);
    let after_mutation = std::fs::read_to_string(&served).expect("read served report");
    assert_eq!(after_mutation.matches("== ").count(), 3, "{after_mutation}");

    let out = query(&["--shutdown"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("server shut down"));
    let status = daemon.0.wait().expect("serve exits");
    assert!(status.success(), "serve exits cleanly: {status}");
    assert!(
        artifacts() == before,
        "serving modified the model or its sidecar"
    );
    std::fs::remove_dir_all(&dir).ok();
}
