//! End-to-end tests of the `colltune` and `repro` command-line tools
//! (run as real subprocesses).

use std::process::Command;

fn colltune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_colltune"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("collsel-cli-{}-{name}", std::process::id()))
}

#[test]
fn colltune_tune_query_show_export_round_trip() {
    let model = temp_path("model.json");
    let rules = temp_path("rules.conf");

    let out = colltune()
        .args([
            "tune",
            "--nodes",
            "8",
            "--gbps",
            "10",
            "--tune-p",
            "6",
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("colltune runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gamma(P):"), "{stdout}");
    assert!(stdout.contains("binomial"), "{stdout}");

    let out = colltune()
        .args([
            "query",
            "--model",
            model.to_str().unwrap(),
            "--p",
            "8",
            "--m",
            "8192",
            "--m",
            "1048576",
        ])
        .output()
        .expect("query runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("m = ").count(), 2, "{stdout}");

    let out = colltune()
        .args(["show", "--model", model.to_str().unwrap()])
        .output()
        .expect("show runs");
    assert!(out.status.success());

    let out = colltune()
        .args([
            "export",
            "--model",
            model.to_str().unwrap(),
            "--out",
            rules.to_str().unwrap(),
            "--comm-sizes",
            "4,8",
        ])
        .output()
        .expect("export runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let contents = std::fs::read_to_string(&rules).expect("rules written");
    assert!(contents.starts_with("1 # num of collectives"), "{contents}");
    assert!(contents.contains("7 # collective id"), "{contents}");

    let _ = std::fs::remove_file(model);
    let _ = std::fs::remove_file(rules);
}

/// A model tuned for reduce still carries the Sect. 4.2 broadcast fits;
/// its broadcast queries must be answered from them, not from the fixed
/// rules as if broadcast had never been tuned, and the tune report
/// lists each of them once.
#[test]
fn colltune_reduce_model_serves_broadcast_from_its_own_fits() {
    let model = temp_path("reduce-model.json");
    let out = colltune()
        .args(["tune", "--preset", "gros", "--tune-p", "8"])
        .args(["--collective", "reduce", "--out", model.to_str().unwrap()])
        .output()
        .expect("tune runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let text = std::fs::read_to_string(&model).expect("model written");
    let json = collsel_support::Json::parse(&text).expect("model parses");
    let tuned: collsel::TunedModel =
        collsel_support::FromJson::from_json(&json).expect("model decodes");
    let bcast = &tuned.collectives[&collsel::coll::Collective::Bcast];
    assert_eq!(bcast.len(), 6);
    for est in bcast.values() {
        let fit = est.hockney.to_string();
        assert_eq!(stdout.matches(&fit).count(), 1, "{fit} in\n{stdout}");
    }
    let out = colltune()
        .args(["query", "--model", model.to_str().unwrap(), "--p", "64"])
        .args(["--m", "8192", "--m", "1048576", "--collective", "bcast"])
        .output()
        .expect("query runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("m = ").count(), 2, "{stdout}");
    assert!(stdout.contains("predicted"), "{stdout}");
    assert!(!stdout.contains("collective not tuned"), "{stdout}");
    let _ = std::fs::remove_file(model);
}

/// A model file with a zero segment size is rejected at load time with
/// an error naming the file and the field, not a panic in the selector.
#[test]
fn colltune_rejects_a_zero_segment_size_by_field() {
    use collsel_support::Json;
    let model = temp_path("zero-seg.json");
    let path = model.to_str().unwrap();
    let out = colltune()
        .args(["tune", "--nodes", "8", "--tune-p", "4", "--out", path])
        .output()
        .expect("tune runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&model).expect("model written");
    for field in ["seg_size", "breadth_seg_size"] {
        let Json::Obj(mut fields) = Json::parse(&text).expect("parses") else {
            panic!("a model file is an object")
        };
        fields.retain(|(k, _)| k != field);
        fields.push((field.to_owned(), Json::Num(0.0)));
        std::fs::write(&model, Json::Obj(fields).to_string_pretty()).expect("writes");
        let out = colltune()
            .args(["query", "--model", path, "--p", "64", "--m", "8192"])
            .output()
            .expect("query runs");
        assert_eq!(out.status.code(), Some(1), "an error exit, not a panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(path) && err.contains(&format!("`{field}`")),
            "{err}"
        );
    }
    let _ = std::fs::remove_file(model);
}

#[test]
fn colltune_rejects_bad_usage() {
    let out = colltune().arg("tune").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--nodes or --preset"), "{err}");

    let out = colltune().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());

    // Measurement always runs on the timing DAG: `--backend` is no
    // flag of any subcommand, and naming it is a typed error, not a
    // panic.
    for argv in [
        &[
            "tune",
            "--preset",
            "gros",
            "--backend",
            "dag",
            "--out",
            "x.json",
        ][..],
        &["replay", "--gen", "dp", "--backend", "threads"][..],
    ] {
        let out = colltune().args(argv).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{argv:?}: an error exit, not a panic"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag `--backend`"), "{argv:?}: {err}");
    }
}

#[test]
fn colltune_rejects_unknown_flags_by_name() {
    // A typo like --segsize used to be silently ignored, changing
    // results without warning; now every subcommand validates its argv.
    let out = colltune()
        .args(["tune", "--nodes", "8", "--segsize", "7", "--out", "x.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--segsize"), "error must name the flag: {err}");
    assert!(err.contains("unknown flag"), "{err}");

    let out = colltune()
        .args([
            "query",
            "--model",
            "m.json",
            "--p",
            "8",
            "--m",
            "64",
            "--degarded",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--degarded"), "{err}");

    // Stray positional tokens are rejected too.
    let out = colltune()
        .args(["show", "--model", "m.json", "extra"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unexpected argument `extra`"), "{err}");

    // A trailing value-taking flag with no value is an error, not a
    // silent no-op.
    let out = colltune()
        .args(["export", "--model", "m.json", "--out"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("requires a value"), "{err}");
}

#[test]
fn colltune_bench_select_reports_throughput() {
    let model = temp_path("bench-model.json");
    let out = colltune()
        .args([
            "tune",
            "--nodes",
            "8",
            "--tune-p",
            "6",
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("tune runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = colltune()
        .args([
            "bench-select",
            "--model",
            model.to_str().unwrap(),
            "--queries",
            "5000",
            "--cache",
            "64",
        ])
        .output()
        .expect("bench-select runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("live ranking"), "{stdout}");
    assert!(stdout.contains("compiled"), "{stdout}");
    assert!(stdout.contains("hit rate"), "{stdout}");

    let _ = std::fs::remove_file(model);
}

#[test]
fn repro_help_and_bad_args() {
    let out = repro().arg("--help").output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));

    let out = repro().arg("--bogus").output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn repro_quick_table1_writes_artifacts() {
    let dir = temp_path("results");
    let out = repro()
        .args(["--quick", "--out", dir.to_str().unwrap(), "table1"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "{stdout}");
    for ext in ["txt", "csv", "json"] {
        let p = dir.join(format!("table1.{ext}"));
        assert!(p.exists(), "missing {}", p.display());
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn repro_fails_when_an_artifact_cannot_be_written() {
    let dir = temp_path("unwritable");
    // A directory where table1.txt should go makes the text write fail.
    std::fs::create_dir_all(dir.join("table1.txt")).expect("blocking directory");
    let out = repro()
        .args(["--quick", "--out", dir.to_str().unwrap(), "table1"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "a failed write must fail the run");
    assert!(
        stderr.contains("failed to write table1 artifacts"),
        "{stderr}"
    );
    assert!(!stderr.contains("artifacts written"), "{stderr}");
}
