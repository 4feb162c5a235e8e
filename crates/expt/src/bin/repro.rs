//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--out DIR] [--seed N] [TARGET...]
//! TARGET: fig1 | table1 | table2 | fig5 | table3 | all (default)
//! ```
//!
//! `--quick` runs reduced scales (seconds); without it the paper's full
//! scales run (minutes in release mode). Artifacts (text/CSV/JSON) are
//! written under `--out` (default `results/`).

use collsel_expt::report::ArtifactSink;
use collsel_expt::{fig1, fig5, scenarios, table1, table2, table3, Fidelity};
use std::collections::BTreeSet;
use std::process::ExitCode;

const USAGE: &str =
    "usage: repro [--quick] [--out DIR] [--seed N] [fig1|table1|table2|fig5|table3|all]...";

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Paper;
    let mut out_dir = String::from("results");
    let mut seed: u64 = 0xC0115E1;
    let mut targets: BTreeSet<String> = BTreeSet::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--out" => match args.next() {
                Some(dir) => out_dir = dir,
                None => {
                    eprintln!("--out needs a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            t @ ("fig1" | "table1" | "table2" | "fig5" | "table3" | "all") => {
                targets.insert(t.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() || targets.contains("all") {
        targets = ["fig1", "table1", "table2", "fig5", "table3"]
            .into_iter()
            .map(str::to_owned)
            .collect();
    }

    let sink = match ArtifactSink::new(&out_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create output directory {out_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scs = scenarios(fidelity);

    // A failed write is reported here and fails the run at the end,
    // after the remaining targets have still been generated.
    let mut write_failed = false;
    let mut emit = |name: &str, text: &str, csv: &str, json: &dyn erased::Json| {
        println!("{text}");
        let r = sink
            .write_text(&format!("{name}.txt",), text)
            .and_then(|()| sink.write_text(&format!("{name}.csv"), csv))
            .and_then(|()| json.write(&sink, &format!("{name}.json")));
        if let Err(e) = r {
            eprintln!("warning: failed to write {name} artifacts: {e}");
            write_failed = true;
        }
    };

    if targets.contains("fig1") {
        eprintln!("[repro] running fig1...");
        let grisou = &scs[0];
        // Invariant: scenarios() always populates fig5_ps for both
        // fidelities; an empty panel list is a bug in `scenarios`.
        let p = *grisou.fig5_ps.last().expect("non-empty panel list");
        let f1 = fig1::run_fig1(grisou, p, seed);
        emit("fig1", &f1.to_text(), &f1.to_csv(), &f1);
    }

    if targets.contains("table1") {
        eprintln!("[repro] running table1...");
        let cfg = scs[0].tuner_config(fidelity).gamma;
        let t1 = table1::run_table1(&scs, &cfg, seed);
        emit("table1", &t1.to_text(), &t1.to_csv(), &t1);
    }

    let need_tuned =
        targets.contains("table2") || targets.contains("fig5") || targets.contains("table3");
    let t2 = need_tuned.then(|| {
        eprintln!("[repro] tuning both clusters (table2)...");
        table2::run_table2(&scs, fidelity)
    });
    if let Some(t2) = &t2 {
        if targets.contains("table2") {
            emit("table2", &t2.to_text(), &t2.to_csv(), t2);
        }
    }

    let need_fig5 = targets.contains("fig5") || targets.contains("table3");
    if need_fig5 {
        eprintln!("[repro] running fig5 sweeps...");
        // Invariant: need_fig5 implies need_tuned above, so the tuned
        // models were computed on this path.
        let t2 = t2.as_ref().expect("tuned models exist");
        let f5 = fig5::run_fig5(&scs, &t2.models, seed.wrapping_add(55));
        if targets.contains("fig5") {
            emit("fig5", &f5.to_text(), &f5.to_csv(), &f5);
        }
        if targets.contains("table3") {
            let featured: Vec<(String, usize)> = scs
                .iter()
                .map(|sc| (sc.cluster.name().to_owned(), sc.table3_p))
                .collect();
            let t3 = table3::table3_from_fig5(&f5, &featured);
            emit("table3", &t3.to_text(), &t3.to_csv(), &t3);
        }
    }

    if write_failed {
        eprintln!("[repro] some artifacts could not be written to {out_dir}/");
        return ExitCode::FAILURE;
    }
    eprintln!("[repro] artifacts written to {out_dir}/");
    ExitCode::SUCCESS
}

/// Tiny object-safe serialisation shim so `emit` can take any result.
mod erased {
    use collsel_expt::report::ArtifactSink;
    use collsel_support::ToJson;
    use std::io;

    pub trait Json {
        fn write(&self, sink: &ArtifactSink, name: &str) -> io::Result<()>;
    }

    impl<T: ToJson> Json for T {
        fn write(&self, sink: &ArtifactSink, name: &str) -> io::Result<()> {
            sink.write_json(name, self)
        }
    }
}
