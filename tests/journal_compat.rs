//! Journal compatibility: `tests/fixtures/boot-journal.json` is the
//! boot journal a [`DecisionServer`] wrote for [`fixture_selector`] over
//! the default deployment grid, committed before the decision table
//! became one type. It must still recover and answer like its source
//! selector on the whole grid, and a server booted from the same
//! selector today must write it byte for byte.

use collsel::coll::{Alg, Collective};
use collsel::model::{FitValidity, GammaTable, Hockney};
use collsel::select::{
    deployment_msg_sizes, CollectiveModelSelector, CollectiveSelector, DecisionServer, ServeSource,
    ServerConfig, DEPLOYMENT_COMM_SIZES,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/boot-journal.json"
);

/// Fits whose latency grows and bandwidth cost shrinks along each
/// family's enumeration, so every collective's table has crossovers.
fn fixture_selector() -> CollectiveModelSelector {
    let mut params: BTreeMap<Alg, Hockney> = BTreeMap::new();
    for c in Collective::ALL {
        let algs = c.algorithms();
        for (i, &a) in algs.iter().enumerate() {
            let beta = 1e-9 * (algs.len() - i) as f64;
            params.insert(a, Hockney::new(2e-6 * (i + 1) as f64, beta));
        }
    }
    let validity = params.keys().map(|&a| (a, FitValidity::Valid)).collect();
    let gamma = GammaTable::from_pairs([(3, 1.11), (4, 1.22), (5, 1.28), (6, 1.45), (7, 1.54)]);
    CollectiveModelSelector::new(gamma, params, validity, 8192)
        .with_seg_size(Collective::Reduce, 16 * 1024)
}

fn config_with_journal(path: PathBuf) -> ServerConfig {
    ServerConfig {
        journal: Some(path),
        ..ServerConfig::default()
    }
}

#[test]
fn committed_boot_journal_recovers_and_answers_like_its_source() {
    let server = DecisionServer::recover(config_with_journal(FIXTURE.into())).expect("recovers");
    assert_eq!(server.version(), 1);
    assert_eq!(server.cluster(), "fixture");
    let source = fixture_selector();
    for c in Collective::ALL {
        for p in DEPLOYMENT_COMM_SIZES {
            for m in deployment_msg_sizes() {
                let a = server.decide(c, p, m);
                assert_eq!(a.source, ServeSource::Current, "{c} p={p} m={m}");
                assert_eq!(a.selection, source.select_for(c, p, m), "{c} p={p} m={m}");
            }
        }
    }
}

#[test]
fn boot_journal_is_byte_identical_to_the_committed_one() {
    let path = std::env::temp_dir().join(format!(
        "collsel-journal-compat-{}.json",
        std::process::id()
    ));
    let server = DecisionServer::new(
        &fixture_selector(),
        "fixture",
        config_with_journal(path.clone()),
    );
    assert_eq!(server.stats().journal_writes, 1);
    let written = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let committed = std::fs::read_to_string(FIXTURE).expect("fixture");
    assert!(written == committed, "the boot journal's bytes changed");
}
