//! Property tests: a generated decision table must agree with its
//! source selector on every grid point and behave sanely off-grid, for
//! every collective.

use collsel_coll::Collective;
use collsel_select::{
    to_ompi_rules_multi, CollDecisionTable, CollectiveSelector, OpenMpiCollectiveSelector,
};
use collsel_support::prelude::*;

fn grids() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (
        prop::collection::btree_set(2usize..200, 1..6),
        prop::collection::btree_set(1usize..(8 << 20), 1..10),
    )
        .prop_map(|(ps, ms)| (ps.into_iter().collect(), ms.into_iter().collect()))
}

fn collective() -> impl Strategy<Value = Collective> {
    (0usize..Collective::ALL.len()).prop_map(|i| Collective::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On-grid lookups reproduce the source selector exactly.
    #[test]
    fn table_matches_selector_on_grid((comms, msgs) in grids(), c in collective()) {
        let sel = OpenMpiCollectiveSelector;
        let table = CollDecisionTable::generate(&sel, c, &comms, &msgs);
        for &p in &comms {
            for &m in &msgs {
                prop_assert_eq!(table.lookup(p, m), Some(sel.select_for(c, p, m)));
            }
        }
    }

    /// Off-grid lookups always return something from the table, and the
    /// rules file renders with one block per communicator size.
    #[test]
    fn table_is_total_and_renders(
        (comms, msgs) in grids(),
        c in collective(),
        p in 1usize..300,
        m in 0usize..(16 << 20),
    ) {
        let table = CollDecisionTable::generate(&OpenMpiCollectiveSelector, c, &comms, &msgs);
        prop_assert!(table.lookup(p, m).is_some());
        let rendered = to_ompi_rules_multi(&[table]);
        prop_assert_eq!(
            rendered.matches("# comm size").count(),
            comms.len()
        );
    }

    /// Rule thresholds are strictly increasing within each block.
    #[test]
    fn rule_thresholds_strictly_increase((comms, msgs) in grids(), c in collective()) {
        let table = CollDecisionTable::generate(&OpenMpiCollectiveSelector, c, &comms, &msgs);
        for block in &table.comms {
            prop_assert!(!block.rules.is_empty());
            prop_assert_eq!(block.rules[0].min_msg_size, 0);
            for w in block.rules.windows(2) {
                prop_assert!(w[0].min_msg_size < w[1].min_msg_size);
            }
        }
    }
}
