//! Property tests: a compiled decision table must agree with its source
//! selector on every grid point and snap every other query to a grid
//! point, for every collective.

use collsel_coll::Collective;
use collsel_select::{CollectiveSelector, CompiledCollectiveSelector, OpenMpiCollectiveSelector};
use collsel_support::prelude::*;
use collsel_support::{FromJson, ToJson};

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

fn compile(c: Collective, comms: &[usize], msgs: &[usize]) -> CompiledCollectiveSelector {
    CompiledCollectiveSelector::compile(&OpenMpiCollectiveSelector, &[c], comms, msgs)
}

/// The highest grid value not above `x`, else the smallest.
fn snap(grid: &[usize], x: usize) -> usize {
    *grid.iter().rfind(|&&g| g <= x).unwrap_or(&grid[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On-grid lookups reproduce the source selector exactly.
    #[test]
    fn table_matches_selector_on_grid((comms, msgs) in grids(), c in collective()) {
        let sel = OpenMpiCollectiveSelector;
        let table = compile(c, &comms, &msgs);
        for &p in &comms {
            for &m in &msgs {
                prop_assert_eq!(table.lookup(c, p, m), sel.select_for(c, p, m));
            }
        }
    }

    /// Off-grid lookups answer what the source selector answers at the
    /// snapped grid point, and the rules file renders with one block
    /// per communicator size.
    #[test]
    fn table_is_total_and_renders(
        (comms, msgs) in grids(),
        c in collective(),
        p in 1usize..300,
        m in 0usize..(16 << 20),
    ) {
        let table = compile(c, &comms, &msgs);
        prop_assert_eq!(
            table.lookup(c, p, m),
            OpenMpiCollectiveSelector.select_for(c, snap(&comms, p), snap(&msgs, m))
        );
        let rendered = table.to_ompi_rules();
        prop_assert_eq!(
            rendered.matches("# comm size").count(),
            comms.len()
        );
    }

    /// Every block holds at least one rule, its thresholds strictly
    /// increase (the table decodes from its own JSON) and exactly one of
    /// them, the first, is 0.
    #[test]
    fn rule_thresholds_strictly_increase((comms, msgs) in grids(), c in collective()) {
        let json = compile(c, &comms, &msgs).to_json();
        prop_assert!(CompiledCollectiveSelector::from_json(&json).is_ok());
        let zeros = json.to_string_compact().matches(r#"{"min_msg_size":0,"#).count();
        prop_assert_eq!(zeros, comms.len());
    }
}
