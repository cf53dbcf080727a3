//! Truth-table oracle for derived next-state logic.
//!
//! The ON and OFF code sets of every non-input signal are read straight off
//! the reachable states of the explicit state graph, with no BDD and no
//! minimiser: the next value of a signal is 1 when an enabled edge of the
//! signal drives it to 1 (a rise, or a toggle from 0), or when none of its
//! edges is enabled and its bit is 1.  A derivation must reproduce these
//! sets exactly, its minimized cover must contain every ON code and no OFF
//! code, and it must report a CSC violation exactly when some code is in
//! both sets of a signal, naming the lowest-id such signal.

use bdd::{Bdd, BddManager, VarId};
use csc::EncodedGraph;
use logic::{Cover, Literal, LogicError, NextStateFunctions};
use std::collections::BTreeSet;
use stg::Polarity;
use ts::StateId;

/// One non-input signal's truth table over the reachable codes.
struct Table {
    signal: usize,
    name: String,
    on: BTreeSet<u64>,
    off: BTreeSet<u64>,
}

/// The truth tables of `graph`'s non-input signals, in signal order.
fn truth_tables(graph: &EncodedGraph) -> Vec<Table> {
    let mut tables: Vec<Table> = (0..graph.num_signals())
        .filter(|&i| graph.signals[i].kind.is_non_input())
        .map(|i| Table {
            signal: i,
            name: graph.signals[i].name.clone(),
            on: BTreeSet::new(),
            off: BTreeSet::new(),
        })
        .collect();
    for s in 0..graph.num_states() {
        let state = StateId::from(s);
        let code = graph.code(state);
        let mut next = code;
        for &(event, _) in graph.ts.successors(state) {
            let Some((signal, polarity)) = graph.event_edges[event.index()] else { continue };
            let bit = 1u64 << signal.index();
            let rises = match polarity {
                Polarity::Rise => true,
                Polarity::Fall => false,
                Polarity::Toggle => code & bit == 0,
            };
            next = if rises { next | bit } else { next & !bit };
        }
        for table in &mut tables {
            let bucket = if next >> table.signal & 1 == 1 { &mut table.on } else { &mut table.off };
            bucket.insert(code);
        }
    }
    tables
}

/// Whether `cover` holds exactly `codes` over `n` signals: over all 2ⁿ
/// codes when `n ≤ 8`, by canonical BDD otherwise.
fn covers_exactly(cover: &Cover, codes: &BTreeSet<u64>, n: usize) -> bool {
    if n <= 8 {
        return (0..1u64 << n).all(|code| cover.contains_minterm(code) == codes.contains(&code));
    }
    let cover_cubes = cover.cubes().iter().map(|cube| {
        (0..n)
            .filter_map(|i| match cube.literal(i) {
                Literal::One => Some((i as VarId, true)),
                Literal::Zero => Some((i as VarId, false)),
                Literal::DontCare => None,
            })
            .collect()
    });
    let code_cubes =
        codes.iter().map(|&code| (0..n).map(|i| (i as VarId, code >> i & 1 == 1)).collect());
    let mut m = BddManager::new(n);
    union(&mut m, cover_cubes) == union(&mut m, code_cubes)
}

/// The disjunction of `cubes` (each a list of literals).
fn union(m: &mut BddManager, cubes: impl Iterator<Item = Vec<(VarId, bool)>>) -> Bdd {
    cubes.fold(m.bottom(), |acc, lits| {
        let cube = m.cube_of(&lits);
        m.or(acc, cube)
    })
}

/// Checks one derivation on `graph` against the graph's truth tables,
/// panicking with `label` on the first disagreement.
pub fn check(label: &str, graph: &EncodedGraph, derived: &Result<NextStateFunctions, LogicError>) {
    let n = graph.num_signals();
    let tables = truth_tables(graph);
    let violated = tables.iter().find(|t| !t.on.is_disjoint(&t.off));
    let functions = match (derived, violated) {
        (Ok(functions), None) => functions,
        (Err(LogicError::CscViolation { signal, code }), Some(table)) => {
            assert_eq!(signal, &table.name, "{label}: CSC violation on the wrong signal");
            let code = u64::from_str_radix(code, 2).expect("a binary witness code");
            assert!(
                table.on.contains(&code) && table.off.contains(&code),
                "{label}/{signal}: witness code {code:b} is not in both sets"
            );
            return;
        }
        (derived, violated) => panic!(
            "{label}: derivation {derived:?}, truth tables violated on {:?}",
            violated.map(|t| &t.name)
        ),
    };
    assert_eq!(functions.functions.len(), tables.len(), "{label}");
    for (f, table) in functions.functions.iter().zip(&tables) {
        assert_eq!((f.signal.index(), &f.name), (table.signal, &table.name), "{label}");
        assert!(covers_exactly(&f.on_set, &table.on, n), "{label}/{}: ON set", f.name);
        assert!(covers_exactly(&f.off_set, &table.off, n), "{label}/{}: OFF set", f.name);
        for &code in &table.on {
            assert!(f.minimized.contains_minterm(code), "{label}/{}: ON {code:b} lost", f.name);
        }
        for &code in &table.off {
            assert!(!f.minimized.contains_minterm(code), "{label}/{}: OFF {code:b} hit", f.name);
        }
    }
}
