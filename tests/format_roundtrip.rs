//! Integration tests of the `.g` reader/writer against the benchmark suite
//! and the symbolic engine against the explicit one.

use stg::parse_g;

#[test]
fn every_benchmark_round_trips_through_g_format() {
    for (name, model, _) in stg::benchmarks::table2_suite() {
        let text = model.to_g();
        let reparsed = parse_g(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(model.num_signals(), reparsed.num_signals(), "{name}");
        assert_eq!(model.net().num_transitions(), reparsed.net().num_transitions(), "{name}");
        let sg1 = model.state_graph(500_000).unwrap();
        let sg2 = reparsed.state_graph(500_000).unwrap();
        assert_eq!(sg1.num_states(), sg2.num_states(), "{name}");
        assert_eq!(sg1.complete_state_coding_holds(), sg2.complete_state_coding_holds(), "{name}");
        assert_eq!(sg1.unique_state_coding_holds(), sg2.unique_state_coding_holds(), "{name}");
    }
}

#[test]
fn symbolic_and_explicit_engines_agree_on_the_suite() {
    for (name, model, csc_holds) in stg::benchmarks::table2_suite() {
        let explicit = model.state_graph(500_000).unwrap();
        let space = model.symbolic_state_space();
        assert_eq!(space.state_count(), explicit.num_states() as u128, "{name}");
        assert_eq!(!model.symbolic_csc_violation(0), csc_holds, "{name}");
    }
}

#[test]
fn symbolic_engine_counts_beyond_explicit_reach() {
    // 4^14 ≈ 268 million markings — far beyond explicit enumeration, yet the
    // BDD stays small.  This is the Table 1 capability claim.
    let model = stg::benchmarks::parallel_handshakes(14);
    let space = model.symbolic_state_space();
    assert_eq!(space.state_count(), 4u128.pow(14));
    assert!(space.bdd_size() < 20_000);
}

#[test]
fn written_g_files_can_be_consumed_by_the_cli_parser_path() {
    let model = stg::benchmarks::vme_read();
    let text = model.to_g();
    assert!(text.contains(".inputs dsr ldtack"));
    assert!(text.contains(".outputs lds d dtack"));
    let reparsed = parse_g(&text).unwrap();
    assert_eq!(reparsed.name(), "vme_read");
}
