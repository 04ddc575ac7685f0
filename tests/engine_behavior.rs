//! Behavioural contracts of the verification engine: statistics coherence,
//! scheduler/stat merging, cache reuse, and option interplay.

use walshcheck::prelude::*;
use walshcheck_core::engine::Verifier;

fn check(n: &Netlist, p: Property) -> Verdict {
    Session::new(n).expect("valid").property(p).run()
}

#[test]
fn stats_counters_are_coherent() {
    let n = Benchmark::Dom(2).netlist();
    let v = check(&n, Property::Sni(2));
    assert!(v.secure);
    // Every non-pruned combination contributes at least one checked row.
    assert!(v.stats.rows_checked >= v.stats.combinations - v.stats.pruned);
    assert!(v.stats.pruned <= v.stats.combinations);
    // Time split is within the total.
    assert!(v.stats.convolution_time <= v.stats.total_time);
    assert!(v.stats.verification_time <= v.stats.total_time);
}

#[test]
fn disabling_the_prefilter_only_adds_work() {
    let n = Benchmark::Dom(2).netlist();
    let filtered = Session::new(&n)
        .expect("valid")
        .prefilter(true)
        .property(Property::Sni(2))
        .run();
    let unfiltered = Session::new(&n)
        .expect("valid")
        .prefilter(false)
        .property(Property::Sni(2))
        .run();
    assert_eq!(filtered.secure, unfiltered.secure);
    assert_eq!(filtered.stats.combinations, unfiltered.stats.combinations);
    assert!(filtered.stats.pruned > 0, "prefilter must fire on dom-2");
    assert_eq!(unfiltered.stats.pruned, 0);
    assert!(filtered.stats.rows_checked < unfiltered.stats.rows_checked);
}

#[test]
fn worker_batches_partition_the_combination_space() {
    let n = Benchmark::Dom(2).netlist();
    let serial = check(&n, Property::Sni(2));
    // The merged parallel stats count every combination exactly once.
    let par = Session::new(&n)
        .expect("valid")
        .property(Property::Sni(2))
        .threads(3)
        .run();
    assert_eq!(par.stats.combinations, serial.stats.combinations);
    assert_eq!(par.secure, serial.secure);
}

#[test]
fn job_spec_and_session_agree() {
    // The 0.3 Job API and the Session builder are the same execution path;
    // a spec round-tripped through its canonical JSON must reproduce the
    // session's verdict exactly.
    use walshcheck_core::{Job, JobSpec};
    let n = Benchmark::Dom(1).netlist();
    let serial = check(&n, Property::Sni(1));
    let spec_text = JobSpec::new(Property::Sni(1)).to_json().to_canonical();
    let spec = JobSpec::parse(&walshcheck_core::json::parse(&spec_text).expect("valid json"))
        .expect("valid spec");
    let via_job = Job::new(&n, spec).expect("valid").run();
    assert!(serial.secure && via_job.secure);
    assert_eq!(serial.stats.combinations, via_job.stats.combinations);
}

#[test]
fn smallest_first_finds_smaller_witnesses() {
    use walshcheck_gadgets::isw::isw_and_broken;
    let n = isw_and_broken(2);
    let largest = Session::new(&n)
        .expect("valid")
        .largest_first(true)
        .property(Property::Sni(2))
        .run();
    let smallest = Session::new(&n)
        .expect("valid")
        .largest_first(false)
        .property(Property::Sni(2))
        .run();
    assert!(!largest.secure && !smallest.secure);
    let wl = largest.witness.expect("witness").combination.len();
    let ws = smallest.witness.expect("witness").combination.len();
    assert!(
        ws <= wl,
        "smallest-first witness ({ws}) must not exceed largest-first ({wl})"
    );
}

#[test]
fn row_counts_differ_between_modes() {
    // Joint mode inspects all 2^s − 1 rows per combination; row-wise only
    // the full row. Same verdict, more rows.
    let n = Benchmark::Dom(2).netlist();
    let rowwise = Session::new(&n)
        .expect("valid")
        .mode(CheckMode::RowWise)
        .prefilter(false)
        .property(Property::Sni(2))
        .run();
    let joint = Session::new(&n)
        .expect("valid")
        .mode(CheckMode::Joint)
        .prefilter(false)
        .property(Property::Sni(2))
        .run();
    assert_eq!(rowwise.secure, joint.secure);
    assert!(joint.stats.rows_checked > rowwise.stats.rows_checked);
}

#[test]
fn site_options_affect_the_search_space() {
    let n = Benchmark::Dom(1).netlist();
    let with_inputs = check(&n, Property::Sni(1));
    let without_inputs = Session::new(&n)
        .expect("valid")
        .options(VerifyOptions::builder().include_inputs(false).build())
        .property(Property::Sni(1))
        .run();
    assert_eq!(with_inputs.secure, without_inputs.secure);
    assert!(with_inputs.stats.combinations > without_inputs.stats.combinations);
}

#[test]
fn verifier_accessors_expose_the_model() {
    let n = Benchmark::Dom(1).netlist();
    let v = Verifier::new(&n).expect("valid");
    assert_eq!(v.varmap().num_secrets(), 2);
    assert_eq!(v.netlist().name, "dom-1");
    assert_eq!(v.unfolded().bdds.num_vars() as usize, n.inputs.len());
}

#[test]
fn cyclic_netlists_are_rejected_up_front() {
    use walshcheck::circuit::netlist::{Cell, Gate, InputRole, Netlist, Wire, WireId};
    let mut n = Netlist::new("cyc");
    n.wires.push(Wire { name: "a".into() });
    n.wires.push(Wire { name: "b".into() });
    n.inputs.push((WireId(0), InputRole::Public));
    n.cells.push(Cell {
        name: "c".into(),
        gate: Gate::And,
        inputs: vec![WireId(1), WireId(0)],
        output: WireId(1),
    });
    assert!(Verifier::new(&n).is_err());
    assert!(Session::new(&n).is_err());
}
