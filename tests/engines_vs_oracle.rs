//! Cross-validation: every engine × mode must agree with the exhaustive
//! distribution oracle on every gadget small enough to enumerate.

use walshcheck::prelude::*;
use walshcheck_core::engine::DEFAULT_CACHE_BUDGET;
use walshcheck_core::exhaustive::exhaustive_check;
use walshcheck_core::property::ProbeRef;
use walshcheck_core::sites::SiteOptions;
use walshcheck_gadgets::composition::{composition_fig1, composition_independent};
use walshcheck_gadgets::isw::{isw_and, isw_and_broken};
use walshcheck_gadgets::refresh::{refresh_circular, refresh_paper};

fn gadget_zoo() -> Vec<(String, Netlist, u32)> {
    vec![
        ("ti-1".into(), Benchmark::Ti1.netlist(), 1),
        ("trichina-1".into(), Benchmark::Trichina1.netlist(), 1),
        ("isw-1".into(), isw_and(1), 1),
        ("isw-2".into(), isw_and(2), 2),
        ("isw-2-broken".into(), isw_and_broken(2), 2),
        ("dom-1".into(), Benchmark::Dom(1).netlist(), 1),
        ("dom-2".into(), Benchmark::Dom(2).netlist(), 2),
        ("refresh-fig1".into(), refresh_paper(), 2),
        ("refresh-circ-2".into(), refresh_circular(2), 2),
        ("fig1".into(), composition_fig1(), 2),
        ("fig1-indep".into(), composition_independent(), 2),
    ]
}

fn engines() -> [EngineKind; 4] {
    [
        EngineKind::Lil,
        EngineKind::Map,
        EngineKind::Mapi,
        EngineKind::Fujita,
    ]
}

fn run(netlist: &Netlist, prop: Property, opts: VerifyOptions) -> bool {
    Session::new(netlist)
        .expect("valid")
        .options(opts)
        .property(prop)
        .run()
        .secure
}

#[test]
fn all_engines_match_the_oracle_on_sni_and_ni() {
    for (name, netlist, d) in gadget_zoo() {
        for prop in [Property::Ni(d), Property::Sni(d)] {
            let oracle = exhaustive_check(&netlist, prop, &SiteOptions::default())
                .expect("small gadget")
                .secure;
            for engine in engines() {
                for mode in [CheckMode::Joint, CheckMode::RowWise] {
                    let opts = VerifyOptions::builder().engine(engine).mode(mode).build();
                    let got = run(&netlist, prop, opts);
                    assert_eq!(
                        got, oracle,
                        "{name} {prop:?} {engine} {mode:?} disagrees with oracle"
                    );
                }
            }
        }
    }
}

/// Four gates over one secret `x` (two shares) and one random `r`:
/// `q[0] = Maj(x0, x1, r)` and `q[1] = x1 ^ r`. Returns the netlist and the
/// probe on `q[0]`.
fn maj_circuit() -> (Netlist, ProbeRef) {
    let mut b = NetlistBuilder::new("maj");
    let x = b.secret("x");
    let x0 = b.share(x, 0);
    let x1 = b.share(x, 1);
    let r = b.random("r");
    let w1 = b.xor(x1, r);
    let w2 = b.and(x0, w1);
    let w3 = b.and(x1, r);
    let m = b.xor(w2, w3);
    let q = b.output("q");
    b.output_share(m, q, 0);
    b.output_share(w1, q, 1);
    let q0 = ProbeRef::Output {
        wire: m,
        output: q,
        index: 0,
    };
    (b.build().expect("valid"), q0)
}

#[test]
fn maj_circuit_pins_the_joint_union_of_supports_test() {
    // At ρ = 0 the spectrum of q[0] is non-zero only at {x0} and {x1}: each
    // coefficient fits NI(1)'s share budget, their union does not. No zoo
    // gadget separates the modes, so this is the circuit that pins the
    // joint paths' union test on every engine, with and without the prefix
    // cache.
    let (netlist, q0) = maj_circuit();
    let oracle = |prop| {
        exhaustive_check(&netlist, prop, &SiteOptions::default())
            .expect("small gadget")
            .secure
    };
    assert!(!oracle(Property::Ni(1)));
    assert!(!oracle(Property::Sni(1)));
    assert!(!oracle(Property::Pini(1)));
    assert!(oracle(Property::Probing(1)));
    for engine in engines() {
        for budget in [DEFAULT_CACHE_BUDGET, 0] {
            let opts = |mode| {
                VerifyOptions::builder()
                    .engine(engine)
                    .mode(mode)
                    .cache_budget(budget)
                    .build()
            };
            let joint = Session::new(&netlist)
                .expect("valid")
                .options(opts(CheckMode::Joint))
                .property(Property::Ni(1))
                .run();
            let witness = joint.witness.expect("joint NI(1) is violated");
            assert_eq!(
                witness.combination,
                std::slice::from_ref(&q0),
                "{engine} budget {budget}"
            );
            // Row-wise NI(1) is left unasserted: it reports secure, the known
            // unsoundness of the per-coefficient test for NI.
            for mode in [CheckMode::Joint, CheckMode::RowWise] {
                for prop in [Property::Sni(1), Property::Pini(1), Property::Probing(1)] {
                    assert_eq!(
                        run(&netlist, prop, opts(mode)),
                        oracle(prop),
                        "maj {prop:?} {engine} {mode:?} budget {budget} disagrees with oracle"
                    );
                }
            }
        }
    }
}

#[test]
fn all_engines_match_the_oracle_on_probing() {
    for (name, netlist, d) in gadget_zoo() {
        // Also check one order above the design order (usually insecure).
        for order in [d, d + 1] {
            let prop = Property::Probing(order);
            let oracle = exhaustive_check(&netlist, prop, &SiteOptions::default())
                .expect("small gadget")
                .secure;
            for engine in engines() {
                let got = run(
                    &netlist,
                    prop,
                    VerifyOptions::builder().engine(engine).build(),
                );
                assert_eq!(
                    got, oracle,
                    "{name} {prop:?} {engine} disagrees with oracle"
                );
            }
        }
    }
}

#[test]
fn pini_matches_the_oracle() {
    for (name, netlist, d) in gadget_zoo() {
        let prop = Property::Pini(d);
        let oracle = exhaustive_check(&netlist, prop, &SiteOptions::default())
            .expect("small gadget")
            .secure;
        for engine in [EngineKind::Map, EngineKind::Mapi] {
            let got = run(
                &netlist,
                prop,
                VerifyOptions::builder().engine(engine).build(),
            );
            assert_eq!(
                got, oracle,
                "{name} {prop:?} {engine} disagrees with oracle"
            );
        }
    }
}

#[test]
fn prefilter_and_ordering_do_not_change_verdicts() {
    for (name, netlist, d) in gadget_zoo() {
        for prop in [Property::Sni(d), Property::Probing(d + 1)] {
            let reference = run(&netlist, prop, VerifyOptions::default());
            for prefilter in [false, true] {
                for largest_first in [false, true] {
                    let opts = VerifyOptions::builder()
                        .prefilter(prefilter)
                        .largest_first(largest_first)
                        .build();
                    let got = run(&netlist, prop, opts);
                    assert_eq!(
                        got, reference,
                        "{name} {prop:?} prefilter={prefilter} largest_first={largest_first}"
                    );
                }
            }
        }
    }
}

#[test]
fn heuristic_is_sound() {
    // Whenever the maskVerif-style heuristic claims "secure", the oracle
    // must agree (the converse may fail: the heuristic is incomplete).
    use walshcheck_core::heuristic::heuristic_check;
    for (name, netlist, d) in gadget_zoo() {
        for prop in [Property::Probing(d), Property::Ni(d), Property::Sni(d)] {
            let h = heuristic_check(&netlist, prop, &SiteOptions::default()).expect("valid");
            if h.secure == Some(true) {
                let oracle = exhaustive_check(&netlist, prop, &SiteOptions::default())
                    .expect("small gadget")
                    .secure;
                assert!(
                    oracle,
                    "{name} {prop:?}: heuristic claimed secure, oracle disagrees"
                );
            }
        }
    }
}

#[test]
fn witnesses_are_reported_with_probe_lists() {
    let v = Session::new(&isw_and_broken(2))
        .expect("valid")
        .property(Property::Sni(2))
        .run();
    assert!(!v.secure);
    let w = v.witness.expect("witness");
    assert!(!w.combination.is_empty());
    assert!(w.combination.len() <= 2);
    assert!(!w.reason.is_empty());
}
