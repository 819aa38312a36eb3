//! Property-style tests over the whole stack, run as deterministic
//! sweeps over mixed graph families and seeds (the offline build has no
//! proptest; the sweep below covers the same case space reproducibly).
//!
//! The headline invariants:
//!
//! * **Soundness is absolute**: no detector ever rejects an input that is
//!   free of its target cycle, for any graph and any seed (one-sided
//!   error means probability 1, so a single counterexample is a bug).
//! * **Witnesses are genuine**: every rejection's cycle validates
//!   against the input graph.
//! * **The Density Lemma dichotomy**: on arbitrary layered instances,
//!   either every `IN(v,0)` is empty and the Lemma 7 bound holds, or an
//!   explicit valid `2k`-cycle through `S` is constructed.
//! * **Model invariants**: executor round accounting is
//!   bandwidth-consistent; serialization round-trips.

use even_cycle_congest::cycle::sparsify::{DensityInput, DensityVerdict, Sparsification};
use even_cycle_congest::cycle::{CycleDetector, OddCycleDetector, Params};
use even_cycle_congest::graph::{analysis, generators, serialize, Graph};

/// The mixed graph family of the original proptest strategy; indexing is
/// deterministic, so every run exercises the identical case set.
fn graph_case(case: u64) -> Graph {
    let family = (case % 5) as usize;
    let n = 10 + (case as usize * 7) % 30;
    let seed = case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match family {
        0 => generators::random_tree(n, seed),
        1 => generators::erdos_renyi(n, 0.08, seed),
        2 => generators::random_bipartite(n / 2 + 1, n / 2 + 1, 0.15, seed),
        3 => generators::cycle(n.max(3)),
        _ => generators::random_regular_ish(n + n % 2, 3, seed),
    }
}

const CASES: u64 = 24;

#[test]
fn detector_never_rejects_c4_free_inputs() {
    let det = CycleDetector::new(Params::practical(2).with_repetitions(6));
    for case in 0..CASES {
        let g = graph_case(case);
        if g.node_count() == 0 || analysis::has_cycle_exact(&g, 4, Some(100_000_000)) {
            continue;
        }
        let outcome = det.run(&g, case ^ 0x5eed);
        assert!(!outcome.rejected(), "soundness violated on case {case}");
    }
}

#[test]
fn any_rejection_is_certified() {
    let det = CycleDetector::new(Params::practical(2).with_repetitions(12));
    for case in 0..CASES {
        let g = graph_case(case);
        if g.node_count() == 0 {
            continue;
        }
        let outcome = det.run(&g, case.wrapping_mul(31) + 1);
        if outcome.rejected() {
            let w = outcome.witness().expect("witness must accompany rejection");
            assert_eq!(w.len(), 4, "case {case}");
            assert!(w.is_valid(&g), "case {case}");
            assert!(analysis::has_cycle_exact(&g, 4, Some(100_000_000)));
        }
    }
}

#[test]
fn odd_detector_never_rejects_bipartite() {
    let det = OddCycleDetector::new(2, 20);
    for case in 0..CASES {
        let a = 5 + (case as usize) % 15;
        let b = 5 + (case as usize * 3) % 15;
        let p = 0.05 + 0.01 * (case % 25) as f64;
        let g = generators::random_bipartite(a, b, p, case * 131 + 7);
        assert!(!det.run(&g, case).rejected(), "case {case}");
    }
}

#[test]
fn graph_serialization_roundtrips() {
    for case in 0..CASES {
        let g = graph_case(case);
        let text = serialize::to_text(&g);
        let back = serialize::from_text(&text).expect("parse back");
        assert_eq!(g, back, "case {case}");
    }
}

#[test]
fn witness_canonicalization_is_idempotent() {
    for case in 0..CASES {
        let g = graph_case(case);
        if let Some(w) = analysis::find_cycle_exact(&g, 4, Some(50_000_000))
            .or_else(|| analysis::find_cycle_exact(&g, 3, Some(50_000_000)))
        {
            let c1 = w.canonicalize();
            let c2 = c1.canonicalize();
            assert_eq!(c1, c2, "case {case}");
            assert!(c1.is_valid(&g));
        }
    }
}

#[test]
fn density_dichotomy_on_random_layered_instances() {
    use rand::{Rng, SeedableRng};
    for case in 0..CASES {
        // Random instance for k = 2: S fully joined to W0 (so the k²=4
        // premise holds when sigma >= 4), a random set of V1 vertices
        // with random edges into W0.
        let sigma = 4 + (case as usize) % 6;
        let omega = 2 + (case as usize * 5) % 10;
        let v1_count = 1 + (case as usize) % 3;
        let seed = case.wrapping_mul(0xD1CE);
        let k = 2usize;
        let n = sigma + omega + v1_count;
        let mut b = even_cycle_congest::graph::GraphBuilder::new(n);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for w in 0..omega {
            for s in 0..sigma {
                b.add_edge(
                    even_cycle_congest::graph::NodeId::new(s as u32),
                    even_cycle_congest::graph::NodeId::new((sigma + w) as u32),
                );
            }
        }
        for v in 0..v1_count {
            for w in 0..omega {
                if rng.gen_bool(0.5) {
                    b.add_edge(
                        even_cycle_congest::graph::NodeId::new((sigma + omega + v) as u32),
                        even_cycle_congest::graph::NodeId::new((sigma + w) as u32),
                    );
                }
            }
        }
        let g = b.build();
        let mut s_mask = vec![false; n];
        let mut w0_mask = vec![false; n];
        let mut layer = vec![None; n];
        for flag in s_mask.iter_mut().take(sigma) {
            *flag = true;
        }
        for w in 0..omega {
            w0_mask[sigma + w] = true;
        }
        for v in 0..v1_count {
            layer[sigma + omega + v] = Some(1);
        }
        let input = DensityInput {
            k,
            s_mask: s_mask.clone(),
            w0_mask,
            layer,
        };
        let sp = Sparsification::new(&g, input).expect("valid instance");
        match sp.verdict().expect("dichotomy must not error") {
            DensityVerdict::CycleFound(w) => {
                assert_eq!(w.len(), 2 * k, "case {case}");
                assert!(w.is_valid(&g));
                assert!(w.nodes().iter().any(|u| s_mask[u.index()]));
            }
            DensityVerdict::BoundHolds { max_ratio } => {
                assert!(max_ratio <= 1.0 + 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn executor_round_accounting_is_bandwidth_consistent() {
    use even_cycle_congest::graph::NodeId;
    use even_cycle_congest::sim::{Control, Ctx, Executor, Outbox, Program};

    /// Every node sends its whole neighbor list to each neighbor.
    struct Chatty;
    impl Program for Chatty {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            let payload: Vec<u32> = ctx.neighbors.iter().map(|x| x.raw()).collect();
            if !payload.is_empty() {
                out.broadcast(payload);
            }
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, Vec<u32>)],
            _out: &mut Outbox<Vec<u32>>,
        ) -> Control {
            Control::Halt
        }
    }

    for case in 0..CASES {
        let n = 6 + (case as usize) % 18;
        let p = 0.1 + 0.0125 * (case % 24) as f64;
        let seed = case.wrapping_mul(77) + 5;
        let g = generators::erdos_renyi(n, p, seed);
        let (report, _) = Executor::new(&g, seed).run(|_, _| Chatty, 4).unwrap();
        // Max per-edge load is the max degree among senders; rounds for
        // the init superstep equal that load (bandwidth 1).
        let expect = g.nodes().map(|v| g.degree(v)).max().unwrap_or(0) as u64;
        assert_eq!(
            report.congestion.max_words_per_edge_step, expect,
            "case {case}"
        );
        if expect > 0 {
            // init superstep + one silent closing superstep.
            assert_eq!(report.rounds, expect + 1, "case {case}");
        }
    }
}
