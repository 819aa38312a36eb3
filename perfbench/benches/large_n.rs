//! `large-n`: direct `Detector::detect` calls at n = 20 000 on two
//! families that load different halves of the simulator core.
//!
//! `planted:4` (m ≈ n) runs tens to hundreds of cheap supersteps per
//! call, so the step/deliver phases and the worker pool dominate;
//! `regular:2` (degree ≈ 142, m ≈ 1.4 M) rejects within a few
//! supersteps, so per-run setup over a large CSR dominates. Every call
//! names `Backend::Parallel { threads: nproc }` explicitly.
//!
//! One fixed instance of each family, whatever `--seed` says. A pass
//! calls each family's detectors on its instance: 7 (instance, detector)
//! cells, one call each. The first round is the first pass; every later
//! round is a replay that must reproduce each cell's first detection
//! exactly (the determinism contract on a multi-core host). Rounds
//! repeat until `--seconds` have elapsed, and a pass's time is the sum of
//! the cells' median calls: a call takes up to seconds, so a burst of
//! host load on one call moves a pass by that call's share only.
//!
//! Why one fixed instance per family: with two instances per family, a
//! 30 s run on a 2-core host fitted only 2–3 calls per cell, and
//! `replay_s` spread 15% over ten seeds at equal code. With one instance
//! drawn from `--seed`, cells got 4–6 calls, but the instance set the
//! cost: the median cell moved from 527 to 730 ms across ten seeds and
//! `wall_s` spread 17%.

use std::time::Instant;

use even_cycle_congest::graph::Graph;
use even_cycle_congest::sim::Backend;
use even_cycle_congest::{Detection, Detector, FamilySpec, RunProfile};

use crate::measure::{
    iq_mean, median, quantile, CallLog, Counters, DeltaSum, SplitMix, Timed, SIM_COUNTERS,
};
use crate::{Ctx, Report};

const N: usize = 20_000;
/// Each family with the registry id fragments (each matching exactly
/// one entry) of the detectors called on it: the paper's three
/// classical detectors plus the [10] baseline. The odd detector skips
/// `regular:2`: there it rejects after a geometric number of
/// repetitions (211–2673 ms per call across seeds at equal code), which
/// measures coloring luck rather than code. Its full-repetition path
/// runs on `planted:4`, which has no C5.
const FAMILIES: [(&str, &[&str]); 2] = [
    (
        "planted:4",
        &[
            "global-threshold",
            "constant-round-odd",
            "pairwise-color-bfs",
            "local-threshold-sampling",
        ],
    ),
    (
        "regular:2",
        &[
            "global-threshold",
            "pairwise-color-bfs",
            "local-threshold-sampling",
        ],
    ),
];
const SETUP_REPEATS: usize = 5;
/// Seeds the generator that draws every instance's graph and detect seed.
const INSTANCE_SEED: u64 = 0;
/// Rounds every run makes whatever `--seconds` says: the first pass and
/// at least one replay of every cell.
const MIN_ROUNDS: usize = 2;

struct Instance {
    family: usize,
    graph: Graph,
    detect_seed: u64,
}

/// Builds one instance per family, its graph and detect seeds drawn from
/// [`INSTANCE_SEED`]; also returns the summed build time in milliseconds.
fn build_instances(ctx: &Ctx) -> (Vec<Instance>, f64) {
    let mut rng = SplitMix::new(INSTANCE_SEED);
    let mut out = Vec::new();
    let mut build_ms = 0.0;
    for (family, (spec, _)) in FAMILIES.iter().enumerate() {
        let spec = FamilySpec::parse(spec).expect("catalog family");
        let graph_seed = rng.below(1 << 32);
        let (graph, took) = ctx.spans.time(
            0,
            "graph.build",
            || format!("{spec} n={N} seed={graph_seed}"),
            |_| spec.build(N, graph_seed),
        );
        build_ms += took.as_secs_f64() * 1e3;
        out.push(Instance {
            family,
            graph,
            detect_seed: rng.below(1 << 32),
        });
    }
    (out, build_ms)
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();

    // Set-up: the registry and every instance, several times over.
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut instances = Vec::new();
    let mut registry = None;
    for _ in 0..SETUP_REPEATS {
        instances.clear(); // so peak memory holds one set of graphs
        let started = Instant::now();
        registry = Some(RunProfile::FastCi.registry(2));
        let (built, ms) = build_instances(ctx);
        instances = built;
        build_ms.push(ms);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let registry = registry.expect("at least one set-up");
    let detectors: Vec<Vec<&dyn Detector>> = FAMILIES
        .iter()
        .map(|(_, fragments)| {
            fragments
                .iter()
                .map(|fragment| {
                    let hits: Vec<_> = registry
                        .iter()
                        .filter(|e| e.id.contains(fragment))
                        .collect();
                    assert_eq!(
                        hits.len(),
                        1,
                        "fragment {fragment:?} must name one detector"
                    );
                    hits[0].detector.as_ref()
                })
                .collect()
        })
        .collect();
    // The (instance, detector) cells of one pass, in call order.
    let cells: Vec<(&Instance, &dyn Detector)> = instances
        .iter()
        .flat_map(|inst| detectors[inst.family].iter().map(move |d| (inst, *d)))
        .collect();
    let budget = RunProfile::FastCi
        .budget()
        .with_backend(Backend::Parallel { threads: ctx.nproc });

    let log = CallLog::default();
    // Every call's time in seconds, per cell, with the round it ran in.
    let mut samples: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cells.len()];
    let mut reference: Vec<Option<Detection>> = Vec::new();
    let mut per_family: Vec<(f64, DeltaSum)> = FAMILIES
        .iter()
        .map(|_| (0.0, DeltaSum::default()))
        .collect();
    let mut counters = DeltaSum::default();
    let mut cost_supersteps = 0u64;
    let mut calls = 0u64;
    let mut rounds = 0;
    ctx.start_measuring();
    let mut out_of_time = false;
    while !out_of_time {
        let round = rounds;
        let _recorder = ctx.recorder_for_pass(round);
        let before_round = Counters::now();
        let name = if round == 0 { "pass" } else { "pass.replay" };
        let (results, _) = ctx.spans.time(0, name, String::new, |pass| {
            let mut results = Vec::new();
            for (i, &(inst, det)) in cells.iter().enumerate() {
                // After the minimum rounds, a call starts only if its
                // cell's median so far says it ends by the deadline.
                let expect: Vec<f64> = samples[i].iter().map(|&(_, s)| s).collect();
                if round >= MIN_ROUNDS.max(ctx.min_passes()) && !ctx.fits(median(&expect)) {
                    out_of_time = true;
                    break;
                }
                let before = Counters::now();
                let started = Instant::now();
                let timed = Timed {
                    inner: det,
                    spans: &ctx.spans,
                    parent: pass,
                    log: &log,
                };
                results.push(timed.detect(&inst.graph, inst.detect_seed, &budget));
                let took = started.elapsed().as_secs_f64();
                samples[i].push((round, took));
                let slot = &mut per_family[inst.family];
                slot.0 += took * 1e9;
                slot.1.add(&before, &Counters::now(), SIM_COUNTERS);
            }
            results
        });
        counters.add(&before_round, &Counters::now(), SIM_COUNTERS);
        rounds += 1;
        for call in log.take() {
            cost_supersteps += call.cost_supersteps;
            calls += 1;
        }
        for (i, result) in results.into_iter().enumerate() {
            report.attempted += 1;
            let (inst, det) = cells[i];
            let detection = match result {
                Ok(d) => d,
                Err(err) => {
                    report.failed += 1;
                    eprintln!(
                        "perfbench: {}: simulator error {err}",
                        det.descriptor().id()
                    );
                    if round == 0 {
                        reference.push(None);
                    }
                    continue;
                }
            };
            if let Some(w) = detection.witness() {
                let target = det.descriptor().target;
                if !w.is_valid(&inst.graph) || !target.matches_length(w.len()) {
                    report.violations.push(format!(
                        "{}: witness of length {} is not a valid {} on {}",
                        det.descriptor().id(),
                        w.len(),
                        target.label(),
                        FAMILIES[inst.family].0
                    ));
                }
            } else if detection.rejected() {
                report.violations.push(format!(
                    "{}: rejection without a witness",
                    det.descriptor().id()
                ));
            }
            if round == 0 {
                reference.push(Some(detection));
            } else if reference[i].as_ref() != Some(&detection) {
                report.violations.push(format!(
                    "{}: replay on {} differs from the first pass",
                    det.descriptor().id(),
                    FAMILIES[inst.family].0
                ));
            }
        }
    }

    // A pass's time is the sum over its cells of each cell's median
    // call, so one slow call moves a pass by its share, not by its size.
    let pass_of = |keep: &dyn Fn(usize) -> bool| -> f64 {
        samples
            .iter()
            .map(|cell| {
                let kept: Vec<f64> = cell
                    .iter()
                    .filter(|&&(round, _)| keep(round))
                    .map(|&(_, s)| s)
                    .collect();
                median(&kept)
            })
            .sum()
    };
    let cell_ms: Vec<f64> = samples
        .iter()
        .map(|cell| median(&cell.iter().map(|&(_, s)| s * 1e3).collect::<Vec<_>>()))
        .collect();
    let wall_s = pass_of(&|_| true);
    report.e2e("setup_s", iq_mean(&setup_s));
    report.e2e("wall_s", wall_s);
    report.e2e("replay_s", pass_of(&|round| round > 0));
    report.e2e("p50_ms", quantile(&cell_ms, 0.5));
    report.e2e("p99_ms", quantile(&cell_ms, 0.99));
    report.e2e("ops_per_s", cells.len() as f64 / wall_s);
    report.note(format!(
        "large-n: {rounds} round(s) of {} cell(s), {calls} detect call(s), n = {N}, backend parallel:{}; p50/p99 over the {} per-cell median call times",
        cells.len(),
        ctx.nproc,
        cells.len()
    ));

    if ctx.trace {
        // Counts and summed times per round (the last may be partial).
        let passes = calls as f64 / cells.len() as f64;
        let detect_ms: f64 = samples.iter().flatten().map(|&(_, s)| s * 1e3).sum();
        report.layer("graph.build_ms", median(&build_ms));
        report.layer("detect.classical_ms", detect_ms / passes);
        report.layer("detect.calls", calls as f64 / passes);
        report.layer("detect.cost_supersteps", cost_supersteps as f64 / passes);
        report.layer("sim.runs", counters.get("sim.runs") as f64 / passes);
        report.layer(
            "sim.supersteps",
            counters.get("sim.supersteps") as f64 / passes,
        );
        report.layer(
            "sim.messages",
            counters.get("sim.messages.delivered") as f64 / passes,
        );
        report.layer(
            "sim.us_per_run",
            detect_ms * 1e3 / counters.get("sim.runs").max(1) as f64,
        );
        for (name, (ns, sums)) in [
            "sim.ns_per_superstep.planted",
            "sim.ns_per_superstep.regular",
        ]
        .into_iter()
        .zip(&per_family)
        {
            report.layer(name, ns / sums.get("sim.supersteps").max(1) as f64);
        }
        report.layer("sim.pool.busy_frac", counters.busy_frac("sim.pool"));
        report.layer(
            "sim.pool.wakes",
            counters.get("sim.pool.wakes") as f64 / passes,
        );
        report.layer(
            "sim.pool.spawns",
            counters.get("sim.pool.spawns") as f64 / passes,
        );
        let overhead = pass_of(&|round| round % 2 == 1) / pass_of(&|round| round % 2 == 0) - 1.0;
        report.layer("telemetry.overhead_frac", overhead);
    }
    report
}
