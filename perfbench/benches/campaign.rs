//! `campaign`: the CI smoke suite (`suites/smoke.suite`, `fast-ci`,
//! k = 2) through `Engine::run_suite` with two workers (at most
//! `nproc`), `Backend::Sequential` and a fresh result store per pass.
//!
//! Each pass is a cold run through the benchmark's timing wrapper,
//! then a replay from a fresh `Engine` over the same store through
//! `PreparedSuite::run` with the registry's own detectors — so the
//! replay also proves that the wrapper preserved every unit key.
//! The inputs are the committed suite, instance seeds included: that is
//! what CI runs. `--seed` does not change them. Drawing the instance
//! seeds from `--seed` moved the cold pass by 8% and `p99_ms` by 13%
//! (quartile spread over five seeds) at equal code, since a few heavy
//! quantum units set both.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use even_cycle_congest::cycle::Target;
use even_cycle_congest::engine::store::{canonical_unit, unit_key, ResultStore, UnitStatus};
use even_cycle_congest::graph::analysis;
use even_cycle_congest::sim::Backend;
use even_cycle_congest::suite::{DetectorSelect, PreparedSuite, Suite};
use even_cycle_congest::{Detector, DetectorRegistry, Engine, RunProfile, Scenario};

use crate::measure::{iq_mean, median, quantile, CallLog, Counters, DeltaSum, Timed, SIM_COUNTERS};
use crate::{overhead_frac, Ctx, Report};

const SMOKE: &str = include_str!("../../suites/smoke.suite");
const PROFILE: RunProfile = RunProfile::FastCi;
const K: usize = 2;
const SETUP_REPEATS: usize = 200;
/// Replays per cold pass. Back-to-back replays take the same time to
/// within 2%, but their level shifts by up to a third from one cold pass
/// to the next (what each cold pass leaves behind: heap, caches, host).
/// So `replay_s` steadies with more cold passes, not with more replays
/// after each: a few dozen per pass leave time for one more cold pass.
const REPLAYS_PER_PASS: usize = 30;
const ENGINE_COUNTERS: &[&str] = &[
    "engine.units.executed",
    "engine.units.replayed",
    "engine.pool.busy_ns",
    "engine.pool.idle_ns",
];

/// Where a stored unit came from: scenario index, size, seed, detector.
type UnitCoords = (usize, usize, u64, usize);

/// The campaign's set-up: parses and resolves the suite, and creates a
/// fresh result store under `dir`.
fn prepare(dir: &Path) -> Result<(PreparedSuite, DetectorRegistry), String> {
    let suite = Suite::parse(SMOKE)?;
    for stanza in &suite.stanzas {
        if stanza.detectors != DetectorSelect::All || stanza.k.is_some_and(|k| k != K) {
            return Err(
                "the campaign wraps every registry entry: stanzas must use detectors=all, k=2"
                    .into(),
            );
        }
    }
    let prepared = suite.prepare(PROFILE, K, Some(Backend::Sequential))?;
    ResultStore::open(dir)
        .map_err(|e| format!("cannot create a store in {}: {e}", dir.display()))?;
    Ok((prepared, PROFILE.registry(K)))
}

/// Every unit's content address, as the engine derives it.
fn unit_index(
    prepared: &PreparedSuite,
    registry: &DetectorRegistry,
) -> BTreeMap<String, UnitCoords> {
    let budget = PROFILE.budget();
    let mut index = BTreeMap::new();
    for (si, scenario) in prepared.scenarios().enumerate() {
        let family = scenario.family().store_key();
        for &n in scenario.sizes_configured() {
            for &seed in scenario.seeds_configured() {
                for (di, entry) in registry.iter().enumerate() {
                    let canonical = canonical_unit(
                        &family,
                        n,
                        seed,
                        &entry.id,
                        &entry.detector.config_fingerprint(),
                        &budget,
                    );
                    index.insert(unit_key(&canonical), (si, n, seed, di));
                }
            }
        }
    }
    index
}

/// Whether the instance truly contains what a rejection for `target`
/// claims, by the exact oracles of `congest_graph::analysis`.
fn oracle(g: &even_cycle_congest::graph::Graph, target: Target) -> bool {
    match target {
        Target::Even { k } => analysis::has_cycle_exact(g, 2 * k, None),
        Target::Odd { k } => analysis::has_cycle_exact(g, 2 * k + 1, None),
        Target::F2k { k } => analysis::contains_cycle_up_to(g, 2 * k),
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let workers = ctx.nproc.min(2);

    let mut setup_s = Vec::new();
    let mut resolved = None;
    for i in 0..SETUP_REPEATS {
        let dir = ctx.work.join(format!("setup-{i}"));
        let started = Instant::now();
        resolved = Some(prepare(&dir));
        setup_s.push(started.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (prepared, registry) = match resolved.expect("at least one set-up") {
        Ok(r) => r,
        Err(msg) => {
            report
                .violations
                .push(format!("suite does not resolve: {msg}"));
            return report;
        }
    };
    let scenarios: Vec<&Scenario> = prepared.scenarios().collect();
    let index = unit_index(&prepared, &registry);
    let targets: Vec<Target> = registry.iter().map(|e| e.descriptor.target).collect();

    let log = CallLog::default();
    let mut cold_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut open_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut unit_ms = Vec::new();
    let mut quantum_ms = 0.0;
    let mut classical_ms = 0.0;
    let mut cost_supersteps = 0u64;
    let mut counters = DeltaSum::default();
    let mut checked: BTreeMap<UnitCoords, bool> = BTreeMap::new();
    let mut executed = 0usize;
    ctx.start_measuring();
    // After the minimum passes, a pass starts only if the passes so far
    // say it ends by the deadline.
    let mut pass_s = Vec::new();
    while cold_s.len() < ctx.min_passes() || ctx.fits(median(&pass_s)) {
        let pass = cold_s.len();
        let pass_started = Instant::now();
        let store_dir = ctx.work.join(format!("store-{pass}"));
        let _recorder = ctx.recorder_for_pass(pass);

        // Cold: every unit executes through the timing wrapper.
        let before = Counters::now();
        let engine = Engine::from_env()
            .with_workers(workers)
            .with_store(&store_dir)
            .with_schedule(PROFILE.schedule());
        let (cold, took) = ctx
            .spans
            .time(0, "engine.run_suite", String::new, |parent| {
                let timed: Vec<Timed> = registry
                    .iter()
                    .map(|e| Timed {
                        inner: e.detector.as_ref(),
                        spans: &ctx.spans,
                        parent,
                        log: &log,
                    })
                    .collect();
                let dets: Vec<&dyn Detector> = timed.iter().map(|t| t as &dyn Detector).collect();
                let items: Vec<(&Scenario, &[&dyn Detector])> =
                    scenarios.iter().map(|s| (*s, dets.as_slice())).collect();
                engine.run_suite(&items)
            });
        let after_cold = Counters::now();
        counters.add(&before, &after_cold, SIM_COUNTERS);
        counters.add(&before, &after_cold, ENGINE_COUNTERS);
        cold_s.push(took.as_secs_f64());
        executed += cold.executed_units;
        for call in log.take() {
            let ms = call.ns as f64 / 1e6;
            unit_ms.push(ms);
            *if call.quantum {
                &mut quantum_ms
            } else {
                &mut classical_ms
            } += ms;
            cost_supersteps += call.cost_supersteps;
        }

        // The store as written: every rejection re-checked on the
        // regenerated instance, every simulator error counted.
        let (store, took) = ctx.spans.time(0, "engine.store_open", String::new, |_| {
            ResultStore::open(&store_dir)
        });
        open_ms.push(took.as_secs_f64() * 1e3);
        let store = match store {
            Ok(s) => s,
            Err(err) => {
                report
                    .violations
                    .push(format!("cold store does not open: {err}"));
                break;
            }
        };
        if store.len() != index.len() {
            report.violations.push(format!(
                "store holds {} units, the suite has {}",
                store.len(),
                index.len()
            ));
        }
        for (key, record) in store.loaded() {
            report.attempted += 1;
            if matches!(record.status, UnitStatus::Error(_)) {
                report.failed += 1;
            }
            let Some(&(si, n, seed, di)) = index.get(key) else {
                report
                    .violations
                    .push(format!("store holds unknown unit {key} ({})", record.det));
                continue;
            };
            if !record.rejected {
                continue;
            }
            let holds = *checked.entry((si, n, seed, di)).or_insert_with(|| {
                let (g, took) = ctx.spans.time(0, "graph.build", String::new, |_| {
                    scenarios[si].family().build(n, seed)
                });
                build_ms.push(took.as_secs_f64() * 1e3);
                oracle(&g, targets[di])
            });
            if !holds {
                report.violations.push(format!(
                    "{} rejected {} n={n} seed={seed}, which has no {}",
                    record.det,
                    scenarios[si].family().name(),
                    targets[di].label()
                ));
            }
        }
        drop(store);

        // Replays: each a fresh engine over the same store, through the
        // registry's own detectors.
        for _ in 0..REPLAYS_PER_PASS {
            let before = Counters::now();
            let (replayed, took) = ctx.spans.time(0, "pass.replay", String::new, |_| {
                let engine = Engine::from_env()
                    .with_workers(workers)
                    .with_store(&store_dir)
                    .with_schedule(PROFILE.schedule());
                prepared.run(&engine)
            });
            counters.add(&before, &Counters::now(), ENGINE_COUNTERS);
            replay_s.push(took.as_secs_f64());
            report.attempted += replayed.total_units as u64;
            if replayed.executed_units != 0 {
                report.violations.push(format!(
                    "replay executed {} unit(s); the wrapper must preserve every unit key",
                    replayed.executed_units
                ));
            }
            let same = cold.reports.len() == replayed.reports.len()
                && cold
                    .reports
                    .iter()
                    .zip(&replayed.reports)
                    .all(|(a, b)| a.to_json() == b.to_json());
            if !same {
                report
                    .violations
                    .push("a replay report differs from the cold report".into());
            }
        }
        let _ = std::fs::remove_dir_all(&store_dir);
        pass_s.push(pass_started.elapsed().as_secs_f64());
    }

    let passes = cold_s.len() as f64;
    report.e2e("setup_s", iq_mean(&setup_s));
    report.e2e("wall_s", iq_mean(&cold_s));
    report.e2e("replay_s", iq_mean(&replay_s));
    report.e2e("p50_ms", quantile(&unit_ms, 0.5));
    report.e2e("p99_ms", quantile(&unit_ms, 0.99));
    report.e2e("ops_per_s", executed as f64 / cold_s.iter().sum::<f64>());
    report.note(format!(
        "campaign: {} cold + replay pass(es) of {} unit(s), {workers} worker(s); p50/p99 over {} unit(s)",
        cold_s.len(),
        index.len(),
        unit_ms.len()
    ));

    if ctx.trace {
        let runs = counters.get("sim.runs").max(1) as f64;
        report.layer("graph.build_ms", median(&build_ms));
        report.layer("detect.quantum_ms", quantum_ms / passes);
        report.layer("detect.classical_ms", classical_ms / passes);
        report.layer("detect.calls", unit_ms.len() as f64 / passes);
        report.layer("detect.cost_supersteps", cost_supersteps as f64 / passes);
        report.layer("engine.unit_p50_ms", quantile(&unit_ms, 0.5));
        report.layer("engine.unit_p99_ms", quantile(&unit_ms, 0.99));
        report.layer("engine.store_open_ms", median(&open_ms));
        report.layer("engine.pool.busy_frac", counters.busy_frac("engine.pool"));
        report.layer(
            "engine.units.executed",
            counters.get("engine.units.executed") as f64 / passes,
        );
        report.layer(
            "engine.units.replayed",
            counters.get("engine.units.replayed") as f64 / passes,
        );
        report.layer("sim.runs", counters.get("sim.runs") as f64 / passes);
        report.layer(
            "sim.supersteps",
            counters.get("sim.supersteps") as f64 / passes,
        );
        report.layer(
            "sim.messages",
            counters.get("sim.messages.delivered") as f64 / passes,
        );
        report.layer("sim.us_per_run", (quantum_ms + classical_ms) * 1e3 / runs);
        report.layer("sim.pool.busy_frac", counters.busy_frac("sim.pool"));
        report.layer(
            "sim.pool.wakes",
            counters.get("sim.pool.wakes") as f64 / passes,
        );
        report.layer(
            "sim.pool.spawns",
            counters.get("sim.pool.spawns") as f64 / passes,
        );
        report.layer("telemetry.overhead_frac", overhead_frac(&cold_s));
    }
    report
}
