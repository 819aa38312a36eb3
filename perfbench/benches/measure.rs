//! Measurement machinery shared by every workload: the benchmark's own
//! spans, the key-preserving timing wrapper around a [`Detector`],
//! deltas of the program's always-on telemetry counters, order
//! statistics, and peak memory.
//!
//! Everything here times the program from *outside*: the benchmark
//! reads the clock around calls into public functions and reads the
//! process-global counter registry; it never asks the program to time
//! itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use even_cycle_congest::cycle::{DetectResult, Model};
use even_cycle_congest::graph::Graph;
use even_cycle_congest::telemetry::{self, Event, Recorder, Registry};
use even_cycle_congest::{Budget, Descriptor, Detector};

/// One closed span: a named interval around a call into one layer,
/// with the span that caused it (`parent`, 0 for a root).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub tag: String,
}

/// The benchmark's span log. Ids are always handed out (so callers can
/// thread parents unconditionally); spans are only kept when tracing is
/// on, in memory, and written out once at the end of the run.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    kept: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            kept: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    /// Returns `f`'s value and the wall time it took.
    pub fn time<T>(
        &self,
        parent: u64,
        name: &'static str,
        tag: impl FnOnce() -> String,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let value = f(id);
        let took = started.elapsed();
        if self.on {
            let span = Span {
                id,
                parent,
                name,
                start_ns: nanos(started.duration_since(self.epoch)),
                dur_ns: nanos(took),
                tag: tag(),
            };
            self.kept.lock().expect("span log poisoned").push(span);
        }
        (value, took)
    }

    /// Writes the kept spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let kept = self.kept.lock().expect("span log poisoned");
        let mut out = String::with_capacity(kept.len() * 96);
        for s in kept.iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"tag\":\"{}\"}}\n",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.dur_ns,
                telemetry::json_escape(&s.tag)
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One detector call as the wrapper saw it.
#[derive(Debug, Clone)]
pub struct Call {
    pub quantum: bool,
    pub ns: u64,
    /// `RunCost.supersteps` as the detector reported it.
    pub cost_supersteps: u64,
}

/// The calls one or more [`Timed`] wrappers observed.
#[derive(Debug, Default)]
pub struct CallLog(Mutex<Vec<Call>>);

impl CallLog {
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.0.lock().expect("call log poisoned"))
    }
}

/// A forwarding [`Detector`] that times every `detect` call. It forwards
/// `descriptor()` and `config_fingerprint()` verbatim, so the engine and
/// the server derive the same unit keys through it as through the
/// wrapped detector: a store written through the wrapper replays
/// without it.
#[derive(Debug)]
pub struct Timed<'a> {
    pub inner: &'a dyn Detector,
    pub spans: &'a Spans,
    pub parent: u64,
    pub log: &'a CallLog,
}

impl Detector for Timed<'_> {
    fn descriptor(&self) -> Descriptor {
        self.inner.descriptor()
    }

    fn config_fingerprint(&self) -> String {
        self.inner.config_fingerprint()
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        let descriptor = self.inner.descriptor();
        let (result, took) = self.spans.time(
            self.parent,
            "detect",
            || format!("{} n={} seed={seed}", descriptor.id(), g.node_count()),
            |_| self.inner.detect(g, seed, budget),
        );
        let call = Call {
            quantum: descriptor.model == Model::Quantum,
            ns: nanos(took),
            cost_supersteps: result.as_ref().map_or(0, |d| d.cost.supersteps),
        };
        self.log.0.lock().expect("call log poisoned").push(call);
        result
    }
}

/// A point-in-time copy of the program's always-on counters.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn now() -> Counters {
        Counters(Registry::global().snapshot().counters.into_iter().collect())
    }

    /// How far counter `name` advanced from `self` to `later`.
    pub fn delta(&self, later: &Counters, name: &str) -> u64 {
        let at = |c: &Counters| c.0.get(name).copied().unwrap_or(0);
        at(later).saturating_sub(at(self))
    }
}

/// Sums counter deltas over several intervals.
#[derive(Debug, Default)]
pub struct DeltaSum(BTreeMap<&'static str, u64>);

impl DeltaSum {
    pub fn add(&mut self, before: &Counters, after: &Counters, names: &[&'static str]) {
        for &name in names {
            *self.0.entry(name).or_default() += before.delta(after, name);
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `get(prefix.busy_ns) / (busy + idle)`, 0 for a pool that never ran.
    pub fn busy_frac(&self, prefix: &str) -> f64 {
        let busy = self.get(&format!("{prefix}.busy_ns")) as f64;
        let idle = self.get(&format!("{prefix}.idle_ns")) as f64;
        if busy + idle == 0.0 {
            0.0
        } else {
            busy / (busy + idle)
        }
    }
}

/// The simulator and pool counters every workload reads as deltas.
pub const SIM_COUNTERS: &[&str] = &[
    "sim.runs",
    "sim.supersteps",
    "sim.messages.delivered",
    "sim.pool.busy_ns",
    "sim.pool.idle_ns",
    "sim.pool.wakes",
    "sim.pool.spawns",
];

/// A telemetry recorder that accepts every event and keeps none:
/// installed for the traced run's overhead probe, so the program pays
/// for building its own spans and events without the benchmark storing
/// millions of them. (`NoopRecorder` reports itself disabled, so events
/// would not be built at all.)
#[derive(Debug, Default)]
pub struct DiscardingRecorder;

impl Recorder for DiscardingRecorder {
    fn record(&self, _event: &Event) {}
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of the middle half of `xs` (0 for an empty slice): as
/// robust to outliers as the median, but where the samples fall into two
/// modes (a shared host that runs fast for a while, then slow) it moves
/// smoothly with the share of each mode rather than jumping between them.
pub fn iq_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Nearest-rank quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB, from
/// `/proc/self/status` (`VmHWM`); 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small deterministic generator (SplitMix64) for request mixes and
/// instance seeds: the workload seed fixes every input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}
