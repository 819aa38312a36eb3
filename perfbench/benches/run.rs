//! The repository benchmark: three named workloads driven in-process
//! through the public API of `even-cycle-congest`, each checked for
//! correct outputs, each layer timed from outside.
//!
//! ```text
//! cargo bench -q --offline --manifest-path perfbench/Cargo.toml --bench run -- \
//!     --workload campaign|large-n|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it stamps the host (`nproc`, git revision, `rustc
//! -V`, build profile). A traced run also writes the benchmark's spans
//! to `.perfbench_trace/<workload>-seed<N>.jsonl` under the repository
//! root. Any correctness violation prints `"correct": false` and exits
//! with status 1; bad arguments exit with status 2 and print no result.

mod campaign;
mod large_n;
mod measure;
mod serve_mixed;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use even_cycle_congest::telemetry;
use measure::{median, DiscardingRecorder, Spans};

/// End-to-end metrics: name and unit. Every workload reports each one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("replay_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. A workload that does not pass
/// through a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_ms", "ms"),
    ("detect.quantum_ms", "ms"),
    ("detect.classical_ms", "ms"),
    ("detect.calls", "count"),
    ("detect.cost_supersteps", "count"),
    ("engine.unit_p50_ms", "ms"),
    ("engine.unit_p99_ms", "ms"),
    ("engine.store_open_ms", "ms"),
    ("engine.pool.busy_frac", "frac"),
    ("engine.units.executed", "count"),
    ("engine.units.replayed", "count"),
    ("sim.runs", "count"),
    ("sim.supersteps", "count"),
    ("sim.messages", "count"),
    ("sim.us_per_run", "us"),
    ("sim.ns_per_superstep.planted", "ns"),
    ("sim.ns_per_superstep.regular", "ns"),
    ("sim.pool.busy_frac", "frac"),
    ("sim.pool.wakes", "count"),
    ("sim.pool.spawns", "count"),
    ("serve.detect_exec_p50_ms", "ms"),
    ("serve.detect_exec_p99_ms", "ms"),
    ("serve.detect_replay_p50_ms", "ms"),
    ("serve.detect_replay_p99_ms", "ms"),
    ("serve.update_p50_ms", "ms"),
    ("serve.update_p99_ms", "ms"),
    ("serve.server_detect_ms", "ms"),
    ("serve.protocol_overhead_ms", "ms"),
    ("serve.replay_share", "frac"),
    ("telemetry.overhead_frac", "frac"),
];

/// What every workload receives: the parsed arguments plus the
/// benchmark's span log and a private work directory.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub work: PathBuf,
    pub spans: Spans,
    started: Instant,
}

impl Ctx {
    /// Passes every run makes whatever `--seconds` says: a traced run
    /// needs one pass with and one without a telemetry recorder.
    pub fn min_passes(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }

    /// Whether work expected to take `expect_s` seconds would end within
    /// `--seconds` of the measurement start.
    pub fn fits(&self, expect_s: f64) -> bool {
        self.started.elapsed().as_secs_f64() + expect_s <= self.seconds
    }

    /// Restarts the measurement clock (call once set-up is done).
    pub fn start_measuring(&mut self) {
        self.started = Instant::now();
    }

    /// In a traced run, installs a discarding telemetry recorder for every
    /// odd-numbered pass, so [`overhead_frac`] can compare passes with
    /// the program's own instrumentation live against passes without it.
    /// Untraced runs never install one.
    pub fn recorder_for_pass(&self, pass: usize) -> RecorderGuard {
        let on = self.trace && pass % 2 == 1;
        if on {
            telemetry::install(Arc::new(DiscardingRecorder));
        }
        RecorderGuard(on)
    }
}

/// Uninstalls the pass's telemetry recorder, if any, on drop.
pub struct RecorderGuard(bool);

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        if self.0 {
            telemetry::uninstall();
        }
    }
}

/// How much slower the recorder-on (odd) passes ran than the
/// recorder-off (even) ones, as a share of the latter; 0 with fewer
/// than two passes.
pub fn overhead_frac(pass_s: &[f64]) -> f64 {
    let off: Vec<f64> = pass_s.iter().step_by(2).copied().collect();
    let on: Vec<f64> = pass_s.iter().skip(1).step_by(2).copied().collect();
    if on.is_empty() {
        0.0
    } else {
        median(&on) / median(&off) - 1.0
    }
}

/// One workload's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    end_to_end: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.end_to_end.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.layers.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bench" {
            continue; // appended by `cargo bench`
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_line(root: &Path, nproc: usize) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"git_rev\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\"}}}}",
        telemetry::json_escape(&command_line("git", &["rev-parse", "HEAD"], root)),
        telemetry::json_escape(&command_line(&rustc, &["-V"], root)),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

fn metrics_json(catalog: &[(&str, &str)], values: &[(&'static str, f64)]) -> String {
    let parts: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                telemetry::json_f64(value)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let workload: fn(&mut Ctx) -> Report = match args.workload.as_str() {
        "campaign" => campaign::run,
        "large-n" => large_n::run,
        "serve-mixed" => serve_mixed::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (campaign, large-n, serve-mixed)");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one directory below the repository root")
        .to_path_buf();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        root.join(".perfbench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        work: work.clone(),
        spans: Spans::new(args.trace),
        started: Instant::now(),
    };

    let mut report = workload(&mut ctx);
    report.e2e("peak_rss_mb", measure::peak_rss_mb());
    let _ = std::fs::remove_dir_all(&work);
    // Drop the shared parent too once no other run is using it.
    let _ = std::fs::remove_dir(root.join(".perfbench_work"));

    if args.trace {
        let path = root
            .join(".perfbench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.spans.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(err) => report
                .violations
                .push(format!("cannot write spans to {}: {err}", path.display())),
        }
    }
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    for violation in &report.violations {
        eprintln!("perfbench: VIOLATION: {violation}");
    }
    let correct = report.violations.is_empty();
    let metrics = if args.trace {
        metrics_json(PER_LAYER, &report.layers)
    } else {
        metrics_json(END_TO_END, &report.end_to_end)
    };
    println!("{}", host_line(&root, nproc));
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
