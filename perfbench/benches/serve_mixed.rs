//! `serve-mixed`: an in-process `Server` on `127.0.0.1:0` (`fast-ci`,
//! one execution slot, fresh store) driven over loopback TCP by
//! closed-loop clients — at most `nproc` of them, each waiting for its
//! reply before sending the next request.
//!
//! The seeded request mix spreads over three snapshots:
//! * `hot` (`planted:4`, n = 4096, never updated) gets duplicate
//!   detects of pairs warmed during set-up, which replay from the store;
//! * `churn` (`planted:4`, n = 256) gets edge inserts/deletes and
//!   fresh-seed classical detects, which execute;
//! * `tiny` (`cycle`, n = 32) gets a small share of fresh-seed quantum
//!   detects, which hold the single slot. A 32-cycle has no cycle the
//!   pipelines look for, so each runs its full amplification and its
//!   cost varies only with the detect seed, not with the instance.
//!
//! A pass is one mixed batch (`wall_s`) followed by a batch of `hot`
//! duplicates only (`replay_s`). Every duplicate must be byte-identical
//! to its warm-up reply, and the `replayed` count in `stats` must equal
//! the duplicates sent to `hot`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use even_cycle_congest::sim::Backend;
use even_cycle_congest::{RunProfile, ServeConfig, Server};

use crate::measure::{iq_mean, median, quantile, Counters, DeltaSum, SplitMix, SIM_COUNTERS};
use crate::{overhead_frac, Ctx, Report};

const SETUP_REPEATS: usize = 5;
const HOT_N: usize = 4096;
const CHURN_N: u64 = 256;
const TINY_N: usize = 32;
/// The detector and seeds of the `hot` detects warmed in set-up. The
/// odd detector finds no C5 in `planted:4`, so it always runs every
/// repetition and set-up time does not hinge on coloring luck.
const HOT_DETECTOR: &str = "constant-round-odd";
const HOT_SEEDS: [u64; 4] = [1, 2, 3, 4];
const CHURN_DETECTORS: [&str; 4] = [
    "global-threshold",
    "constant-round-odd",
    "pairwise-color-bfs",
    "local-threshold-sampling",
];
const TINY_DETECTORS: [&str; 3] = [
    "amplified-color-bfs",
    "amplified-odd-color-bfs",
    "amplified-pairwise-sweep",
];
/// One client's mixed batch: how many requests of each kind, sent in a
/// seeded shuffled order. Fixed counts keep the batch's work from
/// swinging with a binomial draw of expensive quantum detects.
const MIX: [(Op, usize); 4] = [
    (Op::Hot, 100),
    (Op::Update, 46),
    (Op::Churn, 50),
    (Op::Tiny, 4),
];
/// Requests per client in one replay batch.
const REPLAY_BATCH: usize = 50;

#[derive(Clone, Copy)]
enum Op {
    Hot,
    Update,
    Churn,
    Tiny,
}

/// One loopback connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request line and waits for its reply line.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// The integer after `"key":` in a flat reply, searching from `from`.
fn field_u64(reply: &str, key: &str, from: usize) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = reply[from..].find(&pat)? + from + pat.len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A value from the Prometheus text the `metrics` op returns (its
/// newlines arrive JSON-escaped as `\n`).
fn exposition_value(reply: &str, metric: &str) -> Option<u64> {
    let pat = format!("{metric} ");
    let at = reply.find(&pat)? + pat.len();
    reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

fn detect_line(name: &str, detector: &str, seed: u64) -> String {
    format!("{{\"op\":\"detect\",\"name\":\"{name}\",\"detector\":\"{detector}\",\"seed\":{seed}}}")
}

/// What kind of request a sample timed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Replay,
    Exec,
    Update,
}

/// One client's running state and samples.
struct Loader {
    client: Client,
    rng: SplitMix,
    next_seed: u64,
    inserted: Vec<(u64, u64)>,
    samples: Vec<(Kind, f64)>,
    hot_sent: u64,
    failed: u64,
    attempted: u64,
    mismatches: Vec<String>,
}

impl Loader {
    fn send(&mut self, kind: Kind, line: &str) -> Option<String> {
        self.attempted += 1;
        let started = Instant::now();
        let reply = self.client.request(line);
        self.samples
            .push((kind, started.elapsed().as_secs_f64() * 1e3));
        match reply {
            Ok(r) if r.starts_with("{\"ok\":true") && !r.contains("\"status\":\"error\"") => {
                Some(r)
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    fn hot(&mut self, warm: &BTreeMap<u64, String>) {
        let s = HOT_SEEDS[self.rng.below(HOT_SEEDS.len() as u64) as usize];
        self.hot_sent += 1;
        if let Some(reply) = self.send(Kind::Replay, &detect_line("hot", HOT_DETECTOR, s)) {
            if warm.get(&s) != Some(&reply) {
                self.mismatches
                    .push(format!("hot duplicate (seed {s}) differs: {reply}"));
            }
        }
    }

    fn update(&mut self) {
        let delete =
            self.inserted.len() > 8 || (!self.inserted.is_empty() && self.rng.below(2) == 0);
        let (action, (u, v)) = if delete {
            ("delete", self.inserted.pop().expect("non-empty"))
        } else {
            let u = self.rng.below(CHURN_N);
            let v = (u + 1 + self.rng.below(CHURN_N - 1)) % CHURN_N;
            ("insert", (u, v))
        };
        let line = format!(
            "{{\"op\":\"update\",\"name\":\"churn\",\"action\":\"{action}\",\"u\":{u},\"v\":{v}}}"
        );
        if let Some(reply) = self.send(Kind::Update, &line) {
            if action == "insert" && reply.contains("\"applied\":true") {
                self.inserted.push((u, v));
            }
        }
    }

    /// A detect on `name` with a fresh seed, which also picks one of
    /// `detectors`.
    fn execute(&mut self, name: &str, detectors: &[&str]) {
        self.next_seed += 1;
        let detector = detectors[(self.next_seed % detectors.len() as u64) as usize];
        self.send(Kind::Exec, &detect_line(name, detector, self.next_seed));
    }

    fn mixed_batch(&mut self, warm: &BTreeMap<u64, String>) {
        let mut ops: Vec<Op> = MIX
            .iter()
            .flat_map(|&(op, count)| std::iter::repeat_n(op, count))
            .collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        for op in ops {
            match op {
                Op::Hot => self.hot(warm),
                Op::Update => self.update(),
                Op::Churn => self.execute("churn", &CHURN_DETECTORS),
                Op::Tiny => self.execute("tiny", &TINY_DETECTORS),
            }
        }
    }
}

/// A running server plus the connection that set it up, which later
/// becomes the first load client.
struct Running {
    thread: JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
    admin: Client,
    /// The warm-up reply for each `hot` seed.
    warm: BTreeMap<u64, String>,
    /// Summed round trips of the three `load` requests, which build the
    /// snapshots.
    load_ms: f64,
}

fn start(store: &Path, seed: u64) -> Result<Running, String> {
    let config = ServeConfig::new(RunProfile::FastCi, 2)
        .budget(
            RunProfile::FastCi
                .budget()
                .with_backend(Backend::Sequential),
        )
        .max_inflight(1)
        .store(store);
    let server = Server::bind("127.0.0.1:0", &config).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let thread = std::thread::spawn(move || server.run());
    let mut admin = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = SplitMix::new(seed);
    let mut load_ms = 0.0;
    for (name, family, n) in [
        ("hot", "planted:4", HOT_N),
        ("churn", "planted:4", CHURN_N as usize),
        ("tiny", "cycle", TINY_N),
    ] {
        let line = format!(
            "{{\"op\":\"load\",\"name\":\"{name}\",\"family\":\"{family}\",\"n\":{n},\"seed\":{}}}",
            rng.below(1 << 32)
        );
        let started = Instant::now();
        let reply = admin
            .request(&line)
            .map_err(|e| format!("load {name}: {e}"))?;
        load_ms += started.elapsed().as_secs_f64() * 1e3;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("load {name} failed: {reply}"));
        }
    }
    let mut warm = BTreeMap::new();
    for s in HOT_SEEDS {
        let reply = admin
            .request(&detect_line("hot", HOT_DETECTOR, s))
            .map_err(|e| format!("warm-up: {e}"))?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("warm-up detect failed: {reply}"));
        }
        warm.insert(s, reply);
    }
    Ok(Running {
        thread,
        addr,
        admin,
        warm,
        load_ms,
    })
}

/// Shuts the server down over `admin`, its last open connection, and
/// joins its thread.
fn stop(thread: JoinHandle<std::io::Result<()>>, mut admin: Client) -> Result<(), String> {
    let reply = admin
        .request("{\"op\":\"shutdown\"}")
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(admin);
    thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    if reply.starts_with("{\"ok\":true") {
        Ok(())
    } else {
        Err(format!("shutdown refused: {reply}"))
    }
}

/// Runs one batch on every loader concurrently, one thread each: the
/// mixed batch, or `REPLAY_BATCH` `hot` duplicates.
fn batch(loaders: &mut [Loader], warm: &BTreeMap<u64, String>, replay_only: bool) {
    std::thread::scope(|scope| {
        for loader in loaders.iter_mut() {
            scope.spawn(move || {
                if replay_only {
                    for _ in 0..REPLAY_BATCH {
                        loader.hot(warm);
                    }
                } else {
                    loader.mixed_batch(warm);
                }
            });
        }
    });
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let clients = ctx.nproc.min(2);

    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut running = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = running.take() {
            let Running { thread, admin, .. } = previous;
            if let Err(msg) = stop(thread, admin) {
                report.violations.push(msg);
                return report;
            }
        }
        let started = Instant::now();
        match start(&ctx.work.join(format!("store-{i}")), ctx.seed) {
            Ok(r) => {
                setup_s.push(started.elapsed().as_secs_f64());
                load_ms.push(r.load_ms);
                running = Some(r);
            }
            Err(msg) => {
                report.violations.push(msg);
                return report;
            }
        }
    }
    let Running {
        thread,
        addr,
        admin,
        warm,
        ..
    } = running.expect("at least one set-up");

    // The set-up connection is the first client, so the load never
    // holds more connections than `clients`.
    let mut loaders: Vec<Loader> = Vec::new();
    let mut admin = Some(admin);
    for c in 0..clients {
        let client = match admin.take() {
            Some(client) => Ok(client),
            None => Client::connect(addr),
        };
        match client {
            Ok(client) => loaders.push(Loader {
                client,
                rng: SplitMix::new(ctx.seed.wrapping_mul(31).wrapping_add(c as u64 + 1)),
                next_seed: ((c as u64 + 1) << 44) + SplitMix::new(ctx.seed).below(1 << 40),
                inserted: Vec::new(),
                samples: Vec::new(),
                hot_sent: 0,
                failed: 0,
                attempted: 0,
                mismatches: Vec::new(),
            }),
            Err(err) => report.violations.push(format!("client connect: {err}")),
        }
    }
    let metrics_before = loaders[0]
        .client
        .request("{\"op\":\"metrics\"}")
        .unwrap_or_default();

    let mut mixed_s = Vec::new();
    let mut replay_s = Vec::new();
    let counters_before = Counters::now();
    ctx.start_measuring();
    // After the minimum passes, a pass starts only if the passes so far
    // say it ends by the deadline.
    let mut pass_s = Vec::new();
    while mixed_s.len() < ctx.min_passes() || ctx.fits(median(&pass_s)) {
        let _recorder = ctx.recorder_for_pass(mixed_s.len());
        let warm = &warm;
        let (_, mixed) = ctx
            .spans
            .time(0, "pass", String::new, |_| batch(&mut loaders, warm, false));
        let (_, replay) = ctx.spans.time(0, "pass.replay", String::new, |_| {
            batch(&mut loaders, warm, true)
        });
        mixed_s.push(mixed.as_secs_f64());
        replay_s.push(replay.as_secs_f64());
        pass_s.push((mixed + replay).as_secs_f64());
    }
    let measured_s = mixed_s.iter().chain(&replay_s).sum::<f64>();
    let mut counters = DeltaSum::default();
    counters.add(&counters_before, &Counters::now(), SIM_COUNTERS);

    let metrics_after = loaders[0]
        .client
        .request("{\"op\":\"metrics\"}")
        .unwrap_or_default();
    let stats = loaders[0]
        .client
        .request("{\"op\":\"stats\"}")
        .unwrap_or_default();
    let mut samples: Vec<(Kind, f64)> = Vec::new();
    let mut hot_sent = 0;
    // Every other connection closes before the first one asks for
    // shutdown: the server joins its connection threads on the way out.
    for loader in loaders.drain(..).rev() {
        report.attempted += loader.attempted;
        report.failed += loader.failed;
        report.violations.extend(loader.mismatches);
        hot_sent += loader.hot_sent;
        samples.extend(loader.samples);
        admin = Some(loader.client);
    }
    if let Err(msg) = stop(thread, admin.expect("at least one client")) {
        report.violations.push(msg);
    }

    // `stats`: the hot snapshot's replays must be exactly the duplicates
    // sent to it (its warm-up detects executed in set-up).
    let hot_at = stats.find("\"name\":\"hot\"");
    let hot_replayed = hot_at.and_then(|at| field_u64(&stats, "replayed", at));
    if hot_replayed != Some(hot_sent) {
        report.violations.push(format!(
            "stats shows {hot_replayed:?} replays on hot; {hot_sent} duplicates were sent"
        ));
    }

    let of = |kind: Option<Kind>| -> Vec<f64> {
        samples
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, ms)| *ms)
            .collect()
    };
    let all = of(None);
    report.e2e("setup_s", iq_mean(&setup_s));
    report.e2e("wall_s", iq_mean(&mixed_s));
    report.e2e("replay_s", iq_mean(&replay_s));
    report.e2e("p50_ms", quantile(&all, 0.5));
    report.e2e("p99_ms", quantile(&all, 0.99));
    report.e2e("ops_per_s", all.len() as f64 / measured_s);
    report.note(format!(
        "serve-mixed: {} pass(es), {clients} closed-loop client(s); p50/p99 over {} request(s)",
        mixed_s.len(),
        all.len()
    ));

    if ctx.trace {
        let (exec, replays, updates) = (
            of(Some(Kind::Exec)),
            of(Some(Kind::Replay)),
            of(Some(Kind::Update)),
        );
        let server_ns =
            |m: &str| exposition_value(m, "even_cycle_serve_op_ns_detect_sum").unwrap_or(0);
        let server_count =
            |m: &str| exposition_value(m, "even_cycle_serve_op_ns_detect_count").unwrap_or(0);
        let server_ms =
            server_ns(&metrics_after).saturating_sub(server_ns(&metrics_before)) as f64 / 1e6;
        let server_detects =
            server_count(&metrics_after).saturating_sub(server_count(&metrics_before));
        let client_detect_ms: f64 = exec.iter().chain(&replays).sum();
        let mut detects = 0;
        let mut replayed = 0;
        let mut at = 0;
        while let Some(found) = stats[at..].find("\"detects\":") {
            at += found;
            detects += field_u64(&stats, "detects", at).unwrap_or(0);
            replayed += field_u64(&stats, "replayed", at).unwrap_or(0);
            at += 1;
        }
        let passes = mixed_s.len() as f64;
        report.layer("graph.build_ms", median(&load_ms));
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
            "sim.pool.wakes",
            counters.get("sim.pool.wakes") as f64 / passes,
        );
        report.layer(
            "sim.pool.spawns",
            counters.get("sim.pool.spawns") as f64 / passes,
        );
        report.layer("detect.calls", server_detects as f64 / passes);
        report.layer("serve.detect_exec_p50_ms", quantile(&exec, 0.5));
        report.layer("serve.detect_exec_p99_ms", quantile(&exec, 0.99));
        report.layer("serve.detect_replay_p50_ms", quantile(&replays, 0.5));
        report.layer("serve.detect_replay_p99_ms", quantile(&replays, 0.99));
        report.layer("serve.update_p50_ms", quantile(&updates, 0.5));
        report.layer("serve.update_p99_ms", quantile(&updates, 0.99));
        report.layer(
            "serve.server_detect_ms",
            server_ms / server_detects.max(1) as f64,
        );
        report.layer(
            "serve.protocol_overhead_ms",
            (client_detect_ms - server_ms) / (exec.len() + replays.len()).max(1) as f64,
        );
        report.layer(
            "serve.replay_share",
            replayed as f64 / detects.max(1) as f64,
        );
        report.layer("telemetry.overhead_frac", overhead_frac(&mixed_s));
    }
    report
}
