//! The worker pool behind the experiment engine: index-addressed jobs
//! pulled from a shared atomic counter by scoped threads.
//!
//! The pool guarantees *positional* determinism, not scheduling
//! determinism: whichever worker ends up computing unit `i`, the result
//! lands in slot `i` of the returned vector. Combined with the
//! [`Detector`](even_cycle::Detector) contract (all randomness derives
//! from the seed), this is what makes a parallel sweep byte-identical
//! to a sequential one.
//!
//! This pool parallelizes *across* work units; the simulator has its
//! own persistent superstep pool (`congest_sim::pool`) parallelizing
//! *inside* one run. [`super::split_thread_budget`] keeps the product
//! of the two within the machine's parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use congest_telemetry as telemetry;

/// Pool telemetry: how much worker capacity a parallel pass used
/// (`busy_ns`) versus left on the table waiting for stragglers or an
/// empty queue (`idle_ns`). `idle / (busy + idle)` is the pool's idle
/// fraction.
struct PoolMetrics {
    busy_ns: Arc<telemetry::Counter>,
    idle_ns: Arc<telemetry::Counter>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::Registry::global();
        PoolMetrics {
            busy_ns: registry.counter("engine.pool.busy_ns"),
            idle_ns: registry.counter("engine.pool.idle_ns"),
        }
    })
}

/// Runs `count` jobs across `workers` threads and returns the results
/// in job-index order. `workers == 1` (or a single job) degenerates to
/// a plain sequential loop on the calling thread.
///
/// Jobs are pulled off a shared counter, so long and short units mix
/// freely across workers (no static sharding imbalance).
///
/// # Panics
///
/// Re-raises any panic from a job on the calling thread.
pub fn run_indexed<T, F>(count: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers > 0, "need at least one worker");
    if workers == 1 || count <= 1 {
        return (0..count).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let spawned = workers.min(count);
    let mut span = telemetry::Span::begin("engine.pool")
        .with("jobs", count)
        .with("workers", spawned);
    let started = Instant::now();
    let mut busy_total_ns = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned)
            .map(|_| {
                let next = &next;
                let job = &job;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut busy_ns = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let job_started = Instant::now();
                        let value = job(i);
                        busy_ns += job_started.elapsed().as_nanos() as u64;
                        mine.push((i, value));
                    }
                    (mine, busy_ns)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((mine, busy_ns)) => {
                    busy_total_ns += busy_ns;
                    for (i, value) in mine {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Idle capacity = worker-seconds held open minus worker-seconds
    // actually inside jobs (join skew on the collecting thread counts
    // as idle, which is what a saturation probe wants to see).
    let wall_ns = started.elapsed().as_nanos() as u64;
    let idle_ns = (wall_ns * spawned as u64).saturating_sub(busy_total_ns);
    pool_metrics().busy_ns.add(busy_total_ns);
    pool_metrics().idle_ns.add(idle_ns);
    span.push("busy_ns", busy_total_ns);
    span.push("idle_ns", idle_ns);
    drop(span);
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed exactly once"))
        .collect()
}

/// Parses an `EVEN_CYCLE_WORKERS` value: a positive integer, with a
/// diagnosable error for everything else (zero would deadlock, and a
/// typo like `"fuor"` must not silently serialize a sweep). This is
/// the same validation path the simulator's `EVEN_CYCLE_SIM_THREADS`
/// (and thus `Backend::parallel`) goes through — one rule for every
/// thread-count knob in the stack.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    congest_sim::backend::parse_thread_count("EVEN_CYCLE_WORKERS", raw)
}

/// The worker-count override the environment asks for: `Ok(Some(w))`
/// when `EVEN_CYCLE_WORKERS` is a positive integer, `Ok(None)` when
/// unset, `Err` when set but unusable. Drivers that should fail fast
/// on a typo (the `sweep` binary) call this directly.
pub fn workers_env_override() -> Result<Option<usize>, String> {
    match std::env::var("EVEN_CYCLE_WORKERS") {
        Ok(raw) => parse_workers(&raw).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("EVEN_CYCLE_WORKERS is not valid unicode".to_string())
        }
    }
}

/// The worker count the environment asks for: `EVEN_CYCLE_WORKERS`
/// when set to a positive integer, else 1 (conservative — parallelism
/// is opt-in so that test and doctest behavior never depends on the
/// host's core count). An invalid value warns on stderr instead of
/// being silently coerced to 1.
pub fn workers_from_env() -> usize {
    match workers_env_override() {
        Ok(Some(w)) => w,
        Ok(None) => 1,
        Err(msg) => {
            eprintln!("warning: {msg}; defaulting to 1 worker");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let out = run_indexed(37, workers, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = run_indexed(3, 0, |i| i);
    }

    #[test]
    fn worker_env_values_parse_or_diagnose() {
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 8 "), Ok(8));
        assert!(parse_workers("0").unwrap_err().contains("positive"));
        assert!(parse_workers("fuor").unwrap_err().contains("\"fuor\""));
        assert!(parse_workers("-2").is_err());
        assert!(parse_workers("").is_err());
    }
}
