//! The repository benchmark: three workloads driven through the public API
//! of the workspace crates, each checked for correct output.
//!
//! ```text
//! sfc-perfbench --workload <tables-paper|radius-sweep|serve-mix>
//!               --seed N --seconds S --trace <0|1> [--work-dir DIR]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it times every call into each layer from this crate and
//! reports the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run record (what actually ran, host caches, observed digests).

mod serve_mix;
mod sweeps;
mod trace;

use serde_json::{json, Map, ToJson, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Default workload seed: the paper's publication date, as the
/// regeneration binaries use.
pub const DEFAULT_SEED: u64 = 20130701;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// the workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ffi.busy_s", "s"),
    ("ffi.calls", "count"),
    ("ffi.interp_comms", "count"),
    ("ffi.anterp_comms", "count"),
    ("ffi.ilist_comms", "count"),
    ("ffi.ilist_candidates", "count"),
    ("ffi.ilist_hit_ratio", "ratio"),
    ("ffi.ns_per_comm", "ns"),
    ("ffi.wall_share", "ratio"),
    ("nfi.busy_s", "s"),
    ("nfi.calls", "count"),
    ("nfi.candidates", "count"),
    ("nfi.comms", "count"),
    ("nfi.remote_comms", "count"),
    ("nfi.hit_ratio", "ratio"),
    ("nfi.ns_per_candidate", "ns"),
    ("machine.build_s", "s"),
    ("machine.builds", "count"),
    ("machine.oracle_builds", "count"),
    ("machine.oracle_bytes", "bytes"),
    ("assignment.build_s", "s"),
    ("assignment.builds", "count"),
    ("assignment.dense_grids", "count"),
    ("assignment.grid_bytes", "bytes"),
    ("index.build_s", "s"),
    ("index.cells", "count"),
    ("particles.sample_s", "s"),
    ("particles.count", "count"),
    ("runner.self_s", "s"),
    ("serve.hit_us_p50", "us"),
    ("serve.serialize_us_p50", "us"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.metrics_us_p50", "us"),
    ("serve.requests", "count"),
    ("serve.computations", "count"),
    ("serve.deduped", "count"),
    ("serve.errors", "count"),
    ("serve.phase.sample_s", "s"),
    ("serve.phase.assign_s", "s"),
    ("serve.phase.index_s", "s"),
    ("serve.phase.nfi_s", "s"),
    ("serve.phase.ffi_s", "s"),
    ("serve.phase.anns_s", "s"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.mem_evictions", "count"),
    ("cache.mem_hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("client.hit_p50_ms", "ms"),
    ("client.hit_tail_ms", "ms"),
    ("client.batch_p50_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one workload run produced: operation counts, named checks,
/// metric values, and the run record.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub record: Map,
}

impl Outcome {
    /// Record a correctness check; a failed check counts as one failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        let (name, detail) = (name.into(), detail.into());
        if !ok {
            eprintln!("# check FAILED: {name}: {detail}");
            self.failed += 1;
        }
        self.checks.push((name, ok, detail));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.record.insert(key, value);
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that leaves at
/// least ten samples above it, or the maximum when the sample has ten or
/// fewer. Returns `(value, percentile, n)`.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    if n > 10 {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
    } else {
        (v[n - 1], 100.0, n)
    }
}

/// Time `samples` batches of calls to `f` and return the median per-call
/// time in seconds plus the value of the last call. A batch repeats `f`
/// until at least `batch` has elapsed, so a set-up step of microseconds is
/// averaged over many calls while one of seconds is timed once per sample.
pub fn median_setup<T>(samples: usize, batch: Duration, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed() < batch {
            last = Some(std::hint::black_box(f()));
            calls += 1;
        }
        times.push(start.elapsed().as_secs_f64() / f64::from(calls));
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts the results depend on: usable cores and the CPU caches.
fn host_record() -> Value {
    let mut caches = Map::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind != "Instruction" {
            caches.insert(format!("l{level}"), size.to_json());
        }
    }
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "caches": Value::Object(caches),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "tables-paper" => sweeps::run(sweeps::Sweep::Tables, &args),
        "radius-sweep" => sweeps::run(sweeps::Sweep::Radius, &args),
        "serve-mix" => serve_mix::run(&args),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    out.set("peak_rss_mib", peak_rss_mib());
    out.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Map::new();
    for &(name, unit) in declared {
        // A per-layer metric the workload never touched is honestly 0; an
        // end-to-end metric must always have been measured.
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        metrics.insert(name, json!({"value": value, "unit": unit}));
    }

    let checks: Vec<Value> = out
        .checks
        .iter()
        .map(|(name, ok, detail)| json!({"check": name, "ok": *ok, "detail": detail}))
        .collect();
    out.note("workload", args.workload.to_json());
    out.note("seed", args.seed.to_json());
    out.note("trace", args.trace.to_json());
    out.note("host", host_record());
    out.note("checks", Value::Array(checks));
    let record = json!({"run_record": Value::Object(out.record)});
    println!(
        "{}",
        serde_json::to_string(&record).expect("serialize run record")
    );

    let correct = out.failed == 0 && out.checks.iter().all(|c| c.1);
    let result = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialize result")
    );
}
