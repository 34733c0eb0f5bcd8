//! The `serve-mix` workload: what callers of the `sfc-serve` daemon see.
//!
//! An in-process `Server` on a fresh cache directory, `batch_workers: 1`,
//! answers two closed-loop client threads — each sends its next request
//! only once the previous answer is back — through `Server::handle_line`.
//! Each client pass is 100 seeded requests:
//!
//! * 94 `run` requests for a Zipf-skewed hot set of scale-4/5 specs (every
//!   artifact kind but extensions, four fixed seeds), prefilled at set-up.
//!   The memory tier's budget is half the hot set's bytes, so both memory
//!   hits and verified disk hits occur;
//! * 3 `run` misses on fresh seeds (Table I/II at scale 4: FFI-bound
//!   computations that store and evict beside the reads);
//! * 2 four-item `batch` requests, two hot hits and two fresh misses each;
//! * 1 `stats` or `metrics` request.
//!
//! Every hit payload must be byte-identical to the first payload served for
//! its key, the hot set must match its recorded digests, and a sample of
//! misses is recomputed with `sfc_serve::compute_artifact` after the
//! measured loop.

use crate::trace::Tracer;
use crate::{median, median_setup, tail, Args, Outcome};
use serde_json::{json, ToJson, Value};
use sfc_core::sha256::sha256_hex;
use sfc_core::{ArtifactKind, ExperimentSpec};
use sfc_serve::{compute_artifact, Server, ServerOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const HOT_ARTIFACTS: [&str; 6] = ["table1", "table2", "fig5", "fig6", "fig7", "parametric"];
const HOT_SCALES: [u32; 2] = [4, 5];
const HOT_SEEDS: [u64; 4] = [1, 2, 3, 4];
const FORMATS: [&str; 3] = ["plain", "markdown", "json"];
/// Zipf exponent of hot-set popularity; rank order is fixed, so only the
/// sampled sequence depends on the seed.
const ZIPF_S: f64 = 1.5;
const CLIENTS: usize = 2;
const PASS_HITS: usize = 94;
const PASS_MISSES: usize = 3;
const PASS_BATCHES: usize = 2;
const MISS_ARTIFACTS: [&str; 2] = ["table1", "table2"];
const MISS_SCALE: u32 = 4;
/// Set-ups timed per run; the last one serves the measured loop.
const SETUPS: usize = 3;
/// Misses recomputed with `compute_artifact` after the loop.
const MISS_SAMPLES: usize = 8;

/// Hot-set member `i`, in fixed popularity order (artifact varies
/// fastest, so every kind is near the head).
fn hot(i: usize) -> (&'static str, u32, u64) {
    let a = HOT_ARTIFACTS.len();
    let s = HOT_SCALES.len();
    (
        HOT_ARTIFACTS[i % a],
        HOT_SCALES[(i / a) % s],
        HOT_SEEDS[i / (a * s)],
    )
}

const HOT_LEN: usize = HOT_ARTIFACTS.len() * HOT_SCALES.len() * HOT_SEEDS.len();

fn hot_name(i: usize, fmt: &str) -> String {
    let (artifact, scale, seed) = hot(i);
    format!("{artifact}/s{scale}/seed{seed}/{fmt}")
}

fn run_item(artifact: &str, scale: u32, seed: u64, fmt: &str) -> String {
    format!(
        r#"{{"artifact":"{artifact}","scale":{scale},"trials":1,"seed":{seed},"format":"{fmt}"}}"#
    )
}

fn run_line(artifact: &str, scale: u32, seed: u64, fmt: &str) -> String {
    let item = run_item(artifact, scale, seed, fmt);
    format!(r#"{{"op":"run",{}"#, &item[1..])
}

/// splitmix64: a small, seedable generator for the request script.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Batch,
    Admin,
}

/// One request of a client's script.
enum Req {
    Hit {
        hot: usize,
        fmt: usize,
    },
    Miss {
        artifact: &'static str,
        seed: u64,
        fmt: usize,
    },
    Batch {
        hits: [(usize, usize); 2],
        misses: [(&'static str, u64, usize); 2],
    },
    Stats,
    Metrics,
}

impl Req {
    fn line(&self) -> String {
        match self {
            Req::Hit { hot: i, fmt } => {
                let (a, s, seed) = hot(*i);
                run_line(a, s, seed, FORMATS[*fmt])
            }
            Req::Miss {
                artifact,
                seed,
                fmt,
            } => run_line(artifact, MISS_SCALE, *seed, FORMATS[*fmt]),
            Req::Batch { hits, misses } => {
                let mut items: Vec<String> = hits
                    .iter()
                    .map(|&(i, f)| {
                        let (a, s, seed) = hot(i);
                        run_item(a, s, seed, FORMATS[f])
                    })
                    .collect();
                items.extend(
                    misses
                        .iter()
                        .map(|&(a, seed, f)| run_item(a, MISS_SCALE, seed, FORMATS[f])),
                );
                format!(r#"{{"op":"batch","items":[{}]}}"#, items.join(","))
            }
            Req::Stats => r#"{"op":"stats"}"#.to_string(),
            Req::Metrics => r#"{"op":"metrics"}"#.to_string(),
        }
    }
}

/// Cumulative Zipf weights over the hot set.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (0..HOT_LEN)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

/// The seeded script of one client pass: a fixed mix, shuffled. Fresh
/// miss seeds are unique within the run and disjoint from the hot seeds.
fn script(run_seed: u64, pass: usize, client: usize, cdf: &[f64]) -> Vec<Req> {
    let mut rng = Rng::new(run_seed ^ ((pass as u64) << 20) ^ ((client as u64) << 52));
    let mut fresh =
        1_000_000 + (run_seed % 1_000_000) * 100_000 + ((pass * CLIENTS + client) * 8) as u64;
    let mut next_miss = |rng: &mut Rng| {
        fresh += 1;
        (
            MISS_ARTIFACTS[rng.below(MISS_ARTIFACTS.len())],
            fresh,
            rng.below(FORMATS.len()),
        )
    };
    let draw = |rng: &mut Rng| {
        let u = rng.unit();
        (
            cdf.partition_point(|&c| c < u).min(HOT_LEN - 1),
            rng.below(FORMATS.len()),
        )
    };
    let mut reqs = Vec::with_capacity(100);
    for _ in 0..PASS_HITS {
        let (hot, fmt) = draw(&mut rng);
        reqs.push(Req::Hit { hot, fmt });
    }
    for _ in 0..PASS_MISSES {
        let (artifact, seed, fmt) = next_miss(&mut rng);
        reqs.push(Req::Miss {
            artifact,
            seed,
            fmt,
        });
    }
    for _ in 0..PASS_BATCHES {
        let hits = [draw(&mut rng), draw(&mut rng)];
        let misses = [next_miss(&mut rng), next_miss(&mut rng)];
        reqs.push(Req::Batch { hits, misses });
    }
    reqs.push(if (pass + client).is_multiple_of(2) {
        Req::Stats
    } else {
        Req::Metrics
    });
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.below(i + 1));
    }
    reqs
}

/// What one answered request looked like to its client.
struct Obs {
    class: Class,
    latency: Duration,
    ok: bool,
}

/// A miss kept for recomputation after the loop.
struct MissSample {
    artifact: String,
    seed: u64,
    fmt: String,
    payload: String,
}

/// State the two clients share: the first payload served per
/// (key, format), mismatches, and the sampled misses.
struct Shared {
    first: Mutex<HashMap<(String, String), String>>,
    mismatches: Mutex<Vec<String>>,
    samples: Mutex<Vec<MissSample>>,
    misses_seen: AtomicUsize,
}

impl Shared {
    /// Check one run-shaped response document: `ok`, and a hit payload
    /// equal to the first one served for its key.
    fn check_run(
        &self,
        doc: &Value,
        fmt: &str,
        miss_seed: Option<(&str, u64)>,
    ) -> (bool, Option<bool>) {
        if doc["ok"].as_bool() != Some(true) {
            return (false, None);
        }
        let hit = doc["hit"].as_bool() == Some(true);
        let (Some(key), Some(payload)) = (doc["key"].as_str(), doc["payload"].as_str()) else {
            self.fail("run response without key or payload".into());
            return (false, Some(hit));
        };
        let mut first = self.first.lock().expect("payload map poisoned");
        match first.get(&(key.to_string(), fmt.to_string())) {
            Some(want) if want != payload => {
                self.fail(format!("payload of {key}/{fmt} changed between answers"))
            }
            Some(_) => {}
            None => {
                if hit {
                    self.fail(format!("hit on {key}/{fmt} that was never served before"));
                }
                first.insert((key.to_string(), fmt.to_string()), payload.to_string());
            }
        }
        drop(first);
        if let (false, Some((artifact, seed))) = (hit, miss_seed) {
            if self
                .misses_seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(16)
            {
                let mut samples = self.samples.lock().expect("miss samples poisoned");
                if samples.len() < MISS_SAMPLES {
                    samples.push(MissSample {
                        artifact: artifact.to_string(),
                        seed,
                        fmt: fmt.to_string(),
                        payload: payload.to_string(),
                    });
                }
            }
        }
        (true, Some(hit))
    }

    fn fail(&self, what: String) {
        self.mismatches
            .lock()
            .expect("mismatch list poisoned")
            .push(what);
    }
}

/// One client's pass through its script.
fn client_pass(
    server: &Server,
    reqs: &[Req],
    shared: &Shared,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Vec<Obs> {
    let mut obs = Vec::with_capacity(reqs.len());
    for req in reqs {
        let line = req.line();
        let mut items: Vec<String> = Vec::new();
        let t0 = Instant::now();
        let resp = server.handle_line_with(&line, &mut |doc| {
            items.push(serde_json::to_string(doc).expect("serialize batch item"));
        });
        let t1 = Instant::now();
        let text = serde_json::to_string(&resp.doc).expect("serialize response");
        let t2 = Instant::now();
        std::hint::black_box(&text);
        let (class, ok) = match req {
            Req::Hit { fmt, .. } => {
                let (ok, hit) = shared.check_run(&resp.doc, FORMATS[*fmt], None);
                if hit == Some(false) {
                    shared.fail(format!("hot-set request missed the cache: {line}"));
                }
                (Class::Hit, ok && hit == Some(true))
            }
            Req::Miss {
                artifact,
                seed,
                fmt,
            } => {
                let (ok, hit) = shared.check_run(&resp.doc, FORMATS[*fmt], Some((artifact, *seed)));
                if hit == Some(true) {
                    shared.fail(format!("fresh seed {seed} hit the cache"));
                }
                (Class::Miss, ok && hit == Some(false))
            }
            Req::Batch { hits, misses } => {
                let mut ok = resp.doc["ok"].as_bool() == Some(true) && items.len() == 4;
                for text in &items {
                    let doc: Value = serde_json::from_str(text).expect("batch item lines are JSON");
                    let index = doc["index"].as_u64().unwrap_or(u64::MAX) as usize;
                    let (fmt, miss) = match index {
                        0 | 1 => (FORMATS[hits[index].1], None),
                        2 | 3 => {
                            let (a, seed, f) = misses[index - 2];
                            (FORMATS[f], Some((a, seed)))
                        }
                        _ => {
                            ok = false;
                            continue;
                        }
                    };
                    let (item_ok, hit) = shared.check_run(&doc, fmt, miss);
                    ok &= item_ok && hit == Some(miss.is_none());
                }
                (Class::Batch, ok)
            }
            Req::Stats | Req::Metrics => {
                let field = if matches!(req, Req::Stats) {
                    "stats"
                } else {
                    "metrics"
                };
                let ok = resp.doc["ok"].as_bool() == Some(true) && !resp.doc[field].is_null();
                (Class::Admin, ok)
            }
        };
        if let Some(tracer) = tracer {
            let layer = match class {
                Class::Hit => "serve.hit",
                Class::Miss => "serve.compute",
                Class::Batch => "serve.batch",
                Class::Admin => "serve.admin",
            };
            tracer.record(layer, parent, t0, t1);
            if matches!(class, Class::Hit | Class::Miss) {
                tracer.record("serve.serialize", parent, t1, t2);
            }
        }
        obs.push(Obs {
            class,
            latency: t2 - t0,
            ok,
        });
    }
    obs
}

/// Server options of the measured daemon.
fn options(cache_mem_bytes: u64) -> ServerOptions {
    ServerOptions {
        cache_mem_bytes,
        batch_workers: 1,
        ..ServerOptions::default()
    }
}

/// What one set-up leaves behind.
struct Setup {
    /// The measured daemon.
    server: Server,
    /// The first payload served per hot (key, format).
    first: HashMap<(String, String), String>,
    /// sha256 of every hot payload, in `hot_name` order.
    digests: Vec<String>,
    /// Bytes the hot set takes in the memory tier.
    hot_bytes: u64,
}

/// The measured set-up: a server that computes the hot set into a fresh
/// cache directory, then the serving daemon on that directory with a
/// memory tier of half the hot set's bytes.
fn setup(dir: &Path) -> std::io::Result<Setup> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let path = dir.to_str().expect("work directory is UTF-8");
    let filler = Server::new(path, options(1 << 30))?;
    let mut first = HashMap::new();
    let mut digests = Vec::with_capacity(HOT_LEN * FORMATS.len());
    for i in 0..HOT_LEN {
        let (artifact, scale, seed) = hot(i);
        for fmt in FORMATS {
            let resp = filler.handle_line(&run_line(artifact, scale, seed, fmt));
            let (Some(key), Some(payload)) =
                (resp.doc["key"].as_str(), resp.doc["payload"].as_str())
            else {
                digests.push(String::new());
                continue;
            };
            digests.push(sha256_hex(payload.as_bytes()));
            first.insert((key.to_string(), fmt.to_string()), payload.to_string());
        }
    }
    let hot_bytes = filler.stats_response().mem_bytes;
    drop(filler);
    Ok(Setup {
        server: Server::new(path, options(hot_bytes / 2))?,
        first,
        digests,
        hot_bytes,
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = args
        .work_dir
        .join(format!("serve-mix-{}", std::process::id()));
    let result = run_in(args, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        eprintln!("error: serve-mix: {e}");
        std::process::exit(1);
    }
    out
}

fn run_in(args: &Args, dir: &Path, out: &mut Outcome) -> std::io::Result<()> {
    let mut n = 0;
    let (setup_s, last) = median_setup(SETUPS, Duration::ZERO, || {
        n += 1;
        setup(&dir.join(format!("setup-{n}")))
    });
    out.set("setup_s", setup_s);
    let Setup {
        server,
        first,
        digests,
        hot_bytes,
    } = last?;
    let refs = crate::sweeps::reference();
    let want = &refs["serve-mix"]["hot_sha256"];
    let names: Vec<String> = (0..HOT_LEN)
        .flat_map(|i| FORMATS.iter().map(move |f| hot_name(i, f)))
        .collect();
    let bad: Vec<&String> = names
        .iter()
        .zip(&digests)
        .filter(|(name, d)| want[name.as_str()].as_str() != Some(d.as_str()))
        .map(|(name, _)| name)
        .collect();
    out.attempted += digests.len() as u64;
    out.check(
        "hot_set_matches_reference",
        bad.is_empty(),
        format!(
            "{} of {} hot payload(s) differ from the recorded digests",
            bad.len(),
            digests.len()
        ),
    );
    out.note(
        "hot_digests",
        Value::Object(
            names
                .iter()
                .zip(&digests)
                .map(|(n, d)| (n.clone(), d.to_json()))
                .collect(),
        ),
    );

    let shared = Shared {
        first: Mutex::new(first),
        mismatches: Mutex::new(Vec::new()),
        samples: Mutex::new(Vec::new()),
        misses_seen: AtomicUsize::new(0),
    };
    let cdf = zipf_cdf();
    let tracer = Tracer::new();
    let mut all: Vec<Obs> = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let started = Instant::now();
    let mut pass = 0;
    let mut concurrent_clients = 0;
    // At least two passes, so a traced run has one of each kind.
    while pass < 2 || started.elapsed().as_secs_f64() < args.seconds {
        // In a traced run, odd passes are traced and even ones are not, so
        // both see the same evolving cache and the difference is the
        // tracing overhead.
        let traced = args.trace && pass % 2 == 1;
        let scripts: Vec<Vec<Req>> = (0..CLIENTS)
            .map(|c| script(args.seed, pass, c, &cdf))
            .collect();
        let t = Instant::now();
        let results: Vec<(Vec<Obs>, std::thread::ThreadId)> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(c, reqs)| {
                    let (server, shared, tracer) = (&server, &shared, &tracer);
                    let parent = (pass * CLIENTS + c) as u64;
                    scope.spawn(move || {
                        let obs =
                            client_pass(server, reqs, shared, traced.then_some(tracer), parent);
                        (obs, std::thread::current().id())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        let ids: std::collections::HashSet<_> = results.iter().map(|r| r.1).collect();
        concurrent_clients = concurrent_clients.max(ids.len());
        for (obs, _) in results {
            all.extend(obs);
        }
        pass += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Recompute the sampled misses outside the measured loop.
    let samples = std::mem::take(&mut *shared.samples.lock().expect("miss samples poisoned"));
    let mut sample_bad = 0;
    for s in &samples {
        let kind = ArtifactKind::parse(&s.artifact).expect("miss artifacts are known kinds");
        let (artifact, _) =
            compute_artifact(&ExperimentSpec::for_artifact(kind, MISS_SCALE, 1, s.seed));
        let want = match s.fmt.as_str() {
            "plain" => &artifact.stdout_plain,
            "markdown" => &artifact.stdout_markdown,
            _ => &artifact.artifact_json,
        };
        if *want != s.payload {
            sample_bad += 1;
        }
    }
    out.attempted += samples.len() as u64;
    out.check(
        "sampled_misses_match_compute_artifact",
        sample_bad == 0 && !samples.is_empty(),
        format!("{sample_bad} of {} sampled miss(es) differ", samples.len()),
    );
    let mismatches = shared
        .mismatches
        .lock()
        .expect("mismatch list poisoned")
        .clone();
    out.check(
        "payloads_consistent",
        mismatches.is_empty(),
        mismatches
            .first()
            .cloned()
            .unwrap_or_else(|| "every hit repeated its first payload".into()),
    );

    let not_ok = all.iter().filter(|o| !o.ok).count() as u64;
    out.attempted += all.len() as u64;
    out.failed += not_ok;
    let ms = |class: Option<Class>| -> Vec<f64> {
        all.iter()
            .filter(|o| class.is_none_or(|c| o.class == c))
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let (every, hits, misses, batches) = (
        ms(None),
        ms(Some(Class::Hit)),
        ms(Some(Class::Miss)),
        ms(Some(Class::Batch)),
    );
    let (tail_all, p_all, n_all) = tail(&every);
    let (tail_miss, p_miss, n_miss) = tail(&misses);
    let (tail_hit, p_hit, n_hit) = tail(&hits);
    out.set("wall_s", median(&walls));
    out.set("req_per_s", all.len() as f64 / elapsed);
    out.set("p50_ms", median(&every));
    out.set("tail_ms", tail_all);
    out.set("miss_p50_ms", median(&misses));
    out.set("miss_tail_ms", tail_miss);
    out.set("client.hit_p50_ms", median(&hits));
    out.set("client.hit_tail_ms", tail_hit);
    out.set("client.batch_p50_ms", median(&batches));
    out.note(
        "latency",
        json!({
            "all": json!({"samples": n_all as u64, "tail_percentile": p_all}),
            "hit": json!({"samples": n_hit as u64, "tail_percentile": p_hit}),
            "miss": json!({"samples": n_miss as u64, "tail_percentile": p_miss}),
            "batch": json!({"samples": batches.len() as u64}),
        }),
    );

    let stats = server.stats_response();
    let phase = |name: &str| -> f64 {
        stats
            .phases_ms
            .iter()
            .filter(|(p, _)| p == name)
            .map(|(_, ms)| ms / 1e3)
            .sum()
    };
    let us = |layer: &str, scale: f64| -> f64 {
        let d: Vec<f64> = tracer
            .durations(layer)
            .iter()
            .map(|d| d.as_secs_f64() * scale)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    if args.trace {
        out.set("serve.hit_us_p50", us("serve.hit", 1e6));
        out.set("serve.serialize_us_p50", us("serve.serialize", 1e6));
        out.set("serve.compute_ms_p50", us("serve.compute", 1e3));
        out.set("serve.metrics_us_p50", us("serve.admin", 1e6));
        let untraced = median(&walls);
        out.set(
            "trace.overhead_frac",
            (median(&traced_walls) - untraced) / untraced,
        );
    }
    out.set("serve.requests", stats.requests as f64);
    out.set("serve.computations", stats.computations as f64);
    out.set("serve.deduped", stats.deduped as f64);
    out.set("serve.errors", stats.errors as f64);
    for (metric, name) in [
        ("serve.phase.sample_s", "sample"),
        ("serve.phase.assign_s", "assign"),
        ("serve.phase.index_s", "index"),
        ("serve.phase.nfi_s", "nfi"),
        ("serve.phase.ffi_s", "ffi"),
        ("serve.phase.anns_s", "anns"),
    ] {
        out.set(metric, phase(name));
    }
    out.set("cache.mem_hits", stats.mem_hits as f64);
    out.set("cache.disk_hits", stats.disk_hits as f64);
    out.set("cache.mem_evictions", stats.mem_evictions as f64);
    out.set(
        "cache.mem_hit_ratio",
        stats.mem_hits as f64 / stats.runs.max(1) as f64,
    );
    out.set("cache.hit_ratio", stats.hit_rate);
    out.check(
        "both_cache_tiers_hit",
        stats.mem_hits > 0 && stats.disk_hits > 0,
        format!("mem_hits {} disk_hits {}", stats.mem_hits, stats.disk_hits),
    );

    out.note("passes", (pass as u64).to_json());
    out.note("concurrent_clients", (concurrent_clients as u64).to_json());
    out.note("batch_workers", 1u64.to_json());
    out.note(
        "hot_set",
        json!({"specs": HOT_LEN as u64, "bytes": hot_bytes, "cache_mem_bytes": hot_bytes / 2}),
    );
    if args.trace {
        let path: PathBuf = args
            .work_dir
            .join("traces")
            .join(format!("serve-mix-{}.jsonl", args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("# could not write {}: {e}", path.display());
        }
    }
    Ok(())
}
