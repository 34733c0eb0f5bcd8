//! The two sweep workloads.
//!
//! * `tables-paper` — the paper's Table I/II experiment at its own size
//!   (`ExperimentSpec::table1` at scale 0: n = 250,000 on 1024², 65,536
//!   torus ranks, radius-1 Chebyshev, 3 distributions × 4 particle curves
//!   × 4 processor-curve machines), computed through
//!   `sfc_bench::artifact::compute`.
//! * `radius-sweep` — the Section VI-C radius study through
//!   `sfc_bench::figures::run_radius_sweep` on the uniform Table workload,
//!   radii {1, 2, 4, 6, 8}, tied curves, on a 4,096-rank torus: the largest
//!   machine whose hop-distance oracle is still built.
//!
//! Both run on a `SweepRunner` at one job. With tracing on, the sweep is
//! replayed cell by cell from this crate — the same cells on the same
//! runner — with every call into a layer timed, and the replay's values
//! must equal the untraced artifact's.

use crate::trace::Tracer;
use crate::{median, median_setup, tail, Args, Outcome, DEFAULT_SEED};
use serde_json::{json, ToJson, Value};
use sfc_bench::artifact::{compute, ComputeOpts};
use sfc_bench::figures::run_radius_sweep;
use sfc_bench::results::{grid_data, tables_data};
use sfc_bench::tables::CurvePairGrid;
use sfc_core::ffi::{ffi_acd_with_tree, FfiResult, OwnerTree};
use sfc_core::nfi::{nfi_acd, NfiResult};
use sfc_core::runner::{BatchCell, RunnerOptions, SweepRunner};
use sfc_core::sha256::sha256_hex;
use sfc_core::{Assignment, ExperimentSpec, Machine, Stats};
use sfc_curves::point::Norm;
use sfc_curves::{CurveKind, Point2};
use sfc_particles::DistributionKind;
use sfc_quadtree::cell::Cell;
use sfc_quadtree::interaction::interaction_list;
use sfc_topology::TopologyKind;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Ranks of the radius-sweep torus: 4,096² `u16` hops is the 32 MiB
/// oracle, the largest the program builds.
const RADIUS_PROCS: u64 = 4096;

/// Scale of the reduced-size reference every run checks, whatever its
/// seed (4³ = 64× fewer particles than the paper).
const SMALL_SCALE: u32 = 3;

/// Length of one timed batch of set-ups. The set-up takes about a
/// microsecond, and on a shared host the speed of such short loops can
/// shift by 1.5× between sub-second epochs, so each sample averages over
/// several.
const SETUP_BATCH: Duration = Duration::from_millis(100);

/// Recorded outputs: artifact digests and exact work totals at the
/// default and one held-out seed, the reduced-size digests, and the
/// serve-mix hot set's payload digests.
const REFERENCE: &str = include_str!("../reference.json");

pub fn reference() -> Value {
    serde_json::from_str(REFERENCE).expect("perfbench/reference.json is valid JSON")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    Tables,
    Radius,
}

impl Sweep {
    fn name(self) -> &'static str {
        match self {
            Sweep::Tables => "tables-paper",
            Sweep::Radius => "radius-sweep",
        }
    }

    /// The sweep's spec at `scale` (0 = the paper's size).
    fn spec(self, scale: u32, seed: u64) -> ExperimentSpec {
        match self {
            Sweep::Tables => ExperimentSpec::table1(scale, 1, seed),
            Sweep::Radius => {
                let mut spec = ExperimentSpec::parametric(scale, 1, seed);
                spec.distributions = vec![DistributionKind::Uniform.default_params()];
                spec.processors = vec![RADIUS_PROCS >> (2 * scale)];
                spec
            }
        }
    }
}

/// The measured set-up: spec construction and validation, then a
/// one-job runner.
fn setup(sweep: Sweep, scale: u32, seed: u64) -> (ExperimentSpec, SweepRunner) {
    let spec = sweep.spec(scale, seed);
    spec.validate().expect("the benchmark's specs are valid");
    (spec, one_job_runner(sweep.name()))
}

fn one_job_runner(name: &str) -> SweepRunner {
    let mut opts = RunnerOptions::new();
    opts.jobs = 1;
    SweepRunner::new(name, &Value::Null, opts).expect("a runner without a journal cannot fail")
}

/// One computed artifact: the rendered body, the JSON `data` section, and
/// the runner's cell accounting.
struct Artifact {
    body: String,
    data: Value,
    cells: u64,
    bad_cells: u64,
}

impl Artifact {
    fn digest(&self) -> String {
        let data = serde_json::to_string(&self.data).expect("serialize artifact data");
        sha256_hex(format!("{}\n{data}", self.body).as_bytes())
    }
}

/// The untraced path: the program's own sweep code.
fn compute_artifact(sweep: Sweep, spec: &ExperimentSpec, mut runner: SweepRunner) -> Artifact {
    let (body, data) = match sweep {
        Sweep::Tables => {
            let out = compute(spec, &ComputeOpts::default(), &mut runner);
            (out.body_plain, out.data)
        }
        Sweep::Radius => {
            let table = run_radius_sweep(spec, &ComputeOpts::default(), &mut runner);
            (table.render(), tables_data(&[table]))
        }
    };
    let summary = runner.finish();
    Artifact {
        body,
        data,
        cells: (summary.computed + summary.failed.len() + summary.skipped.len()) as u64,
        bad_cells: (summary.failed.len() + summary.skipped.len()) as u64,
    }
}

pub fn run(sweep: Sweep, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let refs = reference();
    let refs = &refs[sweep.name()];
    let seed_ref = &refs["seeds"][args.seed.to_string().as_str()];

    let (setup_s, first) = median_setup(9, SETUP_BATCH, || setup(sweep, 0, args.seed));
    out.set("setup_s", setup_s);

    // Measure: whole computations until the run length is spent.
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut next = Some(first);
    let artifact = loop {
        let (spec, runner) = next.take().unwrap_or_else(|| setup(sweep, 0, args.seed));
        let t = Instant::now();
        let a = compute_artifact(sweep, &spec, runner);
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += a.cells;
        out.failed += a.bad_cells;
        digests.push(a.digest());
        // Start another computation only if it should end within the run
        // length. A traced run compares one untraced computation with its
        // replay.
        let wall = walls[walls.len() - 1];
        if args.trace || started.elapsed().as_secs_f64() + wall > args.seconds {
            break a;
        }
    };
    let spec = sweep.spec(0, args.seed);
    let wall = median(&walls);
    out.set("wall_s", wall);
    out.set("req_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let (tail_ms, tail_p, n) = tail(&ms);
    out.set("p50_ms", median(&ms));
    out.set("tail_ms", tail_ms);
    out.set("miss_p50_ms", median(&ms));
    out.set("miss_tail_ms", tail_ms);
    out.note(
        "latency",
        json!({"samples": n as u64, "tail_percentile": tail_p, "class": "every request computes"}),
    );
    out.note("compute_walls_s", walls.to_json());
    out.note("artifact_sha256", digests[0].to_json());

    out.check(
        "sweep_complete",
        artifact.bad_cells == 0,
        format!(
            "{} of {} cell(s) failed or skipped",
            artifact.bad_cells, artifact.cells
        ),
    );
    out.check(
        "repeat_computations_identical",
        digests.iter().all(|d| *d == digests[0]),
        format!("{} computation(s)", digests.len()),
    );
    match seed_ref["artifact_sha256"].as_str() {
        Some(want) => out.check(
            "artifact_matches_reference",
            digests[0] == want,
            digests[0].clone(),
        ),
        None => out.note(
            "artifact_reference",
            "none recorded for this seed".to_json(),
        ),
    }
    let small = compute_artifact(
        sweep,
        &sweep.spec(SMALL_SCALE, DEFAULT_SEED),
        one_job_runner("small"),
    );
    out.attempted += small.cells;
    let small_digest = small.digest();
    out.check(
        "small_matches_reference",
        refs["small_sha256"].as_str() == Some(small_digest.as_str()),
        small_digest,
    );
    out.note("runner_jobs", 1u64.to_json());

    if args.trace {
        traced(sweep, &spec, &artifact, wall, seed_ref, args, &mut out);
    } else {
        spot_check(sweep, &spec, &artifact, &mut out);
    }
    out
}

/// Recompute the first cell's NFI values through the layer API and compare
/// them with the untraced artifact — the per-run cross-check at any seed.
/// Its machines and assignment have the sweep's parameters, so they also
/// record which distance and occupancy paths the sweep ran on.
fn spot_check(sweep: Sweep, spec: &ExperimentSpec, artifact: &Artifact, out: &mut Outcome) {
    let workload = spec.workload(spec.distributions[0]);
    let particles = workload.particles(0);
    let curve = spec.particle_curves[0];
    let procs = spec.processors[0];
    let asg = Assignment::new(&particles, workload.grid_order, curve, procs);
    let machines: Vec<Machine> = match sweep {
        Sweep::Tables => spec
            .effective_processor_curves()
            .iter()
            .map(|&c| Machine::new(spec.topologies[0], procs, c))
            .collect(),
        Sweep::Radius => vec![Machine::new(TopologyKind::Torus, procs, curve)],
    };
    let mut work = Work::default();
    work.assignment(&asg);
    machines.iter().for_each(|m| work.machine(m));
    let got: Vec<Option<f64>> = machines
        .iter()
        .map(|m| {
            nfi_acd(&asg, m, spec.radii[0], spec.norm)
                .ok()
                .map(|r| r.acd())
        })
        .collect();
    let ok = match sweep {
        Sweep::Tables => got.iter().enumerate().all(|(ri, &g)| {
            g.is_some() && g == artifact.data[0]["nfi"][ri]["cells"][0]["acd"]["mean"].as_f64()
        }),
        Sweep::Radius => {
            got[0].map(|v| format!("{v:.3}")).as_deref() == artifact.data[0]["rows"][0][1].as_str()
        }
    };
    out.attempted += 1;
    out.check(
        "first_cell_matches_layer_api",
        ok,
        format!("NFI ACDs {got:?}"),
    );
    out.note(
        "paths",
        json!({"machines": work.machine_builds, "oracle_builds": work.oracle_builds, "dense_grids": work.dense_grids}),
    );
    out.note(
        "working_set_bytes",
        json!({"dense_grid": work.grid_bytes, "oracle": work.oracle_bytes}),
    );
}

/// Exact work done by the replay, in the layers' own units.
#[derive(Default)]
struct Work {
    nfi_total_distance: u64,
    nfi_comms: u64,
    nfi_local: u64,
    ffi_total_distance: u64,
    ffi_comms: u64,
    interp: u64,
    anterp: u64,
    ilist: u64,
    machine_builds: u64,
    oracle_builds: u64,
    oracle_bytes: u64,
    asg_builds: u64,
    dense_grids: u64,
    grid_bytes: u64,
    index_cells: u64,
    particles: u64,
    /// NFI calls per (distribution, trial, radius): each scans the same
    /// candidate windows, which are counted after the timed replay.
    nfi_calls: BTreeMap<(usize, u64, u32), u64>,
    /// FFI calls per (distribution, trial): each enumerates the same
    /// interaction lists.
    ffi_calls: BTreeMap<(usize, u64), u64>,
}

impl Work {
    fn machine(&mut self, m: &Machine) {
        self.machine_builds += 1;
        if m.has_oracle() {
            self.oracle_builds += 1;
            self.oracle_bytes = self.oracle_bytes.max(m.num_ranks() * m.num_ranks() * 2);
        }
    }

    fn assignment(&mut self, asg: &Assignment) {
        self.asg_builds += 1;
        if asg.has_dense_grid() {
            self.dense_grids += 1;
            self.grid_bytes = self.grid_bytes.max(asg.dense_grid_bytes() as u64);
        }
    }

    fn index(&mut self, tree: &OwnerTree) {
        self.index_cells += (0..tree.num_levels() as u32)
            .map(|l| tree.level_len(l) as u64)
            .sum::<u64>();
    }

    fn nfi(&mut self, key: (usize, u64, u32), r: &NfiResult) {
        self.nfi_total_distance += r.total_distance;
        self.nfi_comms += r.num_comms;
        self.nfi_local += r.local_comms;
        *self.nfi_calls.entry(key).or_default() += 1;
    }

    fn ffi(&mut self, key: (usize, u64), r: &FfiResult) {
        self.ffi_total_distance += r.total_distance();
        self.ffi_comms += r.num_comms();
        self.interp += r.interp_comms;
        self.anterp += r.anterp_comms;
        self.ilist += r.ilist_comms;
        *self.ffi_calls.entry(key).or_default() += 1;
    }
}

/// Shared state of one traced replay.
struct Replay<'a> {
    spec: &'a ExperimentSpec,
    tracer: Tracer,
    work: Mutex<Work>,
}

impl Replay<'_> {
    fn work(&self) -> std::sync::MutexGuard<'_, Work> {
        self.work
            .lock()
            .expect("work counters poisoned by a panicking cell")
    }

    fn machine(&self, parent: u64, kind: TopologyKind, procs: u64, curve: CurveKind) -> Machine {
        let m = self
            .tracer
            .span("machine", parent, || Machine::new(kind, procs, curve));
        self.work().machine(&m);
        m
    }

    /// Sample (once per trial), assign and — for FFI — index one cell's
    /// particle set.
    fn assign(
        &self,
        id: u64,
        set: &OnceLock<Vec<Point2>>,
        sample: impl FnOnce() -> Vec<Point2>,
        order: u32,
        curve: CurveKind,
    ) -> Assignment {
        let particles = set.get_or_init(|| {
            let p = self.tracer.span("particles", id, sample);
            self.work().particles += p.len() as u64;
            p
        });
        let procs = self.spec.processors[0];
        let asg = self.tracer.span("assignment", id, || {
            Assignment::new(particles, order, curve, procs)
        });
        self.work().assignment(&asg);
        asg
    }

    /// The Table I/II sweep, cell for cell as `run_distribution` lays it
    /// out; returns the artifact's `data` section.
    fn tables(&self, runner: &mut SweepRunner) -> Value {
        let spec = self.spec;
        let procs = spec.processors[0];
        let radius = spec.radii[0];
        let mut grids = Vec::new();
        for (di, &dist) in spec.distributions.iter().enumerate() {
            let workload = spec.workload(dist);
            let machines: Vec<Machine> = spec
                .effective_processor_curves()
                .iter()
                .map(|&c| self.machine(0, spec.topologies[0], procs, c))
                .collect();
            let sets: Vec<OnceLock<Vec<Point2>>> =
                (0..spec.trials).map(|_| OnceLock::new()).collect();
            let mut cells = Vec::new();
            for t in 0..spec.trials {
                for (pi, &curve) in spec.particle_curves.iter().enumerate() {
                    let id = 1 + (di * 1000 + t as usize * 4 + pi) as u64;
                    let (workload, machines, sets) = (&workload, &machines, &sets);
                    let name = format!("{}/t{t}/{}", dist.kind, curve.short_name());
                    cells.push(BatchCell::new(name, move || {
                        let set = &sets[t as usize];
                        let asg = self.assign(
                            id,
                            set,
                            || workload.particles(t),
                            workload.grid_order,
                            curve,
                        );
                        let tree = self.tracer.span("index", id, || OwnerTree::build(&asg));
                        self.work().index(&tree);
                        let mut values = Vec::with_capacity(2 * machines.len());
                        for m in machines {
                            let r = self
                                .tracer
                                .span("nfi", id, || nfi_acd(&asg, m, radius, spec.norm));
                            let r = r.unwrap_or_else(|e| panic!("nfi_acd: {e}"));
                            self.work().nfi((di, t, radius), &r);
                            values.push(r.acd());
                        }
                        for m in machines {
                            let r = self
                                .tracer
                                .span("ffi", id, || ffi_acd_with_tree(&asg, m, &tree));
                            let r = r.unwrap_or_else(|e| panic!("ffi_acd: {e}"));
                            self.work().ffi((di, t), &r);
                            values.push(r.acd());
                        }
                        values
                    }));
                }
            }
            let mut nfi = vec![vec![Vec::new(); 4]; 4];
            let mut ffi = vec![vec![Vec::new(); 4]; 4];
            for (i, result) in runner.run_cells(cells).iter().enumerate() {
                if let Some(v) = result.values() {
                    for ri in 0..4 {
                        nfi[ri][i % 4].push(v[ri]);
                        ffi[ri][i % 4].push(v[4 + ri]);
                    }
                }
            }
            let grid = |s: &Vec<Vec<Vec<f64>>>| -> [[Option<Stats>; 4]; 4] {
                std::array::from_fn(|r| {
                    std::array::from_fn(|p| Stats::try_from_samples(&s[r][p]).ok())
                })
            };
            grids.push(CurvePairGrid {
                distribution: dist.kind,
                nfi: grid(&nfi),
                ffi: grid(&ffi),
            });
        }
        grid_data(&grids)
    }

    /// The radius sweep, cell for cell as `run_radius_sweep` lays it out;
    /// returns the rendered rows.
    fn radius(&self, runner: &mut SweepRunner) -> Value {
        let spec = self.spec;
        let workload = spec.workload(spec.distributions[0]);
        let procs = spec.processors[0];
        let sets: Vec<OnceLock<Vec<Point2>>> = (0..spec.trials).map(|_| OnceLock::new()).collect();
        let mut cells = Vec::new();
        for &radius in &spec.radii {
            for &curve in &spec.particle_curves {
                for t in 0..spec.trials {
                    let id = 1 + cells.len() as u64;
                    let (workload, sets) = (&workload, &sets);
                    let name = format!("r{radius}/{}/t{t}", curve.short_name());
                    cells.push(BatchCell::new(name, move || {
                        let set = &sets[t as usize];
                        let asg = self.assign(
                            id,
                            set,
                            || workload.particles(t),
                            workload.grid_order,
                            curve,
                        );
                        let machine = self.machine(id, TopologyKind::Torus, procs, curve);
                        let r = self
                            .tracer
                            .span("nfi", id, || nfi_acd(&asg, &machine, radius, spec.norm));
                        let r = r.unwrap_or_else(|e| panic!("nfi_acd: {e}"));
                        self.work().nfi((0, t, radius), &r);
                        vec![r.acd()]
                    }));
                }
            }
        }
        let results = runner.run_cells(cells);
        let mut chunks = results.chunks(spec.trials as usize);
        let mut rows = Vec::new();
        for &radius in &spec.radii {
            let mut row = vec![radius.to_string()];
            for _ in &spec.particle_curves {
                let acds: Vec<f64> = chunks
                    .next()
                    .expect("one chunk per (radius, curve)")
                    .iter()
                    .filter_map(|r| r.values().map(|v| v[0]))
                    .collect();
                row.push(match Stats::try_from_samples(&acds) {
                    Ok(s) => format!("{:.3}", s.mean),
                    Err(_) => "—".to_string(),
                });
            }
            rows.push(row);
        }
        rows.to_json()
    }
}

/// NFI candidate cells of one call: every particle's clipped neighborhood
/// window, its own cell excluded — the visit set of `nfi_acd`.
fn nfi_candidates(particles: &[Point2], order: u32, radius: u32, norm: Norm) -> u64 {
    let side = 1i64 << order;
    let r = radius as i64;
    let mut total = 0u64;
    for p in particles {
        let (x, y) = (p.x as i64, p.y as i64);
        for dy in -r..=r {
            if y + dy < 0 || y + dy >= side {
                continue;
            }
            let w = match norm {
                Norm::Chebyshev => r,
                Norm::Manhattan => r - dy.abs(),
            };
            let (lo, hi) = ((x - w).max(0), (x + w).min(side - 1));
            if lo <= hi {
                total += (hi - lo + 1) as u64 - u64::from(dy == 0);
            }
        }
    }
    total
}

/// FFI interaction-list candidates of one call: Σ over occupied cells of
/// levels 2..=k of the interaction-list length — the probes
/// `ffi_acd_with_tree` makes.
fn ffi_candidates(tree: &OwnerTree, order: u32) -> u64 {
    (2..=order)
        .map(|level| {
            tree.level_entries(level)
                .iter()
                .map(|&(code, _)| interaction_list(Cell::from_code(level, code)).len() as u64)
                .sum::<u64>()
        })
        .sum()
}

const LAYERS: [&str; 6] = ["particles", "machine", "assignment", "index", "nfi", "ffi"];

fn traced(
    sweep: Sweep,
    spec: &ExperimentSpec,
    artifact: &Artifact,
    untraced_wall: f64,
    seed_ref: &Value,
    args: &Args,
    out: &mut Outcome,
) {
    let replay = Replay {
        spec,
        tracer: Tracer::new(),
        work: Mutex::new(Work::default()),
    };
    let mut runner = one_job_runner(sweep.name());
    let t = Instant::now();
    let data = match sweep {
        Sweep::Tables => replay.tables(&mut runner),
        Sweep::Radius => replay.radius(&mut runner),
    };
    let wall = t.elapsed().as_secs_f64();
    let summary = runner.finish();
    out.attempted += (summary.computed + summary.failed.len() + summary.skipped.len()) as u64;
    out.failed += (summary.failed.len() + summary.skipped.len()) as u64;

    let want = match sweep {
        Sweep::Tables => artifact.data.clone(),
        Sweep::Radius => artifact.data[0]["rows"].clone(),
    };
    out.check(
        "replay_matches_artifact",
        data == want,
        "traced replay vs untraced artifact data",
    );

    let busy = |layer: &str| -> f64 { replay.tracer.busy(layer).as_secs_f64() };
    let layer_total: f64 = LAYERS.iter().map(|l| busy(l)).sum();
    let runner_self = wall - layer_total;
    out.check(
        "trace_accounts_for_wall",
        runner_self >= 0.0 && runner_self <= 0.25 * wall,
        format!("layers {layer_total:.4} s + runner {runner_self:.4} s = traced wall {wall:.4} s"),
    );

    // Work counts, taken after the timed replay from the same inputs.
    let work = replay
        .work
        .into_inner()
        .expect("work counters poisoned by a panicking cell");
    let mut nfi_candidates_total = 0u64;
    let mut ffi_candidates_total = 0u64;
    for (di, &dist) in spec.distributions.iter().enumerate() {
        let workload = spec.workload(dist);
        for t in 0..spec.trials {
            let particles = workload.particles(t);
            for (&(d, tt, radius), &calls) in &work.nfi_calls {
                if (d, tt) == (di, t) {
                    nfi_candidates_total +=
                        calls * nfi_candidates(&particles, workload.grid_order, radius, spec.norm);
                }
            }
            if let Some(&calls) = work.ffi_calls.get(&(di, t)) {
                let asg = Assignment::new(
                    &particles,
                    workload.grid_order,
                    CurveKind::Hilbert,
                    spec.processors[0],
                );
                ffi_candidates_total +=
                    calls * ffi_candidates(&OwnerTree::build(&asg), workload.grid_order);
            }
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ns_per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let calls = |layer: &str| replay.tracer.calls(layer) as f64;

    out.set("ffi.busy_s", busy("ffi"));
    out.set("ffi.calls", calls("ffi"));
    out.set("ffi.interp_comms", work.interp as f64);
    out.set("ffi.anterp_comms", work.anterp as f64);
    out.set("ffi.ilist_comms", work.ilist as f64);
    out.set("ffi.ilist_candidates", ffi_candidates_total as f64);
    out.set(
        "ffi.ilist_hit_ratio",
        ratio(work.ilist, ffi_candidates_total),
    );
    out.set(
        "ffi.ns_per_comm",
        ns_per(busy("ffi"), work.interp + work.ilist),
    );
    out.set("ffi.wall_share", busy("ffi") / wall);
    out.set("nfi.busy_s", busy("nfi"));
    out.set("nfi.calls", calls("nfi"));
    out.set("nfi.candidates", nfi_candidates_total as f64);
    out.set("nfi.comms", work.nfi_comms as f64);
    out.set("nfi.remote_comms", (work.nfi_comms - work.nfi_local) as f64);
    out.set("nfi.hit_ratio", ratio(work.nfi_comms, nfi_candidates_total));
    out.set(
        "nfi.ns_per_candidate",
        ns_per(busy("nfi"), nfi_candidates_total),
    );
    out.set("machine.build_s", busy("machine"));
    out.set("machine.builds", work.machine_builds as f64);
    out.set("machine.oracle_builds", work.oracle_builds as f64);
    out.set("machine.oracle_bytes", work.oracle_bytes as f64);
    out.set("assignment.build_s", busy("assignment"));
    out.set("assignment.builds", work.asg_builds as f64);
    out.set("assignment.dense_grids", work.dense_grids as f64);
    out.set("assignment.grid_bytes", work.grid_bytes as f64);
    out.set("index.build_s", busy("index"));
    out.set("index.cells", work.index_cells as f64);
    out.set("particles.sample_s", busy("particles"));
    out.set("particles.count", work.particles as f64);
    out.set("runner.self_s", runner_self);
    out.set(
        "trace.overhead_frac",
        (wall - untraced_wall) / untraced_wall,
    );

    let totals = json!({
        "nfi_total_distance": work.nfi_total_distance,
        "nfi_num_comms": work.nfi_comms,
        "ffi_total_distance": work.ffi_total_distance,
        "ffi_num_comms": work.ffi_comms,
    });
    if seed_ref.get("nfi_num_comms").is_some() {
        let matches = [
            "nfi_total_distance",
            "nfi_num_comms",
            "ffi_total_distance",
            "ffi_num_comms",
        ]
        .iter()
        .all(|&k| totals[k].as_u64() == seed_ref[k].as_u64());
        out.check(
            "totals_match_reference",
            matches,
            serde_json::to_string(&totals).expect("serialize totals"),
        );
    }
    out.note("totals", totals);
    out.note("traced_wall_s", wall.to_json());
    out.note("untraced_wall_s", untraced_wall.to_json());
    out.note(
        "working_set_bytes",
        json!({"dense_grid": work.grid_bytes, "oracle": work.oracle_bytes}),
    );
    out.note("layer_threads", (replay.tracer.threads() as u64).to_json());
    let trace_path =
        args.work_dir
            .join("traces")
            .join(format!("{}-{}.jsonl", sweep.name(), args.seed));
    if let Err(e) = replay.tracer.write_jsonl(&trace_path) {
        eprintln!("# could not write {}: {e}", trace_path.display());
    }
}
