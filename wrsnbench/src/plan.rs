//! `plan-sharded`: a closed loop over distinct-seed instances planned by
//! Appro inside a two-shard `ShardedPlanner`.
//!
//! An instance is the request set an 8,000-sensor network accumulates
//! over a 5-day dispatch period after its first threshold crossing, as
//! `wrsn plan` builds it (about 2,400 requests). The network-level
//! context is past the dense limit (sparse backend); the problem's and
//! each shard's contexts fit under it (dense backend). A unit is one
//! instance: set-up (network, context, problem), then the timed request
//! from posed problem to certified schedule.
//!
//! The shards are planned one at a time: `ShardedPlanner` still runs them
//! on its worker threads, but the inner planner takes a lock first. On a
//! two-vCPU host whose second CPU comes and goes, concurrent shards made
//! the plan latency follow the host (it moved by 23 % between run sets
//! while single-threaded workloads moved by 2 %); serialized, it follows
//! the code. The price: a change that only balances or overlaps the
//! shards better shows in `core.shard.imbalance`, not end to end.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use wrsn_algo::{ktour, maximal_independent_set};
use wrsn_core::{
    conflict, validate_schedule, Appro, ChargingParams, ChargingProblem, ChargingTarget, PlanError,
    Planner, PlannerConfig, ProblemContext, Schedule, ShardAudit, ShardedPlanner,
};
use wrsn_geom::{DistanceMatrix, Metric, Point, Rect};
use wrsn_net::{Network, NetworkBuilder, SensorId, DEFAULT_REQUEST_FRACTION};
use wrsn_sim::Simulation;

use crate::common::{mean, ms, unit_seed, ApproStats, Budget, Fnv, Phase};
use crate::host::Busy;
use crate::trace::{SpanTree, Tracer};

pub const SENSORS: usize = 8_000;
/// `shard_scaling`'s density: 600 sensors per 100 m × 100 m.
pub const FIELD_M: f64 = 365.148_371_670_110_7; // sqrt(8000 / 0.06)
pub const CHARGERS: usize = 8;
pub const SHARDS: usize = 2;

/// Dispatch period whose requests make up an instance, seconds.
pub const PERIOD_S: f64 = 5.0 * 86_400.0;

/// The network of unit `i`, drained through the dispatch period, and
/// its requesting sensors.
pub fn network(seed: u64, i: usize) -> (Network, Vec<SensorId>) {
    let mut net = NetworkBuilder::new(SENSORS)
        .seed(unit_seed(seed, i))
        .field(Rect::square(FIELD_M))
        .build();
    let requests = Simulation::warm_up_period(&mut net, DEFAULT_REQUEST_FRACTION, PERIOD_S);
    (net, requests)
}

/// What one shard's Appro run produced, kept for the off-path replay.
struct ShardRun {
    depot: Point,
    targets: Vec<ChargingTarget>,
    k: usize,
    mis: Vec<usize>,
    core: Vec<usize>,
    inserted: usize,
    skipped: usize,
    plan_ns: u64,
}

/// Inner planner of the traced run: times `Appro::plan_detailed` per
/// shard and keeps its artifacts for the replay.
struct ShardProbe<'a> {
    appro: Appro,
    tracer: &'a Tracer,
    parent: u64,
    req: u64,
    runs: Mutex<Vec<ShardRun>>,
}

impl Planner for ShardProbe<'_> {
    fn name(&self) -> &'static str {
        "Appro"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let t0 = Busy::now();
        let report = self.appro.plan_detailed(problem)?;
        let t1 = Busy::now();
        self.tracer
            .record_interval("core.appro.plan", self.parent, self.req, t0, t1);
        self.runs
            .lock()
            .expect("shard log poisoned")
            .push(ShardRun {
                depot: problem.depot(),
                targets: problem.targets().to_vec(),
                k: problem.charger_count(),
                mis: report.mis,
                core: report.core,
                inserted: report.inserted,
                skipped: report.skipped,
                plan_ns: (t1 - t0).as_nanos() as u64,
            });
        Ok(report.schedule)
    }
}

/// Lets one shard plan at a time (see the module docs).
struct OneAtATime<P> {
    inner: P,
    turn: Mutex<()>,
}

impl<P> OneAtATime<P> {
    fn new(inner: P) -> Self {
        OneAtATime {
            inner,
            turn: Mutex::new(()),
        }
    }
}

impl<P: Planner> Planner for OneAtATime<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let _turn = self.turn.lock().expect("shard turn poisoned");
        self.inner.plan(problem)
    }
}

/// Distance matrix that counts its lookups.
struct Counting<'a> {
    inner: &'a DistanceMatrix,
    lookups: Cell<u64>,
}

impl Metric for Counting<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.at(i, j)
    }
}

/// Per-layer totals accumulated over the traced phase's plans.
#[derive(Default)]
struct Layers {
    plans: usize,
    cached_rows: f64,
    submatrix_bytes: f64,
    dist_lookups: f64,
    appro: ApproStats,
    appro_ns: u64,
    imbalance: Vec<f64>,
    reconcile_fixes: f64,
}

pub fn run(seed: u64, budget: Budget, tracer: &Tracer) -> Phase {
    let params = ChargingParams::default();
    let config = PlannerConfig::default();
    let mut phase = Phase::default();
    let mut layers = Layers::default();
    let mut digest = Fnv::default();
    let started = Instant::now();
    let mut i = 0;
    while budget.more(started, i) {
        phase.sample_host();
        let req = i as u64;
        let t0 = Busy::now();
        tracer.span("plan.unit", 0, req, |unit| {
            let (net, requests) = tracer.span("net.build", unit, req, |_| network(seed, i));
            let problem = tracer.span("setup.rest", unit, req, |_| {
                let ctx = ProblemContext::for_network(&net, params);
                ChargingProblem::from_network_in_context(&ctx, &net, &requests, CHARGERS, params)
                    .expect("generated instance is valid")
            });
            phase.setup_s.push(t0.elapsed().as_secs_f64());
            if i < budget.min_units {
                digest.network(&net);
            }
            drop(net);

            let t1 = Busy::now();
            let (planned, runs) = tracer.span("plan.request", unit, req, |request| {
                let (planned, runs) = tracer.span("core.shard.plan", request, req, |shard| {
                    if tracer.is_on() {
                        let probe = ShardProbe {
                            appro: Appro::new(config),
                            tracer,
                            parent: shard,
                            req,
                            runs: Mutex::new(Vec::new()),
                        };
                        let planner = ShardedPlanner::new(OneAtATime::new(probe), SHARDS);
                        let planned = planner.plan_with_audit(&problem);
                        let runs = std::mem::take(
                            &mut *planner
                                .inner()
                                .inner
                                .runs
                                .lock()
                                .expect("shard log poisoned"),
                        );
                        (planned, runs)
                    } else {
                        let planner =
                            ShardedPlanner::new(OneAtATime::new(Appro::new(config)), SHARDS);
                        (planner.plan_with_audit(&problem), Vec::new())
                    }
                });
                let planned = planned.map(|(schedule, audit)| {
                    let certified = tracer.span("core.schedule.certify", request, req, |_| {
                        schedule.certify(&problem).map_err(|e| e.to_string())
                    });
                    let validated = tracer.span("core.validate", request, req, |_| {
                        validate_schedule(&problem, &schedule)
                            .map_err(|v| format!("{} violations", v.len()))
                    });
                    (schedule, audit, certified.and(validated))
                });
                (planned, runs)
            });
            phase.latency_ms.push(t1.elapsed().as_secs_f64() * 1e3);

            match planned {
                Ok((schedule, audit, checked)) => {
                    let audited = audit.partitioned_targets() == problem.len()
                        && audit.planned_sojourns() == schedule.sojourn_count();
                    phase.check(checked.is_ok() && audited, || {
                        format!("plan {i}: {:?}, audit ok {audited}", checked.err())
                    });
                    phase.objective.push(schedule.longest_delay_s());
                    if tracer.is_on() {
                        layers.plans += 1;
                        layers.cached_rows += problem.context().cached_rows() as f64;
                        layers.reconcile_fixes += audit.reconcile_fixes as f64;
                        note_shards(&mut layers, &runs, &audit);
                        tracer.span("replay", unit, req, |replay| {
                            for run in &runs {
                                let ok = replay_appro(
                                    run,
                                    &config,
                                    params,
                                    tracer,
                                    replay,
                                    req,
                                    &mut layers,
                                );
                                phase.check(ok, || {
                                    format!("plan {i}: replay diverged from plan_detailed")
                                });
                            }
                        });
                    }
                }
                Err(e) => phase.check(false, || format!("plan {i}: {e}")),
            }
        });
        phase.units.push((1.0, t0.elapsed().as_secs_f64()));
        i += 1;
        phase.unit_done(i, budget);
    }
    phase.digest = digest.0;
    if tracer.is_on() {
        let tree = SpanTree::new(tracer.take());
        phase.layers = layer_metrics(&tree, &layers);
        phase.tree = Some(tree);
    }
    phase
}

fn note_shards(layers: &mut Layers, runs: &[ShardRun], audit: &ShardAudit) {
    let times: Vec<f64> = runs.iter().map(|r| r.plan_ns as f64).collect();
    if !times.is_empty() && audit.shards.len() == runs.len() {
        let avg = mean(&times);
        layers
            .imbalance
            .push(times.iter().copied().fold(0.0, f64::max) / avg);
    }
    for r in runs {
        layers.appro_ns += r.plan_ns;
        layers
            .appro
            .note(r.mis.len(), r.core.len(), r.inserted, r.skipped);
    }
}

/// Replays Appro's first five steps on a cold twin of one shard's
/// sub-instance, each in its own span, and checks that `S_I` and `V'_H`
/// equal what `plan_detailed` computed.
fn replay_appro(
    run: &ShardRun,
    config: &PlannerConfig,
    params: ChargingParams,
    tracer: &Tracer,
    parent: u64,
    req: u64,
    layers: &mut Layers,
) -> bool {
    let twin = tracer.span("core.problem.build", parent, req, |_| {
        ChargingProblem::new(run.depot, run.targets.clone(), run.k, params)
    });
    let Ok(twin) = twin else { return false };
    let gc = tracer.span("core.context.build", parent, req, |_| {
        twin.context().charging_graph()
    });
    let s_i = tracer.span("algo.mis", parent, req, |_| {
        maximal_independent_set(gc, config.mis_order)
    });
    let h = tracer.span("core.conflict.graph", parent, req, |_| {
        conflict::build_conflict_graph(&twin, &s_i)
    });
    let core_local = tracer.span("algo.mis", parent, req, |_| {
        maximal_independent_set(&h, config.mis_order)
    });
    let core: Vec<usize> = core_local.iter().map(|&i| s_i[i]).collect();
    let sub = tracer.span("core.context.submatrix", parent, req, |_| {
        twin.context().travel_time_matrix_for(&core)
    });
    let Ok(sub) = sub else { return false };
    let depot: Vec<f64> = core.iter().map(|&a| twin.depot_travel_time(a)).collect();
    let service: Vec<f64> = core.iter().map(|&a| twin.tau(a)).collect();
    let counting = Counting {
        inner: &sub,
        lookups: Cell::new(0),
    };
    let sol = tracer.span("algo.ktour", parent, req, |_| {
        ktour::min_max_ktours_with_matrix(&counting, &depot, &service, run.k, config.tsp_passes)
    });
    layers.submatrix_bytes += (core.len() * core.len() * 8) as f64;
    layers.dist_lookups += counting.lookups.get() as f64;
    std::hint::black_box(sol);
    s_i == run.mis && core == run.core
}

/// Span names of the replayed steps that `plan_detailed` repeats.
const REPLAYED_STEPS: [&str; 5] = [
    "core.context.build",
    "algo.mis",
    "core.conflict.graph",
    "core.context.submatrix",
    "algo.ktour",
];

fn layer_metrics(tree: &SpanTree, layers: &Layers) -> BTreeMap<&'static str, f64> {
    let own = tree.self_by_name();
    let plans = layers.plans.max(1) as f64;
    let per_plan = |name: &str| ms(own.get(name).copied().unwrap_or(0)) / plans;
    let shard_spans: Vec<&crate::trace::Span> = tree
        .spans
        .iter()
        .filter(|s| s.name == "core.shard.plan")
        .collect();
    let shard_total: u64 = shard_spans.iter().map(|s| s.dur_ns()).sum();
    let shard_self: u64 = shard_spans.iter().map(|s| tree.self_of(s.id)).sum();
    let mut m = BTreeMap::new();
    m.insert("net.build_ms", per_plan("net.build"));
    m.insert("setup.rest_ms", per_plan("setup.rest"));
    m.insert("core.problem.build_ms", per_plan("core.problem.build"));
    m.insert("core.context.build_ms", per_plan("core.context.build"));
    m.insert(
        "core.context.submatrix_ms",
        per_plan("core.context.submatrix"),
    );
    m.insert(
        "core.context.submatrix_bytes",
        layers.submatrix_bytes / plans,
    );
    m.insert("core.context.cached_rows", layers.cached_rows / plans);
    m.insert("algo.mis_ms", per_plan("algo.mis"));
    m.insert("core.conflict.graph_ms", per_plan("core.conflict.graph"));
    m.insert("algo.ktour_ms", per_plan("algo.ktour"));
    m.insert("algo.tsp.dist_lookups", layers.dist_lookups / plans);
    m.insert("core.appro.plan_ms", ms(layers.appro_ns) / plans);
    // Every replayed step after the twin's construction is work
    // plan_detailed also does; the rest of it is the insertion phase.
    let replayed: f64 = REPLAYED_STEPS.iter().map(|&step| per_plan(step)).sum();
    m.insert(
        "core.appro.insert_ms",
        (ms(layers.appro_ns) / plans - replayed).max(0.0),
    );
    layers.appro.metrics(&mut m);
    m.insert("core.shard.plan_ms", ms(shard_total) / plans);
    m.insert("core.shard.self_ms", ms(shard_self) / plans);
    m.insert("core.shard.imbalance", mean(&layers.imbalance));
    m.insert("core.shard.reconcile_fixes", layers.reconcile_fixes / plans);
    m.insert(
        "core.schedule.certify_ms",
        per_plan("core.schedule.certify"),
    );
    m.insert("core.validate_ms", per_plan("core.validate"));
    m.insert("trace.blocking_ms", tree.median_blocking_ms("plan.request"));
    m.insert("trace.spans", tree.spans.len() as f64);
    m
}
