//! `sim-year` and `sim-faulted`: closed loops of monitoring-period
//! simulations over distinct-seed copies of the paper's network
//! (1,200 sensors in a 100 m field, K = 4, Appro).
//!
//! `sim-year` runs the sync engine for one simulated year with every
//! injection layer off. `sim-faulted` runs the async engine for a short
//! period with all five injection layers on (charger faults, lossy
//! request channel, noisy telemetry, sensor churn, finite charger
//! energy), at rates where each of them fires and the network survives.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use wrsn_core::{Appro, ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};
use wrsn_net::{Network, NetworkBuilder};
use wrsn_sim::{AsyncSimulation, SimConfig, SimReport, Simulation};

use crate::common::{
    mean, ms, percentile, ratio, tail_percentile, unit_seed, ApproStats, Budget, Fnv, Phase,
};
use crate::host::Busy;
use crate::trace::{SpanTree, Tracer};

pub const SENSORS: usize = 1_200;
pub const CHARGERS: usize = 4;
pub const YEAR_DAYS: f64 = 365.0;
pub const FAULTED_DAYS: f64 = 14.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Year,
    Faulted,
}

impl Mode {
    pub fn days(self) -> f64 {
        match self {
            Mode::Year => YEAR_DAYS,
            Mode::Faulted => FAULTED_DAYS,
        }
    }
}

pub fn network(seed: u64, i: usize) -> Network {
    NetworkBuilder::new(SENSORS)
        .seed(unit_seed(seed, i))
        .build()
}

/// The simulation configuration of repetition `i`.
pub fn config(mode: Mode, seed: u64, i: usize) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.horizon_s = mode.days() * 86_400.0;
    if mode == Mode::Faulted {
        let s = unit_seed(seed ^ 0x5eed_fa17, i);
        cfg.fault.charger_mtbf_s = 30.0 * 86_400.0;
        cfg.fault.travel_jitter = 0.2;
        cfg.fault.seed = s;
        cfg.channel.loss_prob = 0.1;
        cfg.channel.duplicate_prob = 0.05;
        cfg.channel.seed = s.wrapping_add(1);
        cfg.telemetry.noise = 0.05;
        cfg.telemetry.report_interval_s = 600.0 * 60.0;
        cfg.telemetry.seed = s.wrapping_add(2);
        cfg.churn.sensor_mtbf_s = 1_000.0 * 86_400.0;
        cfg.churn.seed = s.wrapping_add(3);
        cfg.energy.capacity_j = 60_000.0;
        cfg.energy.travel_j_per_m = 10.0;
        cfg.energy.recharge_w = 2_000.0;
        cfg.energy.rescue = true;
    }
    cfg
}

enum Engine {
    Sync(Box<Simulation>),
    Async(Box<AsyncSimulation>),
}

impl Engine {
    fn run(self, planner: &dyn Planner) -> Result<SimReport, PlanError> {
        match self {
            Engine::Sync(sim) => sim.run(planner, CHARGERS),
            Engine::Async(sim) => sim.run(planner, CHARGERS),
        }
    }
}

/// Planner of the traced run: Appro through `plan_detailed`, one span
/// and one timing sample per call.
struct SimProbe<'a> {
    appro: Appro,
    tracer: &'a Tracer,
    parent: Cell<u64>,
    req: Cell<u64>,
    calls: RefCell<Calls>,
}

#[derive(Default)]
struct Calls {
    ms: Vec<f64>,
    targets: Vec<f64>,
    appro: ApproStats,
}

impl Planner for SimProbe<'_> {
    fn name(&self) -> &'static str {
        "Appro"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let t0 = Busy::now();
        let report = self.appro.plan_detailed(problem)?;
        let t1 = Busy::now();
        self.tracer
            .record_interval("sim.plan", self.parent.get(), self.req.get(), t0, t1);
        let mut calls = self.calls.borrow_mut();
        calls.ms.push((t1 - t0).as_secs_f64() * 1e3);
        calls.targets.push(problem.len() as f64);
        calls.appro.note(
            report.mis.len(),
            report.core.len(),
            report.inserted,
            report.skipped,
        );
        Ok(report.schedule)
    }
}

/// `SimReport` counts summed over the traced repetitions.
const REPORT_COUNTS: [&str; 6] = [
    "sim.rounds",
    "sim.telemetry_reports",
    "sim.routing_repairs",
    "sim.charger_failures",
    "sim.lost_requests",
    "sim.depot_recharges",
];

fn report_counts(r: &SimReport) -> [f64; 6] {
    [
        r.rounds_dispatched() as f64,
        r.telemetry_reports as f64,
        r.routing_repairs as f64,
        r.charger_failures as f64,
        r.lost_requests as f64,
        r.depot_recharges as f64,
    ]
}

fn audit(r: &SimReport) -> Result<(), String> {
    if let Some(failure) = r.audit_failure() {
        return Err(failure);
    }
    if !r.service_reconciles() || !r.energy_reconciles() || !r.charger_energy_reconciles() {
        return Err("a ledger does not reconcile".into());
    }
    if r.interrupted {
        return Err("run interrupted".into());
    }
    Ok(())
}

pub fn run(mode: Mode, seed: u64, budget: Budget, tracer: &Tracer) -> Phase {
    let appro = Appro::new(PlannerConfig::default());
    let probe = SimProbe {
        appro: appro.clone(),
        tracer,
        parent: Cell::new(0),
        req: Cell::new(0),
        calls: RefCell::new(Calls::default()),
    };
    let planner: &dyn Planner = if tracer.is_on() { &probe } else { &appro };
    let mut phase = Phase::default();
    let mut digest = Fnv::default();
    let mut counts = [0.0; 6];
    let mut reps = 0usize;
    let started = Instant::now();
    let mut i = 0;
    while budget.more(started, i) {
        phase.sample_host();
        let req = i as u64;
        let cfg = config(mode, seed, i);
        let t0 = Busy::now();
        tracer.span("sim.unit", 0, req, |unit| {
            let net = tracer.span("net.build", unit, req, |_| network(seed, i));
            if i < budget.min_units {
                digest.network(&net);
                digest.u64(cfg.fault.seed);
            }
            let engine = tracer.span("setup.rest", unit, req, |_| match mode {
                Mode::Year => Simulation::new(net, cfg).map(|s| Engine::Sync(Box::new(s))),
                Mode::Faulted => AsyncSimulation::new(net, cfg).map(|s| Engine::Async(Box::new(s))),
            });
            phase.setup_s.push(t0.elapsed().as_secs_f64());
            let engine = match engine {
                Ok(e) => e,
                Err(e) => return phase.check(false, || format!("repetition {i}: {e}")),
            };
            let t1 = Busy::now();
            let report = tracer.span("sim.run", unit, req, |run| {
                probe.parent.set(run);
                probe.req.set(req);
                engine.run(planner)
            });
            phase.latency_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            match report
                .map_err(|e| e.to_string())
                .and_then(|r| audit(&r).map(|()| r))
            {
                Ok(r) => {
                    phase.check(true, String::new);
                    phase.objective.push(r.avg_longest_delay_s());
                    reps += 1;
                    for (acc, c) in counts.iter_mut().zip(report_counts(&r)) {
                        *acc += c;
                    }
                }
                Err(e) => phase.check(false, || format!("repetition {i}: {e}")),
            }
        });
        phase.units.push((mode.days(), t0.elapsed().as_secs_f64()));
        i += 1;
        phase.unit_done(i, budget);
    }
    phase.digest = digest.0;
    for (name, c) in REPORT_COUNTS.iter().zip(counts) {
        phase.counts.insert(name, c);
    }
    if tracer.is_on() {
        let reps = reps.max(1) as f64;
        let tree = SpanTree::new(tracer.take());
        let calls = probe.calls.into_inner();
        phase.layers = layer_metrics(&tree, &calls, reps);
        for (name, c) in REPORT_COUNTS.iter().zip(counts) {
            phase.layers.insert(name, c / reps);
        }
        phase.tree = Some(tree);
    }
    phase
}

fn layer_metrics(tree: &SpanTree, calls: &Calls, reps: f64) -> BTreeMap<&'static str, f64> {
    let own = tree.self_by_name();
    let per_rep = |name: &str| ms(own.get(name).copied().unwrap_or(0)) / reps;
    let runs: Vec<&crate::trace::Span> =
        tree.spans.iter().filter(|s| s.name == "sim.run").collect();
    let run_ms: f64 = runs.iter().map(|s| ms(s.dur_ns())).sum();
    let plan_ms: f64 = calls.ms.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("net.build_ms", per_rep("net.build"));
    m.insert("setup.rest_ms", per_rep("setup.rest"));
    m.insert("sim.plan_calls", calls.ms.len() as f64 / reps);
    m.insert("sim.plan_ms_p50", percentile(&calls.ms, 50.0));
    m.insert(
        "sim.plan_ms_slow",
        percentile(&calls.ms, tail_percentile(calls.ms.len())),
    );
    m.insert("sim.plan_share", ratio(plan_ms, run_ms));
    m.insert("sim.targets_per_plan", mean(&calls.targets));
    m.insert("sim.engine_self_s", (run_ms - plan_ms) / 1e3 / reps);
    m.insert("core.appro.plan_ms", mean(&calls.ms));
    calls.appro.metrics(&mut m);
    m.insert("trace.blocking_ms", tree.median_blocking_ms("sim.run"));
    m.insert("trace.spans", tree.spans.len() as f64);
    m
}
