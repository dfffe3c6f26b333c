//! `serve-soak`: admissible traffic through the serve engine's wire
//! path, an open loop in service time.
//!
//! A unit is one soak against a fresh engine over a 100,000-sensor
//! network (K = 50, guard armed, WAL and snapshots in a state directory
//! inside the build directory, every other setting at the engine's
//! default). The seeded generator encodes JSON lines that go through
//! `read_bounded_line` → `ServeRequest::parse` → `ServeEngine::submit`;
//! it offers `PER_TICK` requests per service tick for `LOAD_TICKS`
//! back-to-back ticks, checkpoints every `SNAP_EVERY` load ticks, then
//! ticks until every request is charged. Each sensor is drawn at most
//! once per soak and `PER_TICK` stays below `max_batch`, so every offer
//! is admissible and is dispatched by the tick that follows it.
//! `PER_TICK` equals the drift threshold, so every load tick re-plans,
//! and the soak's 480 requests stay under `replan_max_stops`, so every
//! re-plan does work: the median request waits for a re-plan, not for
//! the WAL's flush alone, whose latency follows the disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_core::{Appro, ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};
use wrsn_geom::Rect;
use wrsn_net::{Network, NetworkBuilder};
use wrsn_serve::{
    read_bounded_line, Admission, BoundedLine, GuardConfig, PlannerFactory, ServeConfig,
    ServeEngine, ServeReport, ServeRequest,
};

use crate::common::{mean, ms, ratio, rss_mb, unit_seed, ApproStats, Budget, Fnv, Phase};
use crate::host::Busy;
use crate::trace::{SpanTree, Tracer};

pub const SENSORS: usize = 100_000;
/// `shard_scaling`'s density (0.06 sensors per m²) at 100k sensors.
pub const FIELD_M: f64 = 1_290.994_448_735_805_6;
pub const CHARGERS: usize = 50;
pub const PER_TICK: usize = 48;
pub const LOAD_TICKS: usize = 10;
pub const SNAP_EVERY: usize = 5;
/// Deficits as a fraction of capacity, drawn uniformly.
pub const DEFICIT: (f64, f64) = (0.05, 0.15);
const MAX_LINE_BYTES: usize = 4_096;
const MAX_DRAIN_TICKS: usize = 2_000_000;

pub fn config() -> ServeConfig {
    ServeConfig {
        k: CHARGERS,
        guard: GuardConfig {
            rate_per_s: 0.01,
            burst: 2.0,
            replay_window_s: 60.0,
            replay_limit: 2,
            deficit_margin: 1.0,
            ..GuardConfig::default()
        },
        ..ServeConfig::default()
    }
}

pub fn network(seed: u64, i: usize) -> Network {
    NetworkBuilder::new(SENSORS)
        .seed(unit_seed(seed, i))
        .field(Rect::square(FIELD_M))
        .build()
}

/// The soak's request lines, one batch per load tick: distinct sensors
/// (a partial Fisher–Yates shuffle) with deficits encoded in joules.
pub fn traffic(seed: u64, i: usize, net: &Network) -> Vec<String> {
    let mut rng = ChaCha12Rng::seed_from_u64(unit_seed(seed ^ 0x7261_6666_6963, i));
    let mut ids: Vec<u32> = (0..net.sensors().len() as u32).collect();
    let offered = PER_TICK * LOAD_TICKS;
    (0..offered)
        .map(|j| {
            let pick = rng.gen_range(j..ids.len());
            ids.swap(j, pick);
            let sensor = ids[j];
            let fraction = rng.gen_range(DEFICIT.0..=DEFICIT.1);
            let deficit = fraction * net.sensors()[sensor as usize].capacity_j;
            ServeRequest {
                sensor,
                deficit_j: Some(deficit),
            }
            .to_json_line()
        })
        .collect()
}

/// Appro with a span and a timing sample per full re-plan.
struct ReplanProbe {
    appro: Appro,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicU64>,
    log: Arc<Mutex<Replans>>,
}

#[derive(Default)]
struct Replans {
    ms: Vec<f64>,
    appro: ApproStats,
}

impl Planner for ReplanProbe {
    fn name(&self) -> &'static str {
        "Appro"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let t0 = Busy::now();
        let report = self.appro.plan_detailed(problem)?;
        let t1 = Busy::now();
        self.tracer.record_interval(
            "serve.replan",
            self.parent.load(Ordering::Relaxed),
            0,
            t0,
            t1,
        );
        let mut log = self.log.lock().expect("replan log poisoned");
        log.ms.push((t1 - t0).as_secs_f64() * 1e3);
        log.appro.note(
            report.mis.len(),
            report.core.len(),
            report.inserted,
            report.skipped,
        );
        Ok(report.schedule)
    }
}

/// Per-soak totals of the traced phase.
#[derive(Default)]
struct Totals {
    soaks: f64,
    load_ticks: f64,
    snapshot_ticks: f64,
    drain_ticks: f64,
    rss_growth_mb: f64,
    counts: BTreeMap<&'static str, f64>,
}

/// A fresh state directory for one soak's WAL and snapshot.
fn state_dir(root: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join(format!("serve-state-{}-{n}", std::process::id()))
}

pub fn run(seed: u64, budget: Budget, tracer: &Arc<Tracer>, out: &Path) -> Phase {
    let current_tick = Arc::new(AtomicU64::new(0));
    let replans = Arc::new(Mutex::new(Replans::default()));
    let factory: Arc<PlannerFactory> = if tracer.is_on() {
        let (tracer, parent, log) = (
            Arc::clone(tracer),
            Arc::clone(&current_tick),
            Arc::clone(&replans),
        );
        Arc::new(move || {
            Box::new(ReplanProbe {
                appro: Appro::new(PlannerConfig::default()),
                tracer: Arc::clone(&tracer),
                parent: Arc::clone(&parent),
                log: Arc::clone(&log),
            })
        })
    } else {
        Arc::new(|| Box::new(Appro::new(PlannerConfig::default())))
    };
    let mut soaks = Soaks {
        seed,
        budget,
        factory,
        tracer,
        current_tick,
        phase: Phase::default(),
        totals: Totals::default(),
        digest: Fnv::default(),
    };
    let started = Instant::now();
    let mut i = 0;
    while budget.more(started, i) {
        soaks.phase.sample_host();
        let dir = state_dir(out);
        let soak = tracer.span("serve.unit", 0, i as u64, |unit| soaks.soak(i, &dir, unit));
        if let Err(e) = soak {
            soaks.phase.check(false, || format!("soak {i}: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        i += 1;
        soaks.phase.unit_done(i, budget);
    }
    let Soaks {
        mut phase,
        totals,
        digest,
        ..
    } = soaks;
    phase.digest = digest.0;
    phase.counts.clone_from(&totals.counts);
    if tracer.is_on() {
        let tree = SpanTree::new(tracer.take());
        let log = std::mem::take(&mut *replans.lock().expect("replan log poisoned"));
        phase.layers = layer_metrics(&tree, &totals, &log);
        phase.tree = Some(tree);
    }
    phase
}

/// State shared by the soaks of one phase.
struct Soaks<'a> {
    seed: u64,
    budget: Budget,
    factory: Arc<PlannerFactory>,
    tracer: &'a Tracer,
    /// Span id of the tick in progress, the parent of its re-plan span.
    current_tick: Arc<AtomicU64>,
    phase: Phase,
    totals: Totals,
    digest: Fnv,
}

impl Soaks<'_> {
    /// Soak `i`: set-up, load phase, drain, shutdown and audit.
    fn soak(&mut self, i: usize, dir: &Path, unit: u64) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let (tracer, req) = (self.tracer, i as u64);
        let t0 = Busy::now();
        let net = tracer.span("net.build", unit, req, |_| network(self.seed, i));
        // The generator is the client: its work is not set-up.
        let gen_t = Busy::now();
        let lines = traffic(self.seed, i, &net);
        let gen_s = gen_t.elapsed();
        if i < self.budget.min_units {
            self.digest.network(&net);
            for l in &lines {
                self.digest.bytes(l.as_bytes());
            }
        }
        let engine = tracer.span("setup.rest", unit, req, |_| {
            ServeEngine::new(net, config(), Arc::clone(&self.factory))
                .and_then(|e| e.with_wal(&dir.join("requests.wal")))
                .map(|e| e.with_snapshot(&dir.join("serve.snapshot.json")))
        });
        self.phase
            .setup_s
            .push((t0.elapsed() - gen_s).as_secs_f64());
        let mut engine = engine.map_err(|e| e.to_string())?;
        let rss_start = rss_mb().1;

        let load_t = Busy::now();
        let dispatched = tracer.span("serve.load", unit, req, |load| {
            let mut dispatched = 0;
            for (t, batch) in lines.chunks(PER_TICK).enumerate() {
                let snapshot = (t + 1) % SNAP_EVERY == 0;
                dispatched += tracer.span("serve.batch", load, req, |parent| {
                    self.load_tick(&mut engine, batch, snapshot, parent, (i, t))
                });
            }
            dispatched
        });
        let load_s = load_t.elapsed().as_secs_f64();

        let drained = tracer.span("serve.drain", unit, req, |_| {
            let mut ticks = 0usize;
            while engine.in_flight() > 0 && ticks < MAX_DRAIN_TICKS {
                engine.tick().map_err(|e| e.to_string())?;
                ticks += 1;
            }
            Ok::<usize, String>(ticks)
        })?;
        let report = tracer
            .span("serve.shutdown", unit, req, |_| engine.shutdown())
            .map_err(|e| e.to_string())?;
        let totals = &mut self.totals;
        totals.drain_ticks += drained as f64;
        totals.rss_growth_mb += rss_mb().1 - rss_start;
        totals.soaks += 1.0;

        let offered = lines.len() as u64;
        let audit = audit(&report, offered, dispatched);
        self.phase.check(audit.is_ok(), || {
            format!("soak {i}: {}", audit.clone().unwrap_err())
        });
        self.phase.units.push((dispatched as f64, load_s));
        self.phase.objective.push(report.charged_latency.p50_s);
        let l = &report.ledger;
        for (name, v) in [
            ("serve.offered", offered as f64),
            ("serve.admitted", l.admitted as f64),
            ("serve.dispatched", dispatched as f64),
            ("serve.charged", l.charged as f64),
            ("serve.shed", l.shed as f64),
            ("serve.duplicates", l.duplicates as f64),
            ("serve.guard_checks", offered as f64),
            ("serve.inserts", report.incremental_inserts as f64),
            ("serve.full_replans", report.full_replans as f64),
            ("serve.replans_skipped", report.replans_skipped as f64),
            ("serve.wal_bytes", report.wal_bytes_reclaimed as f64),
            ("serve.compactions", report.compactions as f64),
            ("serve.queue_peak", report.max_queue_depth as f64),
            ("serve.in_flight_peak", report.max_in_flight as f64),
        ] {
            *totals.counts.entry(name).or_insert(0.0) += v;
        }
        Ok(())
    }

    /// One load tick: every line of `batch` through the wire path into
    /// the engine, then the tick (and a checkpoint on snapshot ticks).
    /// Records each request's latency and checks that the tick dispatched
    /// every accepted request. Returns the requests dispatched.
    fn load_tick(
        &mut self,
        engine: &mut ServeEngine,
        batch: &[String],
        snapshot: bool,
        parent: u64,
        (i, t): (usize, usize),
    ) -> u64 {
        let (tracer, req, phase) = (self.tracer, i as u64, &mut self.phase);
        let wire = batch.join("\n").into_bytes();
        let mut reader = &wire[..];
        let mut reads = Vec::with_capacity(batch.len());
        for _ in batch {
            let t_read = Busy::now();
            let line = tracer.span("serve.ingress.read", parent, req, |_| {
                read_bounded_line(&mut reader, MAX_LINE_BYTES)
            });
            let BoundedLine::Line(line) = line else {
                phase.check(false, || format!("soak {i}: line not read back"));
                continue;
            };
            let parsed = tracer.span("serve.request.parse", parent, req, |_| {
                ServeRequest::parse(&line)
            });
            let Ok(parsed) = parsed else {
                phase.check(false, || format!("soak {i}: line did not parse: {line}"));
                continue;
            };
            let admission = tracer.span("serve.engine.submit", parent, req, |_| {
                engine.submit(parsed.sensor, parsed.deficit_j)
            });
            match admission {
                Ok(Admission::Accepted { .. }) => reads.push(t_read),
                other => phase.check(false, || format!("soak {i}: not admitted: {other:?}")),
            }
        }
        let inserts_before = engine.metrics().incremental_inserts;
        let name = if snapshot {
            "serve.tick.snapshot"
        } else {
            "serve.tick.load"
        };
        let ticked = tracer.span(name, parent, req, |tick| {
            self.current_tick.store(tick, Ordering::Relaxed);
            engine.tick().and_then(|()| {
                if snapshot {
                    engine.checkpoint_now()
                } else {
                    Ok(())
                }
            })
        });
        let t_end = Busy::now();
        let inserted = engine.metrics().incremental_inserts - inserts_before;
        for &t_read in &reads {
            phase.latency_ms.push((t_end - t_read).as_secs_f64() * 1e3);
            phase.check(ticked.is_ok() && inserted == reads.len() as u64, || {
                format!(
                    "soak {i} tick {t}: {} accepted, {inserted} dispatched, {ticked:?}",
                    reads.len()
                )
            });
        }
        if snapshot {
            self.totals.snapshot_ticks += 1.0;
        } else {
            self.totals.load_ticks += 1.0;
        }
        inserted
    }
}

/// Every count that must be zero is zero, and every request offered was
/// admitted, dispatched and charged.
fn audit(r: &ServeReport, offered: u64, dispatched: u64) -> Result<(), String> {
    let l = &r.ledger;
    let zero = [
        ("silent_loss", r.silent_loss().unsigned_abs()),
        ("watchdog_trips", r.watchdog_trips),
        ("planner_fallbacks", r.planner_fallbacks),
        ("shed", l.shed),
        ("duplicates", l.duplicates),
        ("invalid", l.invalid),
        ("rejected", l.rejected),
        ("refused_quarantined", l.refused_quarantined),
        ("refused_degraded", l.refused_degraded),
        ("in_flight", r.in_flight as u64),
        ("snapshot_failures", r.snapshot_failures),
        ("compaction_failures", r.compaction_failures),
    ];
    if let Some((name, v)) = zero.iter().find(|(_, v)| *v != 0) {
        return Err(format!("{name} = {v}, must be 0"));
    }
    if !r.ledger_reconciles {
        return Err("ledger does not reconcile".into());
    }
    if l.admitted != offered || dispatched != offered || l.charged != offered {
        return Err(format!(
            "offered {offered}, admitted {}, dispatched {dispatched}, charged {}",
            l.admitted, l.charged
        ));
    }
    Ok(())
}

fn layer_metrics(tree: &SpanTree, t: &Totals, replans: &Replans) -> BTreeMap<&'static str, f64> {
    let own = tree.self_by_name();
    let total = |name: &str| ms(own.get(name).copied().unwrap_or(0));
    let soaks = t.soaks.max(1.0);
    let requests = t
        .counts
        .get("serve.offered")
        .copied()
        .unwrap_or(0.0)
        .max(1.0);
    // A tick span covers the tick and the re-plan inside it.
    let tick_total = |name: &str| -> f64 {
        tree.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.dur_ns()))
            .sum()
    };
    let drain_ms: f64 = tick_total("serve.drain");
    let mut m = BTreeMap::new();
    m.insert("net.build_ms", total("net.build") / soaks);
    m.insert("setup.rest_ms", total("setup.rest") / soaks);
    m.insert(
        "serve.ingress.read_us",
        total("serve.ingress.read") * 1e3 / requests,
    );
    m.insert(
        "serve.request.parse_us",
        total("serve.request.parse") * 1e3 / requests,
    );
    m.insert(
        "serve.engine.submit_us",
        total("serve.engine.submit") * 1e3 / requests,
    );
    m.insert(
        "serve.tick_ms.load",
        ratio(tick_total("serve.tick.load"), t.load_ticks),
    );
    m.insert(
        "serve.tick_ms.snapshot",
        ratio(tick_total("serve.tick.snapshot"), t.snapshot_ticks),
    );
    m.insert("serve.tick_ms.drain", ratio(drain_ms, t.drain_ticks));
    m.insert("serve.replan_ms", mean(&replans.ms));
    let full = t.counts.get("serve.full_replans").copied().unwrap_or(0.0);
    let skipped = t
        .counts
        .get("serve.replans_skipped")
        .copied()
        .unwrap_or(0.0);
    m.insert("serve.replan_useful_share", ratio(full, full + skipped));
    m.insert("serve.rss_growth_mb", t.rss_growth_mb / soaks);
    for (name, v) in &t.counts {
        m.insert(name, v / soaks);
    }
    m.insert("core.appro.plan_ms", mean(&replans.ms));
    replans.appro.metrics(&mut m);
    m.insert(
        "trace.blocking_ms",
        crate::common::median(&request_blocking_ms(tree)),
    );
    m.insert("trace.spans", tree.spans.len() as f64);
    m
}

/// Blocking path of every request: from its read span to the end of its
/// batch, the blocking self time of each later span in the batch.
fn request_blocking_ms(tree: &SpanTree) -> Vec<f64> {
    let mut out = Vec::new();
    for batch in tree.spans.iter().filter(|s| s.name == "serve.batch") {
        let kids: Vec<_> = tree.children_of(batch.id).collect();
        let mut suffix = 0u64;
        let mut per_kid = vec![0u64; kids.len()];
        for (j, k) in kids.iter().enumerate().rev() {
            suffix += tree.blocking_ns(k.id);
            per_kid[j] = suffix;
        }
        for (k, &b) in kids.iter().zip(&per_kid) {
            if k.name == "serve.ingress.read" {
                out.push(ms(b));
            }
        }
    }
    out
}
