//! The repository benchmark: one command, one named workload.
//!
//! ```text
//! cargo run --release --manifest-path wrsnbench/Cargo.toml -- \
//!     --workload plan-sharded --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the six end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The full result
//! (machine note, tail percentiles and sample counts, workload counts,
//! problems) and, for traced runs, the span log are written under the
//! build directory in `wrsnbench-out/`. See `README.md` for the
//! workloads and the metric table.

mod common;
mod host;
mod plan;
mod serve;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use serde_json::{Map, Value};

use common::{beyond, mean, median, percentile, tail_percentile, Budget, Phase};
use trace::Tracer;

/// The end-to-end metrics, in output order: (name, unit, higher is
/// better, the per-layer metric holding its tracing overhead).
pub const END_TO_END: [(&str, &str, bool, &str); 6] = [
    ("setup_s", "s", false, "trace.overhead.setup_s"),
    (
        "throughput_per_s",
        "1/s",
        true,
        "trace.overhead.throughput_per_s",
    ),
    ("latency_ms", "ms", false, "trace.overhead.latency_ms"),
    (
        "latency_slow_ms",
        "ms",
        false,
        "trace.overhead.latency_slow_ms",
    ),
    ("objective_s", "s", false, "trace.overhead.objective_s"),
    ("peak_rss_mb", "MB", false, "trace.overhead.peak_rss_mb"),
];

/// The per-layer metrics every traced run reports: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.build_ms", "ms"),
    ("setup.rest_ms", "ms"),
    ("core.context.build_ms", "ms"),
    ("core.context.submatrix_ms", "ms"),
    ("core.context.cached_rows", "count"),
    ("core.context.submatrix_bytes", "bytes"),
    ("core.problem.build_ms", "ms"),
    ("algo.mis_ms", "ms"),
    ("core.conflict.graph_ms", "ms"),
    ("algo.ktour_ms", "ms"),
    ("algo.tsp.dist_lookups", "count"),
    ("core.appro.plan_ms", "ms"),
    ("core.appro.insert_ms", "ms"),
    ("core.appro.core_share", "ratio"),
    ("core.appro.skip_share", "ratio"),
    ("core.shard.plan_ms", "ms"),
    ("core.shard.self_ms", "ms"),
    ("core.shard.imbalance", "ratio"),
    ("core.shard.reconcile_fixes", "count"),
    ("core.schedule.certify_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("sim.plan_calls", "count"),
    ("sim.plan_ms_p50", "ms"),
    ("sim.plan_ms_slow", "ms"),
    ("sim.plan_share", "ratio"),
    ("sim.targets_per_plan", "count"),
    ("sim.engine_self_s", "s"),
    ("sim.rounds", "count"),
    ("sim.telemetry_reports", "count"),
    ("sim.routing_repairs", "count"),
    ("sim.charger_failures", "count"),
    ("sim.lost_requests", "count"),
    ("sim.depot_recharges", "count"),
    ("serve.ingress.read_us", "us"),
    ("serve.request.parse_us", "us"),
    ("serve.engine.submit_us", "us"),
    ("serve.tick_ms.load", "ms"),
    ("serve.tick_ms.drain", "ms"),
    ("serve.tick_ms.snapshot", "ms"),
    ("serve.replan_ms", "ms"),
    ("serve.full_replans", "count"),
    ("serve.replans_skipped", "count"),
    ("serve.replan_useful_share", "ratio"),
    ("serve.rss_growth_mb", "MB"),
    ("serve.inserts", "count"),
    ("serve.wal_bytes", "bytes"),
    ("serve.compactions", "count"),
    ("serve.queue_peak", "count"),
    ("serve.in_flight_peak", "count"),
    ("serve.guard_checks", "count"),
    ("serve.shed", "count"),
    ("serve.duplicates", "count"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.dispatched", "count"),
    ("serve.charged", "count"),
    ("host.reference_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.blocking_ms", "ms"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead.setup_s", "ratio"),
    ("trace.overhead.throughput_per_s", "ratio"),
    ("trace.overhead.latency_ms", "ratio"),
    ("trace.overhead.latency_slow_ms", "ratio"),
    ("trace.overhead.objective_s", "ratio"),
    ("trace.overhead.peak_rss_mb", "ratio"),
];

/// Largest relative gap allowed between the blocking-path self time and
/// the traced median latency. The serve path leaves the gaps between a
/// batch's spans unattributed, a few percent of a tick.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PlanSharded,
    SimYear,
    SimFaulted,
    ServeSoak,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlanSharded,
        Workload::SimYear,
        Workload::SimFaulted,
        Workload::ServeSoak,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanSharded => "plan-sharded",
            Workload::SimYear => "sim-year",
            Workload::SimFaulted => "sim-faulted",
            Workload::ServeSoak => "serve-soak",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Units every phase completes, whatever `--seconds` says: the
    /// objective and the slow-tail percentile are taken over them.
    pub fn min_units(self) -> usize {
        match self {
            Workload::PlanSharded => 40,
            Workload::SimYear => 40,
            Workload::SimFaulted => 40,
            Workload::ServeSoak => 20,
        }
    }

    /// Independent latency samples per unit: one per plan or repetition,
    /// and one per load tick of a soak — the requests of one tick all end
    /// with it, so ten requests beyond a percentile can be a single slow
    /// tick. Counting ticks puts ten slow ticks beyond it.
    fn samples_per_unit(self) -> usize {
        match self {
            Workload::ServeSoak => serve::LOAD_TICKS,
            _ => 1,
        }
    }

    /// The slow-tail percentile: the highest that leaves at least ten
    /// of the guaranteed independent samples beyond it.
    pub fn tail_pct(self) -> f64 {
        tail_percentile(self.min_units() * self.samples_per_unit())
    }

    /// Whether this workload's spans reach the layer metric `name`;
    /// the others are reported as 0 (the layer is not entered).
    pub fn exercises(self, name: &str) -> bool {
        let appro = [
            "core.appro.plan_ms",
            "core.appro.core_share",
            "core.appro.skip_share",
        ];
        if ["net.", "setup.", "host.", "trace."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            return true;
        }
        match self {
            Workload::PlanSharded => name.starts_with("core.") || name.starts_with("algo."),
            Workload::SimYear | Workload::SimFaulted => {
                name.starts_with("sim.") || appro.contains(&name)
            }
            Workload::ServeSoak => name.starts_with("serve.") || appro.contains(&name),
        }
    }

    pub fn run(self, seed: u64, budget: Budget, tracer: &Arc<Tracer>, out: &Path) -> Phase {
        match self {
            Workload::PlanSharded => plan::run(seed, budget, tracer),
            Workload::SimYear => sim::run(sim::Mode::Year, seed, budget, tracer),
            Workload::SimFaulted => sim::run(sim::Mode::Faulted, seed, budget, tracer),
            Workload::ServeSoak => serve::run(seed, budget, tracer, out),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", names.join("|")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// End-to-end metrics of one phase, in [`END_TO_END`] order, timings
/// at the nominal host speed (see [`host`]).
fn end_to_end(w: Workload, phase: &Phase) -> [f64; 6] {
    let n = w.min_units().min(phase.objective.len());
    let f = host::speed_factor(&phase.reference_ms);
    [
        median(&phase.setup_s) * f,
        common::throughput(&phase.units) / f,
        median(&phase.latency_ms) * f,
        percentile(&phase.latency_ms, w.tail_pct()) * f,
        mean(&phase.objective[..n]),
        phase.peak_rss_mb,
    ]
}

/// Scales the per-layer timings of a phase to the nominal host speed,
/// as [`end_to_end`] does its own, and adds the host's speed itself.
fn scale_layers(layers: &mut BTreeMap<&'static str, f64>, reference_ms: &[f64]) {
    let f = host::speed_factor(reference_ms);
    for &(name, unit) in PER_LAYER {
        if let ("ms" | "us" | "s", Some(v)) = (unit, layers.get_mut(name)) {
            *v *= f;
        }
    }
    layers.insert("host.reference_ms", median(reference_ms));
}

/// Where results, span logs and serve state go: `wrsnbench-out/` in the
/// build directory the binary runs from.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(|p| p.join("wrsnbench-out")))
        .unwrap_or_else(|| PathBuf::from("target/wrsnbench-out"))
}

/// Identifies this build of the binary, so the objective is compared
/// only across runs of the same program.
fn build_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    match meta {
        Ok(m) => {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{:x}", m.len(), mtime)
        }
        Err(_) => "unknown".into(),
    }
}

/// Checks `objective` against the value an earlier run of the same
/// workload, seed, unit floor and build recorded, recording it if none
/// did.
fn objective_repeats(
    dir: &Path,
    w: Workload,
    seed: u64,
    budget: Budget,
    objective: f64,
) -> Result<(), String> {
    let name = format!(
        "objective-{}-seed{seed}-units{}-{}.txt",
        w.name(),
        budget.min_units,
        build_id()
    );
    let path = dir.join(name);
    let bits = format!("{:016x}", objective.to_bits());
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == bits => Ok(()),
        Ok(earlier) => Err(format!(
            "objective_s {objective} (bits {bits}) differs from an earlier run of this seed (bits {})",
            earlier.trim()
        )),
        Err(_) => std::fs::write(&path, &bits).map_err(|e| format!("cannot record objective: {e}")),
    }
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn machine_note() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let mut m = Map::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    m.insert("nproc".into(), Value::from(nproc as u64));
    m.insert("cpu".into(), Value::String(cpu));
    m.insert(
        "rustc".into(),
        Value::String(env!("WRSNBENCH_RUSTC").into()),
    );
    m.insert("commit".into(), Value::String(git_commit()));
    m.insert(
        "profile".into(),
        Value::String(env!("WRSNBENCH_PROFILE").into()),
    );
    Value::Object(m)
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = Map::new();
    m.insert("value".into(), Value::from(value));
    m.insert("unit".into(), Value::String(unit.into()));
    Value::Object(m)
}

/// The measured outcome of one invocation.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    counts: BTreeMap<&'static str, f64>,
    latency_samples: usize,
    /// Per-unit (work, busy seconds) of the phase the metrics came from.
    units: Vec<(f64, f64)>,
    /// The host's speed samples of that phase, ms.
    reference_ms: Vec<f64>,
}

fn run_untraced(w: Workload, seed: u64, budget: Budget, dir: &Path) -> Outcome {
    let phase = w.run(seed, budget, &Arc::new(Tracer::off()), dir);
    let values = end_to_end(w, &phase);
    let mut problems = phase.problems.clone();
    let mut failed = phase.failed;
    if let Err(e) = objective_repeats(dir, w, seed, budget, values[4]) {
        problems.push(e);
        failed += 1;
    }
    Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u, _, _), v)| (n, v, u))
            .collect(),
        attempted: phase.attempted + 1,
        failed,
        problems,
        digest: phase.digest,
        counts: phase.counts,
        latency_samples: phase.latency_ms.len(),
        units: phase.units,
        reference_ms: phase.reference_ms,
    }
}

/// The traced run: an untraced phase and a traced phase over the same
/// units, each with `budget`. Per-layer metrics come from the traced
/// phase; the tracing overhead of each end-to-end metric is the traced
/// phase's value relative to the untraced one (positive = worse).
fn run_traced(w: Workload, seed: u64, budget: Budget, dir: &Path) -> Outcome {
    let plain = w.run(seed, budget, &Arc::new(Tracer::off()), dir);
    let before = end_to_end(w, &plain);
    let tracer = Arc::new(Tracer::new(true));
    let mut traced = w.run(seed, budget, &tracer, dir);
    let after = end_to_end(w, &traced);

    let mut layers = std::mem::take(&mut traced.layers);
    scale_layers(&mut layers, &traced.reference_ms);
    for (j, &(_, _, higher_better, key)) in END_TO_END.iter().enumerate() {
        let (base, with) = (before[j], after[j]);
        let overhead = match (higher_better, base > 0.0 && with > 0.0) {
            (_, false) => 0.0,
            (true, true) => base / with - 1.0,
            (false, true) => with / base - 1.0,
        };
        layers.insert(key, overhead);
    }
    let blocking = layers.get("trace.blocking_ms").copied().unwrap_or(0.0);
    layers.insert("trace.accounted_share", common::ratio(blocking, before[2]));
    if let Some(tree) = &traced.tree {
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
        if let Err(e) = tree.write_jsonl(&path) {
            eprintln!("wrsnbench: cannot write {}: {e}", path.display());
        }
    }

    let mut problems = plain.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    let mut failed = plain.failed + traced.failed;
    if before[4].to_bits() != after[4].to_bits() {
        failed += 1;
        problems.push(format!(
            "objective_s {} untraced vs {} traced",
            before[4], after[4]
        ));
    }
    if let Err(e) = objective_repeats(dir, w, seed, budget, before[4]) {
        problems.push(e);
        failed += 1;
    }
    // The self times along the blocking path must account for the
    // traced phase's own median latency; what separates them from the
    // untraced latency is then the tracing overhead.
    if (blocking / after[2] - 1.0).abs() > ACCOUNTING_TOLERANCE {
        failed += 1;
        problems.push(format!(
            "blocking-path self time {blocking} ms does not account for the traced median latency {} ms",
            after[2]
        ));
    }
    let mut missing = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layers.get(name).copied();
            if v.is_none() && w.exercises(name) {
                missing.push(name);
            }
            (name, v.unwrap_or(0.0), unit)
        })
        .collect();
    if !missing.is_empty() {
        failed += 1;
        problems.push(format!(
            "layer metrics not measured: {}",
            missing.join(", ")
        ));
    }
    Outcome {
        metrics,
        attempted: plain.attempted + traced.attempted + 2,
        failed,
        problems,
        digest: plain.digest,
        counts: traced.counts,
        latency_samples: traced.latency_ms.len(),
        units: traced.units,
        reference_ms: traced.reference_ms,
    }
}

/// Pins glibc's mmap threshold at its default 128 KiB. Left dynamic,
/// glibc raises the threshold after the first large block is freed, and
/// whether later large blocks (distance tables, span logs) land on the
/// heap or in their own mappings then depends on allocation order: the
/// process's peak resident memory jumps between two levels from one
/// seed to the next. Pinned, large blocks are always mapped and returned
/// on free, so `peak_rss_mb` follows the live set.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's allocator tuning call; it takes two
    // integers, touches only allocator state, and is called here before
    // any other thread exists.
    let _ = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wrsnbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("wrsnbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let w = args.workload;
    let out = if args.trace {
        // Two phases, each for half the time.
        let budget = Budget {
            seconds: args.seconds / 2.0,
            min_units: w.min_units(),
        };
        run_traced(w, args.seed, budget, &dir)
    } else {
        run_untraced(
            w,
            args.seed,
            Budget {
                seconds: args.seconds,
                min_units: w.min_units(),
            },
            &dir,
        )
    };

    let mut metrics = Map::new();
    for &(name, value, unit) in &out.metrics {
        metrics.insert(name.into(), metric(value, unit));
    }
    let correct = out.failed == 0 && out.metrics.iter().all(|m| m.1.is_finite());
    let mut last = Map::new();
    last.insert("correct".into(), Value::Bool(correct));
    last.insert("attempted".into(), Value::from(out.attempted));
    last.insert("failed".into(), Value::from(out.failed));
    last.insert("metrics".into(), Value::Object(metrics));
    let last = Value::Object(last);

    let mut counts = Map::new();
    for (k, v) in &out.counts {
        counts.insert((*k).into(), Value::from(*v));
    }
    let mut tail = Map::new();
    tail.insert("percentile".into(), Value::from(w.tail_pct()));
    tail.insert("samples".into(), Value::from(out.latency_samples as u64));
    tail.insert(
        "beyond".into(),
        Value::from(beyond(out.latency_samples, w.tail_pct()) as u64),
    );
    let mut full = Map::new();
    full.insert("workload".into(), Value::String(w.name().into()));
    full.insert("seed".into(), Value::from(args.seed));
    full.insert("seconds".into(), Value::from(args.seconds));
    full.insert("trace".into(), Value::Bool(args.trace));
    full.insert(
        "input_digest".into(),
        Value::String(format!("{:016x}", out.digest)),
    );
    full.insert("machine".into(), machine_note());
    full.insert("latency_tail".into(), Value::Object(tail));
    full.insert("counts".into(), Value::Object(counts));
    let units = out
        .units
        .iter()
        .map(|&(work, busy)| Value::Array(vec![Value::from(work), Value::from(busy)]));
    full.insert("units_work_busy_s".into(), Value::Array(units.collect()));
    let mut speed = Map::new();
    speed.insert(
        "reference_ms_median".into(),
        Value::from(median(&out.reference_ms)),
    );
    speed.insert("nominal_ms".into(), Value::from(host::NOMINAL_MS));
    speed.insert(
        "speed_factor".into(),
        Value::from(host::speed_factor(&out.reference_ms)),
    );
    let samples = out.reference_ms.iter().map(|&ms| Value::from(ms));
    speed.insert("reference_ms".into(), Value::Array(samples.collect()));
    full.insert("host_speed".into(), Value::Object(speed));
    full.insert(
        "problems".into(),
        Value::Array(out.problems.iter().cloned().map(Value::String).collect()),
    );
    full.insert("result".into(), last.clone());
    let path = dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = serde_json::to_string_pretty(&Value::Object(full)).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("wrsnbench: cannot write {}: {e}", path.display());
    }
    for p in &out.problems {
        eprintln!("wrsnbench: {p}");
    }
    eprintln!(
        "wrsnbench: {} seed {} input {:016x}; tail p{} over {} samples; full result in {}",
        w.name(),
        args.seed,
        out.digest,
        w.tail_pct(),
        out.latency_samples,
        path.display()
    );
    println!("{}", serde_json::to_string(&last));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn test_dir() -> PathBuf {
        let dir = out_dir().join("tests");
        std::fs::create_dir_all(&dir).expect("test output directory");
        dir
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n, u))
            .chain(PER_LAYER.iter().copied());
        for (name, unit) in names {
            assert!(valid_name(name), "metric name {name}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit}"
            );
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        let dir = test_dir();
        let budget = Budget {
            seconds: 0.0,
            min_units: 2,
        };
        for w in Workload::ALL {
            let plain = run_untraced(w, 11, budget, &dir);
            assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.problems);
            let got: Vec<(&str, &str)> = plain.metrics.iter().map(|m| (m.0, m.2)).collect();
            let want: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect();
            assert_eq!(got, want, "{}", w.name());
            assert!(
                plain.metrics.iter().all(|m| m.1 > 0.0),
                "{}: {:?}",
                w.name(),
                plain.metrics
            );

            let traced = run_traced(w, 11, budget, &dir);
            assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.problems);
            let got: Vec<(&str, &str)> = traced.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(got, PER_LAYER.to_vec(), "{}", w.name());
            for &(name, value, _) in &traced.metrics {
                if w.exercises(name) && !name.starts_with("trace.overhead.") {
                    assert!(value.is_finite(), "{} {name}", w.name());
                }
            }
        }
    }

    #[test]
    fn reported_tail_percentiles_leave_ten_samples_beyond() {
        for w in Workload::ALL {
            let n = w.min_units() * w.samples_per_unit();
            assert!(beyond(n, w.tail_pct()) >= 10, "{}", w.name());
        }
        // And on a real run's samples.
        let budget = Budget {
            seconds: 0.0,
            min_units: Workload::SimYear.min_units(),
        };
        let phase = Workload::SimYear.run(5, budget, &Arc::new(Tracer::off()), &test_dir());
        assert!(beyond(phase.latency_ms.len(), Workload::SimYear.tail_pct()) >= 10);
    }

    #[test]
    fn input_digest_follows_the_seed() {
        let budget = Budget {
            seconds: 0.0,
            min_units: 1,
        };
        let off = Arc::new(Tracer::off());
        for w in Workload::ALL {
            let a = w.run(3, budget, &off, &test_dir()).digest;
            let b = w.run(3, budget, &off, &test_dir()).digest;
            let c = w.run(4, budget, &off, &test_dir()).digest;
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect();
        assert_eq!(list("end_to_end"), own(&e2e));
        assert_eq!(list("per_layer"), own(PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads is a list")
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(args(&[
            "--workload",
            "sim-year",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "3"]).is_err());
        assert!(args(&["--workload", "sim-year", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sim-year", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sim-year", "--bogus", "1"]).is_err());
    }
}
