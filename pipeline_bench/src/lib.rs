//! End-to-end mapping-selection benchmark.
//!
//! One client runs one op at a time through the public pipeline entry
//! points (a closed loop) and checks every op's output. An untraced run
//! gives the end-to-end metrics; with tracing on, the same ops run again
//! stage by stage under [`trace::Tracer`] and give the per-layer
//! breakdown. End-to-end timings are normalised to a reference host speed
//! by the calibration kernel in [`host`]. See `README.md` for the workloads
//! and metric definitions.

#![forbid(unsafe_code)]

pub mod host;
pub mod trace;
mod workload;

pub use workload::Workload;

use std::time::{Duration, Instant};
use trace::{Tracer, STAGES};
use workload::{run_op, run_traced_op, Case, CaseRef, Counters, Digest, OpOutput};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `op_ms_tail` on the report line is this percentile of the ops'
/// latencies.
const TAIL_PERCENTILE: f64 = 90.0;

/// Fewest measured passes, so that each op's median has repeats to reject
/// a slow outlier.
const MIN_PASSES: usize = 3;

/// How one benchmark run is made.
#[derive(Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the workload's scenario seeds derive from.
    pub seed: u64,
    /// Minimum measured time; runs cover whole passes over the seed set.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
    /// One op per pass, one set-up and one measured pass: a quick check
    /// that every op runs and passes its checks.
    pub smoke: bool,
}

/// One named metric.
#[derive(Debug)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunResult {
    /// No op failed.
    pub correct: bool,
    /// Ops run, set-up warm-ups and traced ops included.
    pub attempted: u64,
    /// Ops that returned an error, panicked or failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when tracing.
    pub metrics: Vec<Metric>,
    /// Details for reading and diffing a run: seeds, digest, tail
    /// percentile, environment. Printed as one JSON object.
    pub report: Vec<(&'static str, String)>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Span>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, op: usize, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("op {op}: {e}"));
            }
        }
    }
}

/// Per-op results of untraced passes.
#[derive(Default)]
struct Measured {
    latencies_ns: Vec<u64>,
    /// Time of the calibration kernel run right after each op.
    kernel_ns: Vec<u64>,
    /// Each op's latency in milliseconds at the reference host speed.
    normalised_ms: Vec<f64>,
    busy: Duration,
}

impl Measured {
    /// Median kernel time, in milliseconds.
    fn kernel_ms(&self) -> f64 {
        median(&sorted_ms(&self.kernel_ns))
    }
}

fn pass(w: Workload, cases: &[Case], refs: &mut [CaseRef], tally: &mut Tally, m: &mut Measured) {
    for (i, (case, r)) in cases.iter().zip(refs.iter_mut()).enumerate() {
        let (took, out) = run_op(w, case, r);
        let ns = u64::try_from(took.as_nanos()).expect("an op lasts under 584 years");
        let kernel = host::kernel_ns();
        m.latencies_ns.push(ns);
        m.kernel_ns.push(kernel);
        m.normalised_ms
            .push(ns as f64 / kernel as f64 * host::REFERENCE_KERNEL_MS);
        m.busy += took;
        tally.record(i, out.map(|_| ()));
    }
}

/// Force the telemetry level off and refuse a run a fault could disturb.
/// Returns the environment to record with the result.
pub fn pin_environment() -> Result<Vec<(&'static str, String)>, String> {
    cms_obs::set_level_override(cms_obs::ObsLevel::Off);
    if let Some(f) = cms_psl::fault::armed() {
        return Err(format!("fault {} is armed", f.label()));
    }
    let var = |k: &str| std::env::var(k).ok().filter(|v| !v.is_empty());
    if let Some(seed) = var("CMS_FAULT_SEED") {
        return Err(format!("CMS_FAULT_SEED={seed} arms fault injection"));
    }
    if let Some(t) = var("ADMM_THREADS").filter(|t| t.trim() != "1") {
        return Err(format!(
            "ADMM_THREADS={t}: the benchmark runs ADMM on one thread"
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    let unset = || "unset".to_owned();
    Ok(vec![
        ("nproc", nproc.to_string()),
        ("git_revision", git.unwrap_or_else(|| "unknown".to_owned())),
        ("ADMM_THREADS", var("ADMM_THREADS").unwrap_or_else(unset)),
        (
            "ADMM_PARALLEL_THRESHOLD",
            var("ADMM_PARALLEL_THRESHOLD").unwrap_or_else(unset),
        ),
        ("CMS_OBS", var("CMS_OBS").unwrap_or_else(unset)),
        (
            "CMS_FAULT_SEED",
            var("CMS_FAULT_SEED").unwrap_or_else(unset),
        ),
        ("obs_level", cms_obs::level().name().to_owned()),
    ])
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The [`TAIL_PERCENTILE`] latency by nearest rank, and the percentile of
/// that rank.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let k = ((TAIL_PERCENTILE / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    (sorted[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Each op's latency: the median of its normalised repeats, which pass
/// after pass sit `n_ops` apart in `normalised`. A burst of load that the
/// kernel run after an op did not see slows one repeat, not the median.
fn op_latencies(normalised: &[f64], n_ops: usize) -> Vec<f64> {
    (0..n_ops)
        .map(|i| median(&sorted(normalised.iter().skip(i).step_by(n_ops).copied().collect())))
        .collect()
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| cms_obs::json::fmt_f64(x)).collect();
    format!("[{}]", items.join(","))
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&x| x as f64 / 1e6).collect())
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run the benchmark.
pub fn run(opts: &Options) -> RunResult {
    cms_obs::set_level_override(cms_obs::ObsLevel::Off);
    let w = opts.workload;
    let n_ops = if opts.smoke { 1 } else { w.ops_per_pass() };
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut tally = Tally::default();

    // Set-up: generate the scenarios, then one warm-up pass. References for
    // the checks come from the first set-up and are not timed. Like an op,
    // a set-up is normalised by the kernel runs of its warm-up pass.
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_raw_s = Vec::with_capacity(reps);
    let mut cases: Vec<Case> = Vec::new();
    let mut refs: Vec<CaseRef> = Vec::new();
    for rep in 0..reps {
        cases.clear();
        let start = Instant::now();
        cases = (0..n_ops)
            .map(|i| Case::generate(w, opts.seed, i))
            .collect();
        let generated = start.elapsed();
        if rep == 0 {
            refs = cases.iter().map(|c| CaseRef::new(w, c)).collect();
        }
        let mut warm = Measured::default();
        pass(w, &cases, &mut refs, &mut tally, &mut warm);
        let raw = (generated + warm.busy).as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw * host::REFERENCE_KERNEL_MS / warm.kernel_ms());
    }

    // Untraced measured run: whole passes until the time is up and every op
    // ran at least `MIN_PASSES` times.
    let mut m = Measured::default();
    let start = Instant::now();
    let mut pass_s = Vec::new();
    loop {
        let before = m.busy;
        pass(w, &cases, &mut refs, &mut tally, &mut m);
        pass_s.push((m.busy - before).as_secs_f64());
        let enough = pass_s.len() >= MIN_PASSES;
        if opts.smoke || (enough && start.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    let raw_p50 = median(&sorted_ms(&m.latencies_ns));
    let lat = sorted(op_latencies(&m.normalised_ms, n_ops));
    let p50 = median(&lat);
    let (tail_ms, tail_pct) = tail(&lat);

    let mut digest = Digest::default();
    for r in &refs {
        digest.u64(r.first().map_or(0, |o| o.digest));
    }
    // Quality comes from each op's first output, which every later run of
    // the op repeats, so it reads the same whatever the number of passes.
    let firsts: Vec<OpOutput> = refs.iter().filter_map(CaseRef::first).collect();
    let sum = |f: fn(&OpOutput) -> f64| firsts.iter().map(f).sum::<f64>();
    let ok = firsts.len().max(1) as f64;
    let (objective, gold) = (sum(|o| o.objective), sum(|o| o.gold_objective));
    let mut report = vec![
        ("workload", format!("\"{}\"", w.name())),
        ("seed", opts.seed.to_string()),
        ("ops_per_pass", n_ops.to_string()),
        ("pass_s", json_list(&pass_s)),
        ("ops", m.latencies_ns.len().to_string()),
        ("digest", format!("\"{:016x}\"", digest.0)),
        (
            "error_rate",
            cms_obs::json::fmt_f64(ratio(tally.failed, tally.attempted)),
        ),
        (
            "objective_gap",
            cms_obs::json::fmt_f64((objective - gold) / ok),
        ),
        ("op_ms_tail", cms_obs::json::fmt_f64(tail_ms)),
        ("op_ms_tail_percentile", cms_obs::json::fmt_f64(tail_pct)),
        ("op_ms_samples", lat.len().to_string()),
        ("op_repeats", pass_s.len().to_string()),
        ("setup_s_samples", json_list(&setup_s)),
        ("setup_raw_s_samples", json_list(&setup_raw_s)),
        ("kernel_ms_p50", cms_obs::json::fmt_f64(m.kernel_ms())),
        ("raw_op_ms_p50", cms_obs::json::fmt_f64(raw_p50)),
        (
            "raw_ops_per_s",
            cms_obs::json::fmt_f64(m.latencies_ns.len() as f64 / m.busy.as_secs_f64()),
        ),
    ];

    let mut spans = Vec::new();
    let metrics = if opts.trace {
        let mut tr = Tracer::default();
        let mut counters = Counters::default();
        // One traced pass: per-layer metrics carry no bound, and the probes
        // roughly double an op's cost.
        for (i, (case, r)) in cases.iter().zip(refs.iter_mut()).enumerate() {
            let res = run_traced_op(w, case, r, &mut tr, i, &mut counters);
            tally.record(i, res);
        }
        let layers = match trace::breakdown(tr.spans()) {
            Ok(b) => layer_metrics(w, tr.spans(), &b, &counters, raw_p50, m.kernel_ms()),
            Err(e) => {
                tally.record(0, Err(e));
                Vec::new()
            }
        };
        spans = tr.spans().to_vec();
        layers
    } else {
        let op_s: f64 = lat.iter().sum::<f64>() / 1e3;
        let rss = cms_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        vec![
            metric("ops_per_s", n_ops as f64 / op_s, "1/s"),
            metric("op_ms.p50", p50, "ms"),
            metric("map_f1", sum(|o| o.map_f1) / ok, "ratio"),
            metric("data_f1", sum(|o| o.data_f1) / ok, "ratio"),
            metric("objective_ratio", objective / gold, "ratio"),
            metric("setup_s", median(&sorted(setup_s.clone())), "s"),
            metric("peak_rss_mb", rss, "MB"),
        ]
    };
    report.push((
        "failures",
        format!(
            "[{}]",
            tally
                .failures
                .iter()
                .map(|f| cms_obs::json::escape_str(f))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    RunResult {
        correct: tally.failed == 0 && !metrics.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        spans,
    }
}

/// Per-op means of the traced run, in `BENCHMARK.json` order.
fn layer_metrics(
    w: Workload,
    spans: &[trace::Span],
    ops: &[trace::OpBreakdown],
    c: &Counters,
    untraced_p50: f64,
    kernel_ms: f64,
) -> Vec<Metric> {
    let n = ops.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let diff_ms = |a: u64, b: u64| (a as f64 - b as f64) / 1e6 / n;
    let per_op = |x: u64| x as f64 / n;
    let stage = |name: &str| {
        let k = STAGES
            .iter()
            .position(|&s| s == name)
            .expect("a leaf stage");
        ops.iter().map(|o| o.stage_ns[k]).sum::<u64>()
    };
    let span = |name: &str| trace::total_ns(spans, name);
    let only = |on: Workload, v: f64| if w == on { v } else { 0.0 };
    let op_ns: u64 = ops.iter().map(|o| o.op_ns).sum();
    let unattributed: u64 = ops.iter().map(|o| o.unattributed_ns).sum();
    let (select, coverage, chase) = (stage("select"), stage("coverage"), span("probe.chase"));
    let (ground, infer) = (span("probe.psl.ground"), span("probe.psl.infer"));
    let climb = span("probe.local_search.climb");
    let traced_p50 = median(&sorted_ms(&ops.iter().map(|o| o.op_ns).collect::<Vec<_>>()));
    let m = metric;
    vec![
        m("op.ms", ms(op_ns), "ms"),
        m("candgen.ms", ms(stage("candgen")), "ms"),
        m("candgen.candidates", per_op(c.candidates), "count"),
        m("chase.ms", ms(chase), "ms"),
        m("chase.firings", per_op(c.chase_firings), "count"),
        m(
            "chase.prefix_reuse",
            ratio(c.chase_reused, c.chase_computed + c.chase_reused),
            "ratio",
        ),
        m("coverage.ms", ms(coverage), "ms"),
        m("coverage.self_ms", diff_ms(coverage, chase), "ms"),
        m("coverage.targets", per_op(c.coverage_targets), "count"),
        m("preprocess.ms", ms(stage("preprocess")), "ms"),
        m(
            "preprocess.targets_removed",
            per_op(c.targets_removed),
            "count",
        ),
        m("select.ms", ms(select), "ms"),
        m("select.evaluations", per_op(c.evaluations), "count"),
        m("psl.ground_ms", ms(ground), "ms"),
        m("psl.ground_terms", per_op(c.ground_terms), "count"),
        m("psl.solve_ms", diff_ms(infer, ground), "ms"),
        m("psl.admm_iterations", per_op(c.admm_iterations), "count"),
        m(
            "psl.converged_frac",
            ratio(c.infer_converged, c.infer_runs),
            "ratio",
        ),
        m(
            "select.psl.repair_ms",
            only(Workload::CollectiveS16, diff_ms(select, infer)),
            "ms",
        ),
        m(
            "select.local_search.ms",
            only(Workload::LocalSearchS4, ms(select)),
            "ms",
        ),
        m("select.local_search.climb_ms", ms(climb), "ms"),
        m(
            "relax.mirror_ms",
            only(Workload::LocalSearchS4, diff_ms(select, climb)),
            "ms",
        ),
        m("relax.flips", per_op(c.flips), "count"),
        m(
            "relax.reground_reuse",
            ratio(c.terms_reused, c.terms_reused + c.terms_recomputed),
            "ratio",
        ),
        m("relax.warm_iters", per_op(c.warm_iters), "count"),
        m(
            "select.greedy.ms",
            only(Workload::LearnS2, ms(select)),
            "ms",
        ),
        m(
            "select.branch_bound.ms",
            only(Workload::ExactS2, ms(select)),
            "ms",
        ),
        m(
            "select.branch_bound.evaluations",
            per_op(c.bb_evaluations),
            "count",
        ),
        m("metrics.data_prf_ms", ms(stage("metrics")), "ms"),
        m("learn.grid_points", per_op(c.grid_points), "count"),
        m("learn.evaluate_ms", ms(span("learn.evaluate")), "ms"),
        m("unattributed_ms", ms(unattributed), "ms"),
        m("host.kernel_ms", kernel_ms, "ms"),
        m(
            "trace_overhead",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                cms_obs::json::fmt_f64(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The report line: `{"report": {...}}` with `env` appended.
pub fn report_json(r: &RunResult, env: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = r
        .report
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", cms_obs::json::escape_str(v)))
        .collect();
    format!(
        "{{\"report\": {{{}, \"env\": {{{}}}}}}}",
        fields.join(", "),
        env.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_latency_is_the_median_of_its_repeats() {
        // Two ops over three passes; op 1's second repeat hit a burst.
        let normalised = [1.0, 10.0, 1.2, 50.0, 0.9, 11.0];
        assert_eq!(op_latencies(&normalised, 2), vec![1.0, 11.0]);
    }

    #[test]
    fn tail_is_the_nearest_rank_90th_percentile() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), (9.0, 90.0));
        let eight: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&eight), (8.0, 100.0));
    }
}
