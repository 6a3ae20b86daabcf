//! The benchmark's own checks: every workload runs and passes its output
//! checks on a seed no measurement used, every printed metric is declared
//! in `BENCHMARK.json`, and traced stages add up to the traced op time.

use cms_obs::json::{parse, Json};
use cms_pipeline_bench::trace::breakdown;
use cms_pipeline_bench::{run, Options, RunResult, Workload};

const UNUSED_SEED: u64 = 0x5eed_0ff5_e7c0_ffee;

fn smoke(workload: Workload, trace: bool) -> RunResult {
    run(&Options {
        workload,
        seed: UNUSED_SEED,
        seconds: 0.0,
        trace,
        smoke: true,
    })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(r: &RunResult) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn smoke_runs_each_workload_once_and_passes_its_checks() {
    for w in Workload::ALL {
        let r = smoke(w, false);
        assert!(r.correct, "{}: {:?}", w.name(), r.report);
        // One warm-up op in set-up, one measured op.
        assert_eq!((r.attempted, r.failed), (2, 0), "{}", w.name());
        assert!(
            r.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{:?}",
            r.metrics
        );
    }
}

#[test]
fn printed_metric_names_are_declared() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    let Some(Json::Arr(workloads)) = parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json"),
    )
    .expect("JSON")
    .get("workloads")
    .cloned() else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for w in Workload::ALL {
        assert_eq!(printed(&smoke(w, false)), end_to_end, "{}", w.name());
        assert_eq!(printed(&smoke(w, true)), per_layer, "{}", w.name());
    }
}

#[test]
fn traced_stages_and_unattributed_add_up_to_op_time() {
    for w in Workload::ALL {
        let r = smoke(w, true);
        assert!(r.correct, "{}: {:?}", w.name(), r.report);
        let ops = breakdown(&r.spans).expect("stages nest inside their op without overlap");
        assert_eq!(ops.len(), 1, "{}", w.name());
        for op in &ops {
            let stages: u64 = op.stage_ns.iter().sum();
            assert_eq!(stages + op.unattributed_ns, op.op_ns, "{}", w.name());
        }
        let metric = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} printed"))
                .value
        };
        let parts: f64 = [
            "candgen.ms",
            "coverage.ms",
            "preprocess.ms",
            "select.ms",
            "metrics.data_prf_ms",
            "unattributed_ms",
        ]
        .iter()
        .map(|n| metric(n))
        .sum();
        let total = metric("op.ms");
        assert!(
            (parts - total).abs() <= 1e-9 * total,
            "{}: {parts} vs {total}",
            w.name()
        );
    }
}
