//! `cms-pipeline-bench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]`
//!
//! Prints a report line, then the result as the last line of stdout.
//! Exits 1 if any op failed, 2 on bad arguments or a refused environment.

use cms_pipeline_bench::{pin_environment, report_json, result_json, run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 0u64, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Write the traced run's spans under `pipeline_bench/traces/`.
fn write_spans(opts: &Options, spans: &[cms_pipeline_bench::trace::Span]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, cms_pipeline_bench::trace::spans_jsonl(spans)));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let env = match pin_environment() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("refusing to run: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&opts);
    if opts.trace {
        write_spans(&opts, &result.spans);
    }
    println!("{}", report_json(&result, &env));
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
