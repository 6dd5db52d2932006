//! Command line of the end-to-end benchmark:
//!
//! ```text
//! e2ebench --workload <mesh|chains|reweight> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the structural context of the run on one line, then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}` as JSON.

use std::path::PathBuf;
use std::process::ExitCode;

use ear_e2ebench::run::{run, Config};
use ear_e2ebench::workload::{Size, Workload};

/// Switches that select non-default program paths; the benchmark measures
/// the defaults, so it clears them before anything reads them.
const PATH_SWITCHES: [&str; 3] = ["EAR_CSR_VIEWS", "EAR_SSSP_BATCHED", "EAR_OBS_SAMPLE_US"];

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        size: Size::Full,
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(target).join("e2ebench"),
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", ear_obs::json::escape(s))
}

fn main() -> ExitCode {
    for var in PATH_SWITCHES {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <mesh|chains|reweight> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &out.metrics {
        out.tally.check(m.value.is_finite(), || {
            format!("metric {} is not finite", m.name)
        });
    }
    for note in &out.tally.notes {
        eprintln!("e2ebench: FAILED {note}");
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut context = vec![
        ("workload".to_string(), json_str(cfg.workload.name())),
        ("seed".to_string(), cfg.seed.to_string()),
        ("threads".to_string(), threads.to_string()),
    ];
    context.extend(
        out.context
            .iter()
            .map(|(k, v)| (k.to_string(), json_str(v))),
    );
    let body: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"context\": {{{}}}}}", body.join(", "));

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
