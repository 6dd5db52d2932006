//! `ear` — command-line front end for the ear-decomposition suite.
//!
//! ```text
//! ear stats <graph>                      Table-1 style statistics
//! ear decompose <graph>                  blocks, articulation points, ears, reduction
//! ear apsp <graph> [--pairs u:v,...]     build the distance oracle, answer queries
//! ear query <graph> [--pairs u:v,...] [--queries N]
//!                                        query engine: block-cut-tree routing over the
//!                                        oracle's tables, checksum-gated vs Dijkstra
//! ear mcb <graph> [--print-cycles] [--profile]  minimum cycle basis
//! ear combined <graph> [--pairs u:v,...] stats + APSP + MCB off one shared plan
//! ear recustomize <graph> [--fraction F] [--rounds N] [--seed S]
//!                                        weight-replay: recustomize vs cold rebuild
//! ear bc <graph> [--top K]               betweenness centrality
//! ear generate <spec> <scale> [out]      write a synthetic Table-1 analog
//! ```
//!
//! `<graph>` is a Matrix Market (`.mtx`) or whitespace edge-list file
//! (`u v [w]` per line, zero-based ids); `-` reads the edge list from
//! stdin. All subcommands accept `--mode seq|multicore|gpu|hetero`
//! (default hetero) and `--no-ear` to disable the reduction.
//!
//! Observability (on `apsp`, `query`, `mcb`, `combined`, `recustomize`):
//! `--trace-out <path>` writes a Chrome trace-event JSON of the run (load
//! it in `chrome://tracing` or Perfetto), `--metrics-out <path>` writes a
//! flat metrics snapshot with quantile histograms, `--profile-out <path>`
//! runs the span-stack sampling profiler (period via `EAR_OBS_SAMPLE_US`,
//! default 1000 µs) and writes flamegraph-ready collapsed stacks, and
//! `--metrics-stream <path> --metrics-interval <ms>` streams periodic
//! metrics frames (JSON lines) to a file or FIFO while the command runs.
//! `ear trace-check <file>` validates a trace file's structure, including
//! counter-event sanity (for CI), and `ear bench-diff <baseline.json>
//! <candidate.json>` is the perf-regression sentinel over `ear-bench/v1`
//! reports.

use std::process::ExitCode;

use ear_apsp::ApspMethod;
use ear_graph::io::{read_edge_list, read_matrix_market};
use ear_graph::CsrGraph;
use ear_mcb::{ExecMode, McbConfig};

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:
  ear stats <graph>
  ear decompose <graph>
  ear apsp <graph> [--pairs u:v[,u:v...]] [--mode M] [--no-ear]
  ear query <graph> [--pairs u:v[,u:v...]] [--queries N] [--seed S] [--mode M] [--no-ear]
  ear mcb <graph> [--print-cycles] [--profile] [--profile-json] [--mode M] [--no-ear]
  ear combined <graph> [--pairs u:v[,u:v...]] [--mode M] [--no-ear]
  ear recustomize <graph> [--fraction F] [--rounds N] [--seed S] [--mode M] [--no-ear]
  ear bc <graph> [--top K]
  ear generate <spec-name> <scale> [out-file]
  ear trace-check <trace-file>
  ear bench-diff <baseline.json> <candidate.json> [--threshold PCT] [--json-out FILE]

graph: .mtx (Matrix Market) or edge list 'u v [w]' per line; '-' = stdin
mode:  seq | multicore | gpu | hetero (default)
obs:   apsp/query/mcb/combined/recustomize also take
         [--trace-out FILE] [--metrics-out FILE] [--profile-out FILE]
         [--metrics-stream FILE] [--metrics-interval MS]
       (--profile-out samples span stacks, period EAR_OBS_SAMPLE_US;
        --metrics-stream writes live ear-metrics/v1 frames as JSON lines)
specs: nopoly OPF_3754 ca-AstroPh as-22july06 c-50 cond_mat_2003
       delaunay_n15 Rajat26 Wordnet3 soc-sign-epinions Planar_1..Planar_5"
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "stats" => commands::stats(&load(rest.first().ok_or("missing graph path")?)?),
        "decompose" => commands::decompose(&load(rest.first().ok_or("missing graph path")?)?),
        "apsp" => {
            let g = load(rest.first().ok_or("missing graph path")?)?;
            let opts = CommonOpts::parse(&rest[1..])?;
            let pairs = parse_pairs(&rest[1..], g.n())?;
            commands::apsp(&g, &opts, &pairs)
        }
        "query" => {
            let g = load(rest.first().ok_or("missing graph path")?)?;
            let opts = CommonOpts::parse(&rest[1..])?;
            let pairs = parse_pairs(&rest[1..], g.n())?;
            let queries = parse_value(&rest[1..], "--queries")?.unwrap_or(10_000usize);
            let seed = parse_value(&rest[1..], "--seed")?.unwrap_or(7u64);
            commands::query(&g, &opts, &pairs, queries, seed)
        }
        "combined" => {
            let g = load(rest.first().ok_or("missing graph path")?)?;
            let opts = CommonOpts::parse(&rest[1..])?;
            let pairs = parse_pairs(&rest[1..], g.n())?;
            commands::combined(&g, &opts, &pairs)
        }
        "recustomize" => {
            let g = load(rest.first().ok_or("missing graph path")?)?;
            let opts = CommonOpts::parse(&rest[1..])?;
            let fraction = parse_value(&rest[1..], "--fraction")?.unwrap_or(0.01f64);
            let rounds = parse_value(&rest[1..], "--rounds")?.unwrap_or(3usize);
            let seed = parse_value(&rest[1..], "--seed")?.unwrap_or(7u64);
            commands::recustomize(&g, &opts, fraction, rounds, seed)
        }
        "bc" => {
            let g = load(rest.first().ok_or("missing graph path")?)?;
            let top = rest
                .iter()
                .position(|a| a == "--top")
                .and_then(|i| rest.get(i + 1))
                .map(|s| s.parse::<usize>().map_err(|_| "--top takes an integer"))
                .transpose()?
                .unwrap_or(10);
            commands::bc(&g, top)
        }
        "mcb" => {
            let g = load(rest.first().ok_or("missing graph path")?)?;
            let opts = CommonOpts::parse(&rest[1..])?;
            let print_cycles = rest.iter().any(|a| a == "--print-cycles");
            let profile = rest.iter().any(|a| a == "--profile");
            let profile_json = rest.iter().any(|a| a == "--profile-json");
            commands::mcb(&g, &opts, print_cycles, profile, profile_json)
        }
        "trace-check" => commands::trace_check(rest.first().ok_or("missing trace file")?),
        "bench-diff" => {
            let baseline = rest.first().ok_or("missing baseline report path")?;
            let candidate = rest.get(1).ok_or("missing candidate report path")?;
            let threshold_pct: f64 = parse_value(&rest[2..], "--threshold")?
                .unwrap_or(ear_bench::diff::DEFAULT_THRESHOLD * 100.0);
            // Also rejects NaN, which fails every ordered comparison.
            if !(threshold_pct.is_finite() && threshold_pct > 0.0) {
                return Err("--threshold must be a positive percentage".into());
            }
            let json_out = rest[2..]
                .iter()
                .position(|a| a == "--json-out")
                .map(|i| {
                    rest[2..]
                        .get(i + 1)
                        .cloned()
                        .ok_or("--json-out needs a path")
                })
                .transpose()?;
            commands::bench_diff(
                baseline,
                candidate,
                threshold_pct / 100.0,
                json_out.as_deref(),
            )
        }
        "generate" => {
            let name = rest.first().ok_or("missing spec name")?;
            let scale: usize = rest
                .get(1)
                .ok_or("missing scale")?
                .parse()
                .map_err(|_| "scale must be an integer")?;
            let out = rest.get(2).map(|s| s.as_str());
            commands::generate(name, scale, out)
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Shared options.
pub struct CommonOpts {
    /// Device mode.
    pub mode: ExecMode,
    /// Disable the ear reduction.
    pub no_ear: bool,
    /// Write a Chrome trace-event JSON of the run here.
    pub trace_out: Option<String>,
    /// Write a metrics-snapshot JSON of the run here.
    pub metrics_out: Option<String>,
    /// Run the span-stack sampling profiler and write collapsed stacks
    /// (flamegraph format) here.
    pub profile_out: Option<String>,
    /// Stream live metrics frames (JSON lines) to this file/FIFO while
    /// the command runs.
    pub metrics_stream: Option<String>,
    /// Flush interval for `--metrics-stream`, in milliseconds.
    pub metrics_interval_ms: u64,
}

impl CommonOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut mode = ExecMode::Hetero;
        let mut no_ear = false;
        let mut trace_out = None;
        let mut metrics_out = None;
        let mut profile_out = None;
        let mut metrics_stream = None;
        let mut metrics_interval_ms = ear_obs::stream::DEFAULT_INTERVAL_MS;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--mode" => {
                    i += 1;
                    mode = match args.get(i).map(|s| s.as_str()) {
                        Some("seq") => ExecMode::Sequential,
                        Some("multicore") => ExecMode::MultiCore,
                        Some("gpu") => ExecMode::Gpu,
                        Some("hetero") => ExecMode::Hetero,
                        other => return Err(format!("bad --mode {other:?}")),
                    };
                }
                "--no-ear" => no_ear = true,
                "--trace-out" => {
                    i += 1;
                    trace_out = Some(args.get(i).ok_or("--trace-out needs a path")?.clone());
                }
                "--metrics-out" => {
                    i += 1;
                    metrics_out = Some(args.get(i).ok_or("--metrics-out needs a path")?.clone());
                }
                "--profile-out" => {
                    i += 1;
                    profile_out = Some(args.get(i).ok_or("--profile-out needs a path")?.clone());
                }
                "--metrics-stream" => {
                    i += 1;
                    metrics_stream =
                        Some(args.get(i).ok_or("--metrics-stream needs a path")?.clone());
                }
                "--metrics-interval" => {
                    i += 1;
                    let raw = args.get(i).ok_or("--metrics-interval needs a value (ms)")?;
                    metrics_interval_ms = raw
                        .parse::<u64>()
                        .ok()
                        .filter(|&ms| ms > 0)
                        .ok_or_else(|| format!("bad --metrics-interval value '{raw}'"))?;
                }
                "--pairs" | "--fraction" | "--rounds" | "--seed" | "--queries" => {
                    i += 1; // value consumed by parse_pairs / parse_value
                }
                "--print-cycles" | "--profile" | "--profile-json" => {}
                other => return Err(format!("unknown option '{other}'")),
            }
            i += 1;
        }
        Ok(CommonOpts {
            mode,
            no_ear,
            trace_out,
            metrics_out,
            profile_out,
            metrics_stream,
            metrics_interval_ms,
        })
    }

    /// The oracle method the flags select: `--no-ear` gives the Banerjee
    /// baseline ([`ApspMethod::Plain`]), the default is [`ApspMethod::Ear`].
    pub fn method(&self) -> ApspMethod {
        if self.no_ear {
            ApspMethod::Plain
        } else {
            ApspMethod::Ear
        }
    }

    /// The MCB configuration the flags select.
    pub fn mcb_config(&self) -> McbConfig {
        McbConfig {
            mode: self.mode,
            use_ear: !self.no_ear,
        }
    }

    /// True when any observability output was requested.
    pub fn obs_requested(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.profile_out.is_some()
            || self.metrics_stream.is_some()
    }

    /// Starts the observability session for one subcommand: enables
    /// collection when any output was requested, starts the sampling
    /// profiler (`--profile-out`) and the streaming exporter
    /// (`--metrics-stream`), and opens the command's root span so even a
    /// sub-millisecond run leaves at least one sampled frame. The
    /// returned session must be [`ObsSession::finish`]ed after the work.
    pub fn begin_obs(&self, root: &'static str) -> Result<ObsSession<'_>, String> {
        if self.obs_requested() {
            ear_obs::enable();
            if self.profile_out.is_some() {
                ear_obs::profile::start(ear_obs::profile::period_from_env())?;
            }
            if let Some(path) = &self.metrics_stream {
                ear_obs::stream::start(
                    path,
                    std::time::Duration::from_millis(self.metrics_interval_ms),
                )?;
            }
        }
        Ok(ObsSession {
            opts: self,
            root: Some(ear_obs::span(root)),
        })
    }
}

/// One subcommand's observability lifetime: root span + background
/// sampler/exporter threads, shut down and flushed by [`Self::finish`].
pub struct ObsSession<'a> {
    opts: &'a CommonOpts,
    root: Option<ear_obs::SpanGuard>,
}

impl ObsSession<'_> {
    /// Closes the root span, stops the profiler (taking one final sample)
    /// and the streaming exporter (flushing one final frame), and writes
    /// every requested output file.
    pub fn finish(mut self) -> Result<(), String> {
        // Stop the profiler while the root span is still open: its final
        // synchronous sample then captures at least the root frame even on
        // runs shorter than the sampling period.
        if self.opts.profile_out.is_some() {
            ear_obs::profile::stop();
        }
        // Close the root span before snapshotting so the trace pairs up.
        self.root.take();
        if self.opts.metrics_stream.is_some() {
            ear_obs::stream::stop()?;
        }
        if let Some(path) = &self.opts.trace_out {
            let trace = ear_obs::trace_snapshot();
            ear_obs::write_chrome_trace(path, &trace).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote trace to {path}");
        }
        if let Some(path) = &self.opts.metrics_out {
            let snap = ear_obs::metrics_snapshot();
            ear_obs::write_metrics(path, &snap).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote metrics to {path}");
        }
        if let Some(path) = &self.opts.profile_out {
            ear_obs::profile::write_collapsed(path).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote profile to {path} ({} samples)",
                ear_obs::profile::samples()
            );
        }
        if let Some(path) = &self.opts.metrics_stream {
            println!(
                "streamed {} metrics frames to {path}",
                ear_obs::stream::frames()
            );
        }
        Ok(())
    }
}

/// Looks up `flag VALUE` in `args` and parses the value; `Ok(None)` when
/// the flag is absent.
fn parse_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse::<T>()
        .map(Some)
        .map_err(|_| format!("bad {flag} value '{raw}'"))
}

fn parse_pairs(args: &[String], n: usize) -> Result<Vec<(u32, u32)>, String> {
    let Some(pos) = args.iter().position(|a| a == "--pairs") else {
        return Ok(Vec::new());
    };
    let spec = args.get(pos + 1).ok_or("--pairs needs a value")?;
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (a, b) = part
            .split_once(':')
            .ok_or_else(|| format!("bad pair '{part}'"))?;
        let u: u32 = a.parse().map_err(|_| format!("bad vertex '{a}'"))?;
        let v: u32 = b.parse().map_err(|_| format!("bad vertex '{b}'"))?;
        if u as usize >= n || v as usize >= n {
            return Err(format!("pair {u}:{v} out of range (n = {n})"));
        }
        out.push((u, v));
    }
    Ok(out)
}

fn load(path: &str) -> Result<CsrGraph, String> {
    if path == "-" {
        let stdin = std::io::stdin();
        return read_edge_list(stdin.lock(), 0).map_err(|e| e.to_string());
    }
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    if path.ends_with(".mtx") {
        read_matrix_market(reader).map_err(|e| e.to_string())
    } else {
        read_edge_list(reader, 0).map_err(|e| e.to_string())
    }
}
