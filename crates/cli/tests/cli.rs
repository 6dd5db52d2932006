//! End-to-end tests of the `ear` binary: every subcommand against real
//! files, exercised the way a user would.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};

fn ear(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ear"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn ear_stdin(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ear"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

fn tmpfile(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ear-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const THETA: &str = "0 1 1\n1 2 2\n0 2 10\n0 3 3\n3 2 4\n";

#[test]
fn stats_on_edge_list() {
    let p = tmpfile("theta.txt", THETA);
    let out = ear(&["stats", p.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let kernels = format!("row kernels           {}", ear_graph::kernel_path());
    assert!(text.starts_with(&kernels), "{text}");
    assert!(text.contains("vertices              4"), "{text}");
    assert!(text.contains("edges                 5"), "{text}");
    assert!(text.contains("biconnected comps     1"), "{text}");
    // Distances from vertex 0 reach 3, so the bound is min(20, 2·3).
    assert!(
        text.contains("table width           u16 (distance bound 6)"),
        "{text}"
    );
}

/// A reader that quits after the first line (`ear apsp … | head -1`)
/// ends the command quietly: exit 0, no panic. Twenty 2000-vertex paths
/// print far more than a pipe buffers, so the command is still writing
/// when its stdout closes.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    let chain: String = (0..1999).map(|v| format!("{v} {} 1\n", v + 1)).collect();
    let p = tmpfile("long_chain.txt", &chain);
    let pairs = vec!["0:1999"; 20].join(",");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ear"))
        .args(["apsp", p.to_str().unwrap(), "--pairs", &pairs])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("oracle built:"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn stats_on_matrix_market() {
    let mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n";
    let p = tmpfile("tri.mtx", mtx);
    let out = ear(&["stats", p.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices              3"), "{text}");
}

#[test]
fn decompose_reports_blocks_and_ears() {
    let p = tmpfile("theta2.txt", THETA);
    let out = ear(&["decompose", p.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 biconnected components"), "{text}");
    assert!(text.contains("ears"), "{text}");
    assert!(text.contains("reduction 4 -> 2"), "{text}");
}

#[test]
fn apsp_answers_queries_with_paths() {
    let p = tmpfile("theta3.txt", THETA);
    let out = ear(&[
        "apsp",
        p.to_str().unwrap(),
        "--pairs",
        "1:3,0:2",
        "--mode",
        "seq",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let header = text.lines().next().unwrap_or_default();
    let kernels = format!("{} row kernels", ear_graph::kernel_path());
    assert!(header.ends_with(&kernels), "{text}");
    assert!(
        header.contains("16 table entries at u16 (bound 6), "),
        "{text}"
    );
    // d(1,3) = 1 + 3 = 4 via vertex 0; d(0,2) = 3 via vertex 1.
    assert!(text.contains("d(1,3) = 4"), "{text}");
    assert!(text.contains("d(0,2) = 3"), "{text}");
    assert!(text.contains("path"), "{text}");
}

#[test]
fn query_answers_and_checksums() {
    let p = tmpfile("theta_query.txt", THETA);
    let out = ear(&[
        "query",
        p.to_str().unwrap(),
        "--pairs",
        "1:3,0:2",
        "--queries",
        "2000",
        "--mode",
        "seq",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("query engine:"), "{text}");
    assert!(text.contains("d(1,3) = 4"), "{text}");
    assert!(text.contains("d(0,2) = 3"), "{text}");
    assert!(text.contains("path"), "{text}");
    // The workload errors out unless the answers of its sampled pairs
    // match Dijkstra rows from their sources.
    assert!(text.contains("checksum ok"), "{text}");
    assert!(text.contains("q/s"), "{text}");
}

#[test]
fn query_routes_across_blocks() {
    // Triangle 0-1-2, AP 2, triangle 2-4-5, AP 5, triangle 5-6-7, with a
    // square 0-3-2 folded into the first block.
    let g = "0 1 1\n1 2 2\n0 2 10\n0 3 3\n3 2 4\n2 4 1\n4 5 2\n5 2 3\n5 6 1\n6 7 2\n7 5 1\n";
    let p = tmpfile("blocks_query.txt", g);
    let out = ear(&[
        "query",
        p.to_str().unwrap(),
        "--pairs",
        "0:7,2:6,5:2",
        "--queries",
        "1000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // d(0,2) = 3, d(2,5) = 3, d(5,7) = 1.
    assert!(text.contains("d(0,7) = 7"), "{text}");
    assert!(text.contains("d(2,6) = 4"), "{text}");
    assert!(text.contains("d(5,2) = 3"), "{text}");
    assert!(text.contains("2 APs"), "{text}");
    assert!(text.contains("checksum ok"), "{text}");
}

#[test]
fn apsp_ear_toggle_agrees() {
    let p = tmpfile("theta4.txt", THETA);
    let a = ear(&["apsp", p.to_str().unwrap(), "--pairs", "1:3"]);
    let b = ear(&["apsp", p.to_str().unwrap(), "--pairs", "1:3", "--no-ear"]);
    let ta = String::from_utf8_lossy(&a.stdout);
    let tb = String::from_utf8_lossy(&b.stdout);
    assert!(ta.contains("d(1,3) = 4"), "{ta}");
    assert!(tb.contains("d(1,3) = 4"), "{tb}");
}

#[test]
fn mcb_finds_the_basis() {
    let p = tmpfile("theta5.txt", THETA);
    let out = ear(&[
        "mcb",
        p.to_str().unwrap(),
        "--print-cycles",
        "--mode",
        "multicore",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dimension 2"), "{text}");
    // MCB: chain-pair cycle (1+2+3+4=10) + light cycle (1+2+10=13 vs
    // 3+4+10=17) -> total 23.
    assert!(text.contains("total weight 23"), "{text}");
    assert!(text.contains("cycle 1:"), "{text}");
}

#[test]
fn mcb_profile_prints_phase_table() {
    let p = tmpfile("theta7.txt", THETA);
    let out = ear(&["mcb", p.to_str().unwrap(), "--profile", "--mode", "seq"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phase profile"), "{text}");
    for step in ["trees", "labels", "search", "update"] {
        assert!(text.contains(step), "missing {step} row: {text}");
    }
    assert!(text.contains("0 signed-search fallbacks"), "{text}");
    assert!(text.contains("counters:"), "{text}");
    // Without the flag, no profile table.
    let plain = ear(&["mcb", p.to_str().unwrap(), "--mode", "seq"]);
    assert!(plain.status.success());
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("phase profile"));
}

#[test]
fn mcb_profile_json_emits_a_parseable_object() {
    let p = tmpfile("theta8.txt", THETA);
    let out = ear(&[
        "mcb",
        p.to_str().unwrap(),
        "--profile-json",
        "--mode",
        "seq",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("JSON line in output");
    let v = ear_obs::json::parse(line).expect("profile JSON parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("ear-mcb-profile/v1")
    );
    assert_eq!(v.get("fallbacks").and_then(|f| f.as_f64()), Some(0.0));
    let counters = v.get("counters").expect("counters object");
    assert!(
        counters
            .get("words_xored")
            .and_then(|c| c.as_f64())
            .unwrap()
            > 0.0
    );
    // The human table and the JSON line coexist when both flags are given.
    let both = ear(&[
        "mcb",
        p.to_str().unwrap(),
        "--profile",
        "--profile-json",
        "--mode",
        "seq",
    ]);
    assert!(both.status.success());
    let both_text = String::from_utf8_lossy(&both.stdout);
    assert!(both_text.contains("phase profile"), "{both_text}");
    assert!(
        both_text.contains("\"schema\":\"ear-mcb-profile/v1\""),
        "{both_text}"
    );
}

#[test]
fn combined_writes_trace_and_metrics_that_pass_trace_check() {
    // Two blocks joined at articulation vertex 2: theta graph + a triangle.
    let multi_bcc = "0 1 1\n1 2 2\n0 2 10\n0 3 3\n3 2 4\n2 4 1\n4 5 2\n5 2 3\n";
    let p = tmpfile("multibcc.txt", multi_bcc);
    let dir = std::env::temp_dir().join("ear-cli-tests");
    let trace_path = dir.join("combined_trace.json");
    let metrics_path = dir.join("combined_metrics.json");
    let out = ear(&[
        "combined",
        p.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrote trace to"), "{text}");
    assert!(text.contains("wrote metrics to"), "{text}");

    // The trace validates both in-process and through the subcommand.
    let trace_text = std::fs::read_to_string(&trace_path).unwrap();
    let check = ear_obs::json::validate_chrome_trace(&trace_text).expect("valid Chrome trace");
    assert!(check.events > 0);
    let checked = ear(&["trace-check", trace_path.to_str().unwrap()]);
    assert!(
        checked.status.success(),
        "{}",
        String::from_utf8_lossy(&checked.stderr)
    );
    assert!(String::from_utf8_lossy(&checked.stdout).contains("ok"));

    // The metrics snapshot carries the pipeline's counters, and the
    // decomposition ran exactly once (the shared-plan guarantee).
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let m = ear_obs::json::parse(&metrics_text).expect("metrics JSON parses");
    assert_eq!(
        m.get("schema").and_then(|s| s.as_str()),
        Some("ear-metrics/v1")
    );
    let counters = m.get("counters").expect("counters object");
    assert_eq!(
        counters.get("decomp.plans").and_then(|c| c.as_f64()),
        Some(1.0)
    );
    for key in ["decomp.blocks", "hetero.units", "sssp.runs", "mcb.phases"] {
        assert!(
            counters.get(key).and_then(|c| c.as_f64()).unwrap_or(0.0) > 0.0,
            "metrics missing {key}: {metrics_text}"
        );
    }
}

#[test]
fn trace_check_rejects_malformed_traces() {
    let p = tmpfile("bad_trace.json", "{\"traceEvents\": [{\"ph\": \"E\"}]}");
    let out = ear(&["trace-check", p.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid trace"));
}

#[test]
fn reads_edge_list_from_stdin() {
    let out = ear_stdin(&["stats", "-"], THETA);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("vertices              4"));
}

#[test]
fn generate_roundtrips_through_stats() {
    let dir = std::env::temp_dir().join("ear-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("gen.txt");
    let out = ear(&["generate", "nopoly", "64", out_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = ear(&["stats", out_path.to_str().unwrap()]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("vertices"), "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = ear(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

/// `ear <cmd> <graph> --bogus 3` fails with the unknown option named.
fn assert_rejects_unknown_option(cmd: &str) {
    let p = tmpfile(&format!("theta_{cmd}_bogus.txt"), THETA);
    let out = ear(&[cmd, p.to_str().unwrap(), "--bogus", "3"]);
    assert!(!out.status.success(), "{cmd} accepted --bogus");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option '--bogus'"), "{cmd}: {err}");
    assert!(out.stdout.is_empty(), "{cmd} printed output");
}

#[test]
fn stats_rejects_unknown_options() {
    assert_rejects_unknown_option("stats");
}

#[test]
fn decompose_rejects_unknown_options() {
    assert_rejects_unknown_option("decompose");
}

#[test]
fn bc_rejects_unknown_options() {
    assert_rejects_unknown_option("bc");
}

/// `ear <cmd> <graph> <args>` fails naming `flag` as an unknown option.
fn assert_rejects_flag(cmd: &str, args: &[&str], flag: &str) {
    let p = tmpfile(
        &format!("theta_{cmd}_{}.txt", flag.trim_start_matches('-')),
        THETA,
    );
    let mut argv = vec![cmd, p.to_str().unwrap()];
    argv.extend(args);
    let out = ear(&argv);
    assert!(!out.status.success(), "{cmd} accepted {args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("unknown option '{flag}'")),
        "{cmd}: {err}"
    );
    assert!(out.stdout.is_empty(), "{cmd} printed output");
}

#[test]
fn apsp_rejects_the_top_flag_of_bc() {
    assert_rejects_flag("apsp", &["--top", "3"], "--top");
}

#[test]
fn stats_rejects_the_queries_flag_of_query() {
    assert_rejects_flag("stats", &["--queries", "5"], "--queries");
}

/// `stats`, `decompose` and `bc` run no pipeline: they take neither
/// `--mode`, `--no-ear` nor an observability output.
fn assert_rejects_pipeline_flags(cmd: &str) {
    assert_rejects_flag(cmd, &["--mode", "seq"], "--mode");
    assert_rejects_flag(cmd, &["--no-ear"], "--no-ear");
    let trace = std::env::temp_dir().join(format!("ear_cli_{cmd}_rejected_trace.json"));
    assert_rejects_flag(
        cmd,
        &["--trace-out", trace.to_str().unwrap()],
        "--trace-out",
    );
    assert!(!trace.exists(), "{cmd} wrote a trace");
}

#[test]
fn stats_rejects_pipeline_flags() {
    assert_rejects_pipeline_flags("stats");
}

#[test]
fn decompose_rejects_pipeline_flags() {
    assert_rejects_pipeline_flags("decompose");
}

#[test]
fn bc_rejects_pipeline_flags() {
    assert_rejects_pipeline_flags("bc");
}

#[test]
fn bad_pair_is_rejected() {
    let p = tmpfile("theta6.txt", THETA);
    let out = ear(&["apsp", p.to_str().unwrap(), "--pairs", "0:99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

#[test]
fn mcb_rejects_multigraphs() {
    let p = tmpfile("multi.txt", "0 1 1\n0 1 2\n");
    let out = ear(&["mcb", p.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simple"));
}

#[test]
fn bc_ranks_the_hub_first() {
    // Star: the hub dominates betweenness.
    let p = tmpfile("star.txt", "0 1 1\n0 2 1\n0 3 1\n0 4 1\n");
    let out = ear(&["bc", p.to_str().unwrap(), "--top", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let first = text.lines().nth(1).unwrap();
    assert!(first.trim().starts_with('0'), "{text}");
    assert!(first.contains("6.00"), "{text}");
}

#[test]
fn bc_top_without_a_value_is_rejected() {
    let p = tmpfile("star_top.txt", "0 1 1\n0 2 1\n0 3 1\n0 4 1\n");
    let out = ear(&["bc", p.to_str().unwrap(), "--top"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--top needs a value"), "{err}");
}

#[test]
fn bad_mode_value_is_rejected() {
    let p = tmpfile("theta_mode.txt", THETA);
    let out = ear(&["mcb", p.to_str().unwrap(), "--mode", "foo"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --mode value 'foo'"), "{err}");
}

#[test]
fn mode_without_a_value_is_rejected() {
    let p = tmpfile("theta_mode_bare.txt", THETA);
    let out = ear(&["mcb", p.to_str().unwrap(), "--mode"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--mode needs a value"), "{err}");
}

#[test]
fn recustomize_replays_weight_updates_with_checksum_gate() {
    let two_blocks = "0 1 3\n1 2 4\n2 0 5\n2 3 2\n3 4 1\n4 5 6\n5 3 2\n";
    let out = ear_stdin(
        &[
            "recustomize",
            "-",
            "--fraction",
            "0.25",
            "--rounds",
            "2",
            "--seed",
            "11",
            "--mode",
            "seq",
        ],
        two_blocks,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("initial build: 3 blocks"), "{text}");
    assert!(text.contains("round 0:"), "{text}");
    assert!(text.contains("round 1:"), "{text}");
    assert!(text.contains("checksum ok"), "{text}");
    assert!(text.contains("replayed 2 rounds"), "{text}");
    // Dirty-share reporting: a 25% perturbation of a 3-block graph never
    // legitimately reports more dirty blocks than blocks.
    assert!(text.contains("dirty of 3 blocks"), "{text}");
}

#[test]
fn recustomize_is_seed_deterministic() {
    let p = tmpfile("recust.txt", THETA);
    let args = [
        "recustomize",
        p.to_str().unwrap(),
        "--rounds",
        "2",
        "--seed",
        "99",
    ];
    let a = ear(&args);
    let b = ear(&args);
    assert!(a.status.success() && b.status.success());
    let checks = |o: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .filter_map(|l| l.split("checksum ok ").nth(1).map(str::to_owned))
            .collect()
    };
    let (ca, cb) = (checks(&a), checks(&b));
    assert_eq!(ca.len(), 2, "{}", String::from_utf8_lossy(&a.stdout));
    assert_eq!(ca, cb);
}

#[test]
fn recustomize_rejects_bad_fraction() {
    let p = tmpfile("recust_bad.txt", THETA);
    let out = ear(&["recustomize", p.to_str().unwrap(), "--fraction", "1.5"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--fraction must be in (0, 1]"), "{err}");
}

#[test]
fn query_writes_trace_and_metrics_that_pass_trace_check() {
    let p = tmpfile("theta_query_obs.txt", THETA);
    let dir = std::env::temp_dir().join("ear-cli-tests");
    let trace_path = dir.join("query_trace.json");
    let metrics_path = dir.join("query_metrics.json");
    let out = ear(&[
        "query",
        p.to_str().unwrap(),
        "--queries",
        "500",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let checked = ear(&["trace-check", trace_path.to_str().unwrap()]);
    assert!(
        checked.status.success(),
        "{}",
        String::from_utf8_lossy(&checked.stderr)
    );
    let m = ear_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(
        m.get("schema").and_then(|s| s.as_str()),
        Some("ear-metrics/v1")
    );
    // The oracle build ran under tracing, so its counters are present.
    assert!(
        m.get("counters")
            .and_then(|c| c.get("apsp.oracles"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            > 0.0
    );
    // Histograms carry the v2 distribution fields.
    let hists = m.get("histograms").expect("histograms object");
    let (_, h) = hists
        .as_obj()
        .and_then(|o| o.iter().next())
        .expect("at least one histogram");
    assert!(h.get("quantiles").is_some(), "missing quantiles: {h:?}");
    assert!(h.get("buckets").is_some(), "missing buckets: {h:?}");
}

#[test]
fn recustomize_writes_trace_and_metrics_that_pass_trace_check() {
    let p = tmpfile("recust_obs.txt", THETA);
    let dir = std::env::temp_dir().join("ear-cli-tests");
    let trace_path = dir.join("recust_trace.json");
    let metrics_path = dir.join("recust_metrics.json");
    let out = ear(&[
        "recustomize",
        p.to_str().unwrap(),
        "--rounds",
        "2",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let checked = ear(&["trace-check", trace_path.to_str().unwrap()]);
    assert!(
        checked.status.success(),
        "{}",
        String::from_utf8_lossy(&checked.stderr)
    );
    let m = ear_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(
        m.get("schema").and_then(|s| s.as_str()),
        Some("ear-metrics/v1")
    );
}

#[test]
fn profile_out_writes_collapsed_stacks_rooted_at_the_command_span() {
    let p = tmpfile("profile_obs.txt", THETA);
    let dir = std::env::temp_dir().join("ear-cli-tests");
    let folded_path = dir.join("combined.folded");
    let out = ear(&[
        "combined",
        p.to_str().unwrap(),
        "--profile-out",
        folded_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&folded_path).unwrap();
    assert!(!text.is_empty(), "collapsed-stack output is empty");
    for line in text.lines() {
        // Collapsed format: "frame;frame;... count".
        let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
        assert!(!stack.is_empty(), "{line:?}");
        assert!(count.parse::<u64>().unwrap() >= 1, "{line:?}");
        // Every sampled stack is rooted at the command's root span (the
        // final stop() sample guarantees at least that frame).
        assert!(
            stack == "cli.combined" || stack.starts_with("cli.combined;"),
            "stack not rooted at cli.combined: {line:?}"
        );
    }
}

#[test]
fn metrics_stream_writes_parseable_json_lines() {
    let p = tmpfile("stream_obs.txt", THETA);
    let dir = std::env::temp_dir().join("ear-cli-tests");
    let stream_path = dir.join("query.stream.jsonl");
    let out = ear(&[
        "query",
        p.to_str().unwrap(),
        "--queries",
        "2000",
        "--metrics-stream",
        stream_path.to_str().unwrap(),
        "--metrics-interval",
        "10",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("streamed"));
    let text = std::fs::read_to_string(&stream_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The stop() flush guarantees at least one frame even on a fast run.
    assert!(!lines.is_empty());
    for (i, line) in lines.iter().enumerate() {
        let v = ear_obs::json::parse(line).unwrap_or_else(|e| panic!("frame {i}: {e}"));
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("ear-metrics-stream/v1")
        );
        assert_eq!(v.get("seq").and_then(|s| s.as_f64()), Some(i as f64));
        assert_eq!(
            v.get("snapshot")
                .and_then(|s| s.get("schema"))
                .and_then(|s| s.as_str()),
            Some("ear-metrics/v1")
        );
    }
}
