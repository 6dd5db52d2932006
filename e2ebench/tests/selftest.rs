//! Self-test of the benchmark at a tiny size: every workload emits every
//! declared metric, `BENCHMARK.json` declares exactly those metrics, the
//! gate counts injected wrong answers, and the seed alone determines the
//! inputs.

use std::path::PathBuf;
use std::sync::Mutex;

use ear_e2ebench::gate::{check_mcb, check_pairs, check_sources, Tally};
use ear_e2ebench::run::{run, Config};
use ear_e2ebench::workload::{generate, write_inputs, Size, Workload};
use ear_e2ebench::{END_TO_END, PER_LAYER};
use ear_graph::dijkstra;
use ear_mcb::{mcb, McbConfig};
use ear_obs::json::{parse, Value};

/// Tracing is process-global: tests that run the pipeline take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn work_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("create test work directory");
    dir
}

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        size: Size::Tiny,
        seed: 3,
        seconds: 0.05,
        trace,
        work_dir: work_dir("runs"),
    }
}

#[test]
fn every_workload_emits_every_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(w, trace)).expect("tiny run");
            assert!(out.tally.attempted > 0, "{w:?}: nothing checked");
            assert_eq!(
                out.tally.failed, 0,
                "{w:?} trace={trace}: {:?}",
                out.tally.notes
            );
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            assert_eq!(names, declared, "{w:?} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{w:?}: {} = {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{w:?}: {} = {}", m.name, m.value);
                }
            }
        }
    }
}

fn names_units(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let e2e = names_units(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for ((n, u, b), &(name, unit, better, bound)) in e2e.iter().zip(&END_TO_END) {
        assert_eq!((n.as_str(), u.as_str(), b.as_str()), (name, unit, better));
        let declared = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        let json_bound = declared
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64);
        assert_eq!(json_bound, Some(bound), "{name}");
    }
    let layer = names_units(&doc, "per_layer");
    let declared: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(layer, declared);
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn injected_wrong_distance_is_counted() {
    let g = generate(Workload::Reweight, Size::Tiny, 5).apsp;
    let truth = |u: u32, v: u32| dijkstra(&g, u)[v as usize];

    let mut ok = Tally::default();
    check_sources(&mut ok, &g, &[0, 7], "engine", truth);
    assert_eq!((ok.attempted, ok.failed), (2 * g.n() as u64, 0));

    let mut bad = Tally::default();
    check_sources(&mut bad, &g, &[0, 7], "engine", |u, v| {
        truth(u, v) + u64::from(u == 7 && v == 11)
    });
    assert_eq!((bad.attempted, bad.failed), (2 * g.n() as u64, 1));
    assert_eq!(bad.notes.len(), 1);

    let mut pairs = Tally::default();
    let d = truth(3, 40);
    check_pairs(&mut pairs, &g, &[(3, 40, d), (3, 40, d + 1)], "stream");
    assert_eq!((pairs.attempted, pairs.failed), (2, 1));
}

#[test]
fn dropped_basis_cycle_is_counted() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = generate(Workload::Chains, Size::Tiny, 5).mcb;
    let mut res = mcb(&g, &McbConfig::default());
    let reference = res.total_weight;

    let mut ok = Tally::default();
    check_mcb(&mut ok, &g, &res, reference);
    assert_eq!((ok.attempted, ok.failed), (3, 0));

    res.cycles.pop();
    let mut bad = Tally::default();
    check_mcb(&mut bad, &g, &res, reference);
    assert_eq!((bad.attempted, bad.failed), (3, 3));
}

#[test]
fn seed_alone_determines_the_inputs() {
    let dir = work_dir("seeds");
    for w in Workload::ALL {
        let checksum = |seed: u64, tag: &str| {
            write_inputs(&generate(w, Size::Tiny, seed), &dir, tag)
                .expect("write edge lists")
                .checksum
        };
        let a = checksum(1, "a");
        assert_eq!(a, checksum(1, "b"), "{w:?}: same seed, different inputs");
        assert_ne!(a, checksum(2, "c"), "{w:?}: different seeds, same inputs");
    }
}
