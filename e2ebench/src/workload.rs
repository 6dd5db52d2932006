//! Workload inputs: the graphs each workload generates from its seed, the
//! edge-list files the pipeline ingests, and the seeded update and query
//! streams.
//!
//! The program under test sees only the edge lists written here; the update
//! and query streams are the benchmark's own traffic.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use ear_graph::{io::write_edge_list, CsrGraph, GraphBuilder, VertexId, Weight};
use ear_workloads::generators::{small_world, triangulated_grid};
use ear_workloads::{table1_specs, DatasetSpec};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `delaunay_n15` analog: one big block, no degree-2 vertices.
    Mesh,
    /// `cond_mat_2003` analog: hundreds of blocks, a third of the vertices
    /// on degree-2 chains.
    Chains,
    /// A chain of 256 small blocks served while its weights change.
    Reweight,
}

impl Workload {
    /// Every workload the benchmark runs. `BENCHMARK.json` lists `mesh`
    /// and `chains`; `reweight` runs on request only, because its
    /// spawn-bound millisecond stages slowed 2–3× under host CPU steal,
    /// far past any regression bound.
    pub const ALL: [Workload; 3] = [Workload::Mesh, Workload::Chains, Workload::Reweight];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh => "mesh",
            Workload::Chains => "chains",
            Workload::Reweight => "reweight",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Refresh rounds chained from each cold build: enough on `reweight`
    /// for a thousand refresh samples per run; one on the Table-1 analogs,
    /// whose clustered updates mostly dirty the big block and so cost
    /// about a cold build each.
    pub fn rounds_per_build(self, size: Size) -> usize {
        match (size, self) {
            (Size::Full, Workload::Reweight) => 128,
            (Size::Tiny, Workload::Reweight) => 8,
            _ => 1,
        }
    }

    /// Queries answered by each engine state (after every cold build and
    /// every refresh). `reweight` answers 4096 per round; the two
    /// Table-1 analogs answer more per state because their states are
    /// expensive to produce and a p99 needs a thousand chunks.
    pub fn queries_per_state(self, size: Size) -> usize {
        match (size, self) {
            (Size::Tiny, _) => 256,
            (Size::Full, Workload::Reweight) => 4096,
            (Size::Full, _) => 32768,
        }
    }
}

/// Input size: `Full` is the benchmark; `Tiny` keeps the self-test fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few hundred vertices per graph.
    Tiny,
}

/// The graphs one workload runs on.
pub struct Inputs {
    /// The APSP / query / reweight instance.
    pub apsp: CsrGraph,
    /// The MCB instance (n ≈ 780). On `reweight` it is the first 16 blocks
    /// of the chain: the whole chain's ~27k de Pina phases would overflow
    /// the per-thread trace ring of a traced run.
    pub mcb: CsrGraph,
}

fn spec(name: &str) -> DatasetSpec {
    table1_specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("Table-1 spec present in ear-workloads")
}

/// Generator seed of every workload's structure — the default seed of the
/// repository's table and figure benches.
///
/// The run's seed draws the weights (and the benchmark's update and query
/// streams), not the structure: the cost of every stage depends on block
/// structure far more than on graph size (the chains analog's MCB time
/// doubles between some generator seeds at equal `n` and `m`), so a
/// structure redrawn per seed would swamp any program change in input
/// variance. A change to the generators themselves shows as a changed
/// structure line and edge-list checksum.
pub const STRUCTURE_SEED: u64 = 7;

/// Generates a workload's graphs: structure from [`STRUCTURE_SEED`],
/// weights uniform in `1..=100` from `seed`.
pub fn generate(w: Workload, size: Size, seed: u64) -> Inputs {
    match w {
        Workload::Mesh | Workload::Chains => {
            let spec = spec(if w == Workload::Mesh {
                "delaunay_n15"
            } else {
                "cond_mat_2003"
            });
            // The MCB instance runs at half the MCB benches' base size: at
            // `mcb_base_scale` one MCB took 4.4–5.5 s (12–17 s under host
            // contention), and three samples plus the reference run would
            // not fit the benchmark's time budget.
            let (apsp_scale, mcb_scale) = match size {
                Size::Full => (
                    ear_bench::base_scale(&spec),
                    2 * ear_bench::mcb_base_scale(&spec),
                ),
                Size::Tiny => (spec.n / 240, spec.n / 120),
            };
            Inputs {
                apsp: seeded_weights(&spec.build(apsp_scale, STRUCTURE_SEED), seed),
                mcb: seeded_weights(&spec.build(mcb_scale, STRUCTURE_SEED), seed ^ 0x3cb),
            }
        }
        Workload::Reweight => {
            let (blocks, mcb_blocks) = match size {
                Size::Full => (256, 16),
                Size::Tiny => (8, 4),
            };
            Inputs {
                apsp: seeded_weights(&chain_of_blocks(blocks), seed),
                mcb: seeded_weights(&chain_of_blocks(mcb_blocks), seed ^ 0x3cb),
            }
        }
    }
}

/// `g` with every weight redrawn uniformly in `1..=100` from `seed`.
fn seeded_weights(g: &CsrGraph, seed: u64) -> CsrGraph {
    let mut rng = seed;
    let w: Vec<Weight> = (0..g.m()).map(|_| 1 + splitmix(&mut rng) % 100).collect();
    g.reweighted(&w)
}

/// `blocks` biconnected parts glued into a path of articulation points
/// (part `i`'s last vertex is part `i + 1`'s first), alternating 6×8
/// triangulated grids and 48-vertex small-world graphs.
fn chain_of_blocks(blocks: usize) -> CsrGraph {
    let parts: Vec<CsrGraph> = (0..blocks as u64)
        .map(|i| {
            let s = STRUCTURE_SEED ^ (i << 40);
            if i % 2 == 0 {
                triangulated_grid(6, 8, s)
            } else {
                small_world(48, 4, 10, s)
            }
        })
        .collect();
    let total = parts.iter().map(|p| p.n()).sum::<usize>() - (blocks - 1);
    let mut b = GraphBuilder::new(total);
    let mut start = 0usize;
    for p in &parts {
        for e in p.edges() {
            b.add_edge(
                (start + e.u as usize) as VertexId,
                (start + e.v as usize) as VertexId,
                e.w,
            );
        }
        start += p.n() - 1;
    }
    b.build()
}

/// The edge-list files of one workload run.
pub struct EdgeLists {
    /// APSP instance.
    pub apsp: PathBuf,
    /// MCB instance.
    pub mcb: PathBuf,
    /// FNV-1a over both files' bytes: equal seeds give equal checksums.
    pub checksum: u64,
}

/// Writes both instances as edge lists under `dir`.
pub fn write_inputs(inputs: &Inputs, dir: &Path, tag: &str) -> std::io::Result<EdgeLists> {
    let apsp = dir.join(format!("{tag}.apsp.el"));
    let mcb = dir.join(format!("{tag}.mcb.el"));
    let mut checksum = FNV_OFFSET;
    for (g, path) in [(&inputs.apsp, &apsp), (&inputs.mcb, &mcb)] {
        let mut bytes = Vec::new();
        write_edge_list(g, &mut bytes)?;
        checksum = fnv1a(checksum, &bytes);
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&bytes)?;
        out.flush()?;
    }
    Ok(EdgeLists {
        apsp,
        mcb,
        checksum,
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: the benchmark's own deterministic stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One clustered update: a contiguous window of `max(1, m / 500)` edge ids
/// (~0.2 %) at a random start gets fresh weights in `1..=100`. Edge ids are
/// block-contiguous in the generated graphs, so one window dirties one or
/// two blocks.
pub fn clustered_update(weights: &[Weight], rng: &mut u64) -> Vec<Weight> {
    let mut w = weights.to_vec();
    let m = w.len();
    if m == 0 {
        return w;
    }
    let start = (splitmix(rng) % m as u64) as usize;
    for i in 0..(m / 500).max(1) {
        w[(start + i) % m] = 1 + splitmix(rng) % 100;
    }
    w
}

/// `count` uniform random vertex pairs.
pub fn query_pairs(n: usize, count: usize, rng: &mut u64) -> Vec<(VertexId, VertexId)> {
    (0..count)
        .map(|_| {
            let u = (splitmix(rng) % n as u64) as VertexId;
            let v = (splitmix(rng) % n as u64) as VertexId;
            (u, v)
        })
        .collect()
}
