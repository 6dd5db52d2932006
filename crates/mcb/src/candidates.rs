//! Candidate cycle generation and storage.
//!
//! Following Mehlhorn–Michail (paper §3.3.2): compute one shortest-path
//! tree `T_z` per feedback-vertex-set member `z`; for every non-tree edge
//! `e = uv` of `T_z` whose `T_z`-LCA is `z` itself, the cycle
//! `C_ze = path(z→u) + e + path(v→z)` with weight `d_z(u) + w(e) + d_z(v)`
//! is a candidate. The collection over all `z` is a superset of some MCB
//! (under shortest-path tie-breaking assumptions; the caller keeps the
//! signed-graph search as a backstop — see `crate::depina`).
//!
//! Cycles are kept **implicit** as `(z, e)` pairs — materialising all
//! `O(n·m)` of them would dwarf the graph. The weight-sorted set lives in
//! the paper's hybrid structure ([`CycleStore`]): a linked list of fixed
//! -size array nodes, deletions marked by setting the weight's MSB
//! (the paper's "setting off the MSB"), nodes compacted once half-dead.

use ear_decomp::fvs::feedback_vertex_set;
use ear_graph::{CsrGraph, EdgeId, SsspTree, VertexId, Weight};
use ear_hetero::WorkCounters;
use rayon::prelude::*;

pub use ear_hetero::counters::group_units;

/// One implicit candidate cycle `C_ze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandRef {
    /// Cycle weight, with the MSB reserved as the deletion mark.
    pub weight: Weight,
    /// Index of `z` in the FVS list.
    pub z_idx: u32,
    /// The closing non-tree edge `e` of `T_z`.
    pub edge: EdgeId,
}

const DEAD: Weight = 1 << 63;

impl CandRef {
    /// True once removed from the store.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.weight & DEAD != 0
    }

    /// Weight without the deletion mark.
    #[inline]
    pub fn live_weight(&self) -> Weight {
        self.weight & !DEAD
    }
}

/// Fixed node capacity of the hybrid store (the paper's "constant sized
/// array as its base element").
const NODE_CAP: usize = 64;

/// The hybrid linked-list-of-arrays cycle store.
#[derive(Clone, Debug)]
pub struct CycleStore {
    nodes: Vec<Vec<CandRef>>,
    next: Vec<u32>,
    head: u32,
    live: usize,
}

impl CycleStore {
    /// Builds the store from candidates already sorted by weight.
    pub fn from_sorted(cands: Vec<CandRef>) -> Self {
        let mut nodes = Vec::new();
        for chunk in cands.chunks(NODE_CAP) {
            nodes.push(chunk.to_vec());
        }
        let live = nodes.iter().map(|n| n.len()).sum();
        let n = nodes.len();
        let mut next: Vec<u32> = (1..n as u32).collect();
        if n > 0 {
            next.push(u32::MAX);
        }
        CycleStore {
            nodes,
            next,
            head: if n == 0 { u32::MAX } else { 0 },
            live,
        }
    }

    /// Live candidates remaining.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Scans in weight order for the first live candidate accepted by
    /// `pred`, removing and returning it. `pred` also receives the running
    /// count of inspected candidates through its return; the store reports
    /// how many were inspected via the out-parameter.
    pub fn take_first<F: FnMut(&CandRef) -> bool>(
        &mut self,
        mut pred: F,
        inspected: &mut u64,
    ) -> Option<CandRef> {
        let mut prev = u32::MAX;
        let mut at = self.head;
        while at != u32::MAX {
            let node = &mut self.nodes[at as usize];
            let mut found: Option<usize> = None;
            for (i, c) in node.iter().enumerate() {
                if c.is_dead() {
                    continue;
                }
                *inspected += 1;
                if pred(c) {
                    found = Some(i);
                    break;
                }
            }
            if let Some(i) = found {
                let mut out = node[i];
                node[i].weight |= DEAD;
                out.weight &= !DEAD;
                self.live -= 1;
                self.compact_or_unlink(prev, at);
                return Some(out);
            }
            prev = at;
            at = self.next[at as usize];
        }
        None
    }

    /// Compacts a node once at least half its slots are dead; unlinks it
    /// entirely when empty (the paper's reorder-on-half-dead policy).
    fn compact_or_unlink(&mut self, prev: u32, at: u32) {
        let node = &mut self.nodes[at as usize];
        let dead = node.iter().filter(|c| c.is_dead()).count();
        if dead * 2 < node.len() {
            return;
        }
        node.retain(|c| !c.is_dead());
        if node.is_empty() {
            let after = self.next[at as usize];
            if prev == u32::MAX {
                self.head = after;
            } else {
                self.next[prev as usize] = after;
            }
        }
    }

    /// Iterates live candidates in weight order (tests / diagnostics).
    pub fn iter_live(&self) -> impl Iterator<Item = &CandRef> + '_ {
        LiveIter {
            store: self,
            at: self.head,
            idx: 0,
        }
    }
}

struct LiveIter<'a> {
    store: &'a CycleStore,
    at: u32,
    idx: usize,
}

impl<'a> Iterator for LiveIter<'a> {
    type Item = &'a CandRef;
    fn next(&mut self) -> Option<&'a CandRef> {
        while self.at != u32::MAX {
            let node = &self.store.nodes[self.at as usize];
            while self.idx < node.len() {
                let c = &node[self.idx];
                self.idx += 1;
                if !c.is_dead() {
                    return Some(c);
                }
            }
            self.at = self.store.next[self.at as usize];
            self.idx = 0;
        }
        None
    }
}

/// The generated candidate set: FVS, per-`z` SSSP trees (with per-tree
/// top-child arrays for the O(1) LCA-is-root test), and the sorted store.
///
/// `Clone` exists so benchmarks can snapshot a generated set and replay
/// the (store-consuming) phase loop from the same starting state.
#[derive(Clone)]
pub struct Candidates {
    /// Feedback vertex set members.
    pub z: Vec<VertexId>,
    /// `trees[i]` is the shortest-path tree rooted at `z[i]`.
    pub trees: Vec<SsspTree>,
    /// `top_child[i][u]`: the depth-1 ancestor of `u` in `trees[i]`
    /// (`u32::MAX` at the root / unreachable).
    pub top_child: Vec<Vec<VertexId>>,
    /// Per-tree top-down vertex order (parents before children), computed
    /// once so the per-phase label passes need no re-sorting.
    pub order: Vec<Vec<VertexId>>,
    /// Weight-sorted candidate store.
    pub store: CycleStore,
    /// Cost groups of the tree-construction phase: `(size hint, counters,
    /// unit count)` — the recording the device-model replay consumes.
    pub tree_units: Vec<(u64, WorkCounters, u64)>,
}

impl Candidates {
    /// Materialises the explicit cycle of a candidate: tree paths from both
    /// endpoints of `e` to the root `z`, plus `e` itself.
    pub fn materialize(&self, g: &CsrGraph, c: &CandRef) -> Vec<EdgeId> {
        let t = &self.trees[c.z_idx as usize];
        let r = g.edge(c.edge);
        let mut edges = t.path_edges_to_root(r.u).expect("endpoint reachable");
        edges.extend(t.path_edges_to_root(r.v).expect("endpoint reachable"));
        edges.push(c.edge);
        edges
    }
}

/// Generates the candidate set for `g`, building the per-`z` trees in
/// parallel (one workunit per FVS vertex — paper §3.4 runs exactly these
/// trees "simultaneously on both the CPU and the GPU"; here the real work
/// runs on the Rayon pool and the cost groups are recorded for the device
/// replay).
pub fn generate(g: &CsrGraph) -> Candidates {
    let z = feedback_vertex_set(g);
    let m_hint = g.m() as u64 + 1;
    let results: Vec<(SsspTree, WorkCounters)> = z
        .par_iter()
        .map(|&root| {
            // Pooled engine: scratch survives across the roots a worker
            // thread handles.
            ear_graph::with_engine(|eng| {
                let stats = eng.run_tree(g, root);
                let c = WorkCounters {
                    edges_relaxed: stats.edges_relaxed,
                    vertices_settled: stats.settled,
                    ..Default::default()
                };
                (eng.tree(), c)
            })
        })
        .collect();
    let tree_units = group_units(m_hint, results.iter().map(|(_, c)| *c));
    let trees: Vec<SsspTree> = results.into_iter().map(|(t, _)| t).collect();

    // Per tree: depth-1 ancestors (top-child array — lca(u,v) == root iff
    // u or v is the root, or their top children differ) and xor path
    // hashes (`ph(u)` = xor of edge hashes on the root path), which give an
    // exact content signature for a candidate cycle without materialising
    // it: sig = ph(u) ^ ph(v) ^ h(e).
    let mut top_child: Vec<Vec<VertexId>> = Vec::with_capacity(trees.len());
    let mut path_hash: Vec<Vec<u64>> = Vec::with_capacity(trees.len());
    let mut order: Vec<Vec<VertexId>> = Vec::with_capacity(trees.len());
    for t in &trees {
        let n = t.dist.len();
        let mut tc = vec![u32::MAX; n];
        let mut ph = vec![0u64; n];
        let ord = t.top_down_order();
        for &u in &ord {
            if u == t.source {
                continue;
            }
            let p = t.parent_vertex[u as usize];
            tc[u as usize] = if p == t.source { u } else { tc[p as usize] };
            ph[u as usize] = ph[p as usize] ^ splitmix64(t.parent_edge[u as usize] as u64);
        }
        top_child.push(tc);
        path_hash.push(ph);
        order.push(ord);
    }

    // Enumerate candidates: non-tree edges of each T_z whose LCA is z.
    // The same cycle reached from several roots is deduplicated by its
    // exact content signature (weight + xor of per-edge hashes): xor
    // hashing is order-free, so identical edge sets collide by design and
    // distinct ones by 2⁻⁶⁴ accident — recoverable through the signed
    // backstop in any case.
    let mut cands: Vec<CandRef> = Vec::new();
    let mut seen = std::collections::HashSet::<(Weight, u64)>::new();
    for (zi, t) in trees.iter().enumerate() {
        let tc = &top_child[zi];
        let ph = &path_hash[zi];
        for e in 0..g.m() as u32 {
            let r = g.edge(e);
            if r.is_self_loop() {
                // A self-loop is a one-edge cycle through its vertex; emit
                // it from that vertex's own tree only.
                if r.u == t.source && seen.insert((r.w, splitmix64(e as u64))) {
                    cands.push(CandRef {
                        weight: r.w,
                        z_idx: zi as u32,
                        edge: e,
                    });
                }
                continue;
            }
            if !t.reachable(r.u) || !t.reachable(r.v) {
                continue;
            }
            // Tree edges of T_z close no cycle.
            if t.parent_edge[r.u as usize] == e || t.parent_edge[r.v as usize] == e {
                continue;
            }
            let lca_is_root =
                r.u == t.source || r.v == t.source || tc[r.u as usize] != tc[r.v as usize];
            if !lca_is_root {
                continue;
            }
            let w = t.dist[r.u as usize] + r.w + t.dist[r.v as usize];
            let sig = ph[r.u as usize] ^ ph[r.v as usize] ^ splitmix64(e as u64);
            if seen.insert((w, sig)) {
                cands.push(CandRef {
                    weight: w,
                    z_idx: zi as u32,
                    edge: e,
                });
            }
        }
    }
    cands.sort_by_key(|c| (c.weight, c.edge, c.z_idx));
    let store = CycleStore::from_sorted(cands);
    Candidates {
        z,
        trees,
        top_child,
        order,
        store,
        tree_units,
    }
}

/// 64-bit finaliser (splitmix64): spreads edge ids into xor-combinable
/// content hashes.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    fn gen(g: &CsrGraph) -> Candidates {
        generate(g)
    }

    #[test]
    fn triangle_has_one_candidate() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let c = gen(&g);
        assert_eq!(c.z.len(), 1);
        assert_eq!(c.store.live(), 1);
        let cand = *c.store.iter_live().next().unwrap();
        assert_eq!(cand.live_weight(), 3);
        let edges = c.materialize(&g, &cand);
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        // 0-1-2-0 and 1-2-3-1: f = 2, candidates must include both light
        // triangles (weight 3 each), not only the outer square.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 1, 1)]);
        let c = gen(&g);
        let weights: Vec<Weight> = c.store.iter_live().map(|c| c.live_weight()).collect();
        assert!(weights.len() >= 2, "{weights:?}");
        assert_eq!(weights[0], 3);
        assert_eq!(weights[1], 3);
        // sorted order
        let mut sorted = weights.clone();
        sorted.sort_unstable();
        assert_eq!(weights, sorted);
    }

    #[test]
    fn self_loop_is_a_candidate() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1), (0, 1, 2), (0, 0, 7)]);
        let c = gen(&g);
        let weights: Vec<Weight> = c.store.iter_live().map(|c| c.live_weight()).collect();
        assert!(weights.contains(&3), "parallel pair cycle: {weights:?}");
        assert!(weights.contains(&7), "self-loop cycle: {weights:?}");
    }

    #[test]
    fn materialized_candidate_weight_matches() {
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (4, 0, 6),
                (1, 3, 7),
            ],
        );
        let c = gen(&g);
        for cand in c.store.iter_live() {
            let edges = c.materialize(&g, cand);
            // Cancel duplicates mod 2 before weighing.
            let mut count = std::collections::HashMap::new();
            for &e in &edges {
                *count.entry(e).or_insert(0u32) += 1;
            }
            let w: Weight = count
                .iter()
                .filter(|(_, &c)| c % 2 == 1)
                .map(|(&e, _)| g.weight(e))
                .sum();
            assert_eq!(w, cand.live_weight());
        }
    }

    #[test]
    fn store_take_first_respects_order_and_removes() {
        let cands: Vec<CandRef> = (0..200)
            .map(|i| CandRef {
                weight: i as Weight,
                z_idx: 0,
                edge: i,
            })
            .collect();
        let mut store = CycleStore::from_sorted(cands);
        let mut inspected = 0;
        // Take the first with even weight >= 5 → 6.
        let c = store
            .take_first(
                |c| c.live_weight() >= 5 && c.live_weight() % 2 == 0,
                &mut inspected,
            )
            .unwrap();
        assert_eq!(c.live_weight(), 6);
        assert_eq!(store.live(), 199);
        assert!(inspected >= 7);
        // 6 is gone; next even >= 5 is 8.
        let c2 = store
            .take_first(
                |c| c.live_weight() >= 5 && c.live_weight() % 2 == 0,
                &mut inspected,
            )
            .unwrap();
        assert_eq!(c2.live_weight(), 8);
    }

    #[test]
    fn store_compaction_unlinks_empty_nodes() {
        let cands: Vec<CandRef> = (0..NODE_CAP as u32 * 3)
            .map(|i| CandRef {
                weight: i as Weight,
                z_idx: 0,
                edge: i,
            })
            .collect();
        let mut store = CycleStore::from_sorted(cands);
        let mut ins = 0;
        // Drain the entire first node.
        for _ in 0..NODE_CAP {
            store.take_first(|_| true, &mut ins).unwrap();
        }
        assert_eq!(store.live(), NODE_CAP * 2);
        // First live candidate is now from the second node; the scan must
        // not crawl over the dead first node's slots.
        let before = ins;
        let c = store.take_first(|_| true, &mut ins).unwrap();
        assert_eq!(c.live_weight(), NODE_CAP as Weight);
        assert_eq!(ins - before, 1, "dead node should be unlinked");
    }

    #[test]
    fn empty_store() {
        let mut store = CycleStore::from_sorted(Vec::new());
        let mut ins = 0;
        assert!(store.take_first(|_| true, &mut ins).is_none());
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn forest_has_no_candidates() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 1)]);
        let c = gen(&g);
        assert_eq!(c.store.live(), 0);
        assert!(c.z.is_empty());
    }
}
