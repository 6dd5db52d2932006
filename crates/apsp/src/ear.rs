//! The paper's §2.1.3 post-processing: distances to and from the degree-2
//! vertices that chain contraction ([`ear_decomp::reduce`]) removed, read
//! off the reduced all-sources table `S^r` of a block.
//!
//! The plan numbers every simple block *retained first*
//! ([`ear_decomp::plan`]): its `k` chain anchors are local ids `0..k`, and
//! its removed vertices follow from `k`, chain by chain in walk order. So
//! `S^r` is the leading `k × k` square of the block's span, and
//! removed vertex `k + i` is entry `i` of the block's flat [`Removed`]
//! table: its anchors, its chain, and its two chain weights at the
//! table's entry width, built once per build or refresh of the block.
//!
//! A removed vertex `x` reaches the rest of its block only through its
//! chain anchors `ℓx` and `rx`, so
//! `S[x,v] = min(wt(x,ℓx) + S[ℓx,v], wt(x,rx) + S[rx,v])` (the two-way
//! minimum) for every `v` off `x`'s chain; on it, the direct sub-chain path
//! competes too. The block's table is symmetric, so the arena stores each
//! retained–removed distance once, in the removed vertex's row (see
//! [`crate::arena`]). Both storage levels of [`crate::oracle`] evaluate the
//! minimum:
//!
//! * phase III at [`crate::ApspMethod::Ear`] writes a block's removed rows
//!   one chain at a time ([`chain_rows`]), in the manner of the
//!   "assembly" of Urakov & Timeryaev: it gathers the chain's two anchors'
//!   distances to every removed vertex from the square once, then each of
//!   the chain's rows is two two-way minima — over the anchors' square
//!   rows for its retained columns, over the gathered distances for its
//!   removed ones — and its own chain's along-chain fix;
//! * [`block_pair_dist`] — [`crate::ApspMethod::Reduced`]: one pair per
//!   query, straight from the block's `k × k` span of the arena, with the
//!   four-way analogue when both endpoints are removed.
//!
//! The table's width is picked from a bound `B` on the graph's distances
//! ([`crate::arena::entry_bytes`]), so every table entry narrows exactly.
//! The other terms of these minima — chain weights `wt(x, ℓx)`,
//! `wt(x, rx)` and along-chain distances — are lengths of paths, not
//! necessarily shortest ones, and can exceed `B`. They narrow by
//! saturating at the width's `INF`, which is exact: a term past `B`
//! exceeds every distance, so it cannot be the minimum, and saturated to
//! `INF` it still loses every minimum it took part in, while the shortest
//! term, at most `B`, is stored exactly.

use std::sync::Arc;

use ear_decomp::plan::DecompPlan;
use ear_decomp::reduce::ReducedGraph;
use ear_graph::{DistEntry, VertexId};

use crate::arena::{DistArena, Width};

/// A removed vertex of a reduced block: entry `i` of the block's table is
/// local id `k + i`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Removed<E> {
    /// `ℓx`, a retained local id (below `k`).
    left: u32,
    /// `rx`, a retained local id (below `k`).
    right: u32,
    /// The chain `x` sits on.
    chain: u32,
    /// `wt(x, ℓx)` at the table's width, saturated to its `INF` when past
    /// it (exact, see the module doc).
    w_left: E,
    /// `wt(x, rx)` at the table's width, saturated like `w_left`.
    w_right: E,
}

/// The removed-vertex table of reduction `r`, one entry per removed local
/// id `k..n` in id order.
pub(crate) fn removed_table<E: DistEntry>(r: &ReducedGraph) -> Arc<[Removed<E>]> {
    let (k, n) = (r.reduced.n() as u32, r.to_reduced.len() as u32);
    (k..n)
        .map(|x| {
            let i = r.removed_info(x).expect("ids from k on are removed");
            Removed {
                left: i.left,
                right: i.right,
                chain: i.chain,
                w_left: E::narrow(i.w_left),
                w_right: E::narrow(i.w_right),
            }
        })
        .collect()
}

/// The two-way minimum: the distance to removed `x` from a vertex whose
/// distances to `x`'s anchors `ℓx` and `rx` are `d_left` and `d_right`.
#[inline]
fn two_way<E: DistEntry>(d_left: E, d_right: E, x: &Removed<E>) -> E {
    d_left.dist_add(x.w_left).min(d_right.dist_add(x.w_right))
}

/// Phase III for chain `chain` of the block reduced by `r`, whose square
/// `S^r` is `square` (`k × k`, row-major) and whose removed vertices are
/// `removed`: writes the chain's removed rows, `rows` (each `n` wide, in
/// id order). First the two anchors' distances to every removed vertex are
/// gathered from their square rows into this thread's scratch; then each
/// row is the two-way minimum over the anchors' square rows (columns
/// `..k`) and over the gathered distances (columns `k..`), and the
/// along-chain distance wherever it is shorter, which covers the chain's
/// own columns (and sets the row's diagonal to 0). Returns the distances
/// combined.
pub(crate) fn chain_rows<E: Width>(
    r: &ReducedGraph,
    square: &[E],
    removed: &[Removed<E>],
    chain: u32,
    rows: &mut [E],
) -> u64 {
    let (k, m) = (r.reduced.n(), removed.len());
    let n = k + m;
    let first = r.chains[chain as usize].interior[0];
    // Every vertex of a chain has the chain's anchors.
    let anchors = &removed[first as usize - k];
    let [sq_l, sq_r] = [anchors.left, anchors.right].map(|a| &square[a as usize * k..][..k]);
    E::with_scratch(|gathered| {
        gathered.clear();
        for sq in [sq_l, sq_r] {
            gathered.extend(
                removed
                    .iter()
                    .map(|y| two_way(sq[y.left as usize], sq[y.right as usize], y)),
            );
        }
        let (g_l, g_r) = gathered.split_at(m);
        let mut combined = 4 * m as u64;
        for (id, row) in (first..).zip(rows.chunks_mut(n)) {
            let x = &removed[id as usize - k];
            let (head, tail) = row.split_at_mut(k);
            E::two_way_min_plus(head, sq_l, x.w_left, sq_r, x.w_right);
            E::two_way_min_plus(tail, g_l, x.w_left, g_r, x.w_right);
            for (d, w) in row[first as usize..].iter_mut().zip(r.along_chain_from(id)) {
                *d = (*d).min(E::narrow(w));
                combined += 1;
            }
            combined += 2 * n as u64;
        }
        combined
    })
}

/// Within-block distance between local ids `u` and `v` of block `b`, from
/// the block's reduced span of `tables` and its removed-vertex table: a
/// span read for two retained endpoints, the two-way minimum for one
/// removed endpoint, the four-way one for two (plus the direct sub-chain
/// path when they share a chain).
pub(crate) fn block_pair_dist<E: DistEntry>(
    plan: &DecompPlan,
    tables: &DistArena<E>,
    b: u32,
    u: VertexId,
    v: VertexId,
) -> E {
    if u == v {
        return E::default();
    }
    let (removed, k) = (tables.removed(b), tables.square_side(b));
    let entry = |x: VertexId| x.checked_sub(k).map(|i| &removed[i as usize]);
    let sr = |i, j| tables.block(b, i, j);
    match (entry(u), entry(v)) {
        (None, None) => sr(u, v),
        (None, Some(y)) => two_way(sr(u, y.left), sr(u, y.right), y),
        (Some(x), None) => two_way(sr(v, x.left), sr(v, x.right), x),
        (Some(x), Some(y)) => {
            let to_y = |a| two_way(sr(a, y.left), sr(a, y.right), y);
            let around = two_way(to_y(x.left), to_y(x.right), x);
            if x.chain != y.chain {
                return around;
            }
            // Same ear: the direct sub-chain path never leaves the ear
            // (paper: "the unique xy-path along P that does not use ℓx and
            // rx").
            let r = plan.reduction(b).expect("a removed vertex has a reduction");
            let [ix, iy] = [u, v].map(|w| r.removed_info(w).expect("removed"));
            around.min(E::narrow(ix.along_chain(&iy)))
        }
    }
}
