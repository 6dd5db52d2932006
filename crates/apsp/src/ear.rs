//! The paper's §2.1.3 post-processing: distances to and from the degree-2
//! vertices that chain contraction ([`ear_decomp::reduce`]) removed, read
//! off the reduced all-sources table `S^r` of a block.
//!
//! The plan numbers every simple block *retained first*
//! ([`ear_decomp::plan`]): its `k` chain anchors are local ids `0..k`, and
//! its removed vertices follow from `k`, chain by chain in walk order. So
//! `S^r` is the leading `k × k` submatrix of the block's full table, and
//! removed vertex `k + i` is entry `i` of the block's flat [`Removed`]
//! table: its anchors, its chain, and its two chain weights at the
//! table's entry width, built once per build or refresh of the block.
//!
//! A removed vertex `x` reaches the rest of its block only through its
//! chain anchors `ℓx` and `rx`, so
//! `S[x,v] = min(wt(x,ℓx) + S[ℓx,v], wt(x,rx) + S[rx,v])` (the two-way
//! minimum) for every `v` off `x`'s chain; on it, the direct sub-chain path
//! competes too. Both storage levels of [`crate::oracle`] evaluate it:
//!
//! * phase III at [`crate::ApspMethod::Ear`] completes a block's table in
//!   place, in two streaming passes over its span: each retained row fills
//!   its removed columns `row[k..]` from its own anchor columns
//!   ([`fill_removed_columns`]); then each removed row takes the two-way
//!   minimum of its anchors' finished rows over the full width and fixes
//!   its own chain's entries ([`removed_row`]);
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

use crate::arena::DistArena;

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

/// Phase III, pass 1, for one retained row of a block whose removed
/// vertices are `removed`: the row's leading `k` entries are phase II's,
/// and each removed column `row[k + i]` becomes the two-way minimum over
/// the row's own anchor columns. Returns the distances combined.
pub(crate) fn fill_removed_columns<E: DistEntry>(row: &mut [E], removed: &[Removed<E>]) -> u64 {
    let (head, tail) = row.split_at_mut(row.len() - removed.len());
    for (d, x) in tail.iter_mut().zip(removed) {
        *d = two_way(head[x.left as usize], head[x.right as usize], x);
    }
    2 * removed.len() as u64
}

/// Phase III, pass 2: the full row of removed vertex `id` (table entry
/// `x`) of the block reduced by `r`, from its anchors' finished rows in
/// `retained` (the block's first `k` rows, row-major): the two-way minimum
/// over the full width, then the along-chain distance wherever it is
/// shorter, which covers `x`'s chain (and sets `row[id]` to 0). Returns
/// the distances combined.
pub(crate) fn removed_row<E: DistEntry>(
    r: &ReducedGraph,
    retained: &[E],
    id: VertexId,
    x: &Removed<E>,
    row: &mut [E],
) -> u64 {
    let n = row.len();
    let (l, rt) = (x.left as usize * n, x.right as usize * n);
    let (row_l, row_r) = (&retained[l..l + n], &retained[rt..rt + n]);
    E::two_way_min_plus(row, row_l, x.w_left, row_r, x.w_right);
    let first = r.chains[x.chain as usize].interior[0] as usize;
    let mut fixed = 0;
    for (d, w) in row[first..].iter_mut().zip(r.along_chain_from(id)) {
        *d = (*d).min(E::narrow(w));
        fixed += 1;
    }
    2 * n as u64 + fixed
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
    let (removed, k) = (tables.removed(b), tables.side(b) as u32);
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
