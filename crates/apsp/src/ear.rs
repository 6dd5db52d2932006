//! The paper's §2.1.3 post-processing: distances to and from the degree-2
//! vertices that chain contraction ([`ear_decomp::reduce`]) removed, read
//! off the reduced all-sources table `S^r` of a block.
//!
//! A removed vertex `x` reaches the rest of its block only through its
//! chain anchors `ℓx = left(x)` and `rx = right(x)`, so
//! `S[x,v] = min(wt(x,ℓx) + S^r[ℓx,v], wt(x,rx) + S^r[rx,v])` (the
//! two-way minimum). Two removed endpoints take the four-way analogue —
//! leave `x` via `ℓx` or `rx`, enter `y` via `ℓy` or `ry` — and, when
//! they sit on the same chain, also the direct sub-chain path between
//! them. Each of the three formulas is written once, as an `#[inline]`
//! helper over distances its caller has already read, and both storage
//! levels of [`crate::oracle`] call them:
//!
//! * [`extend_row`] — phase III at [`crate::ApspMethod::Ear`]: one full
//!   block row per workunit, materialised into the block's table;
//! * [`block_pair_dist`] — [`crate::ApspMethod::Reduced`]: one pair per
//!   query, straight from the block's reduced span of the arena.

use ear_decomp::plan::DecompPlan;
use ear_decomp::reduce::{ReducedGraph, RemovedInfo};
use ear_graph::{DistEntry, VertexId};
use ear_hetero::WorkCounters;

use crate::arena::DistArena;

/// The two-way minimum: the distance to removed `x` from a vertex whose
/// distances to `x`'s anchors `ℓx` and `rx` are `d_left` and `d_right`.
/// Chain weights are at most the block's total weight, so they narrow
/// exactly to any width the block's table is stored at.
#[inline]
fn two_way<E: DistEntry>(d_left: E, d_right: E, x: &RemovedInfo) -> E {
    let (wl, wr) = (E::narrow(x.w_left), E::narrow(x.w_right));
    d_left.dist_add(wl).min(d_right.dist_add(wr))
}

/// The four-way minimum between removed `x` and `y`, where `d[i][j]` is
/// the distance from `x`'s anchor `i` to `y`'s anchor `j` (0 = left,
/// 1 = right), plus the same-chain case.
#[inline]
fn four_way<E: DistEntry>(d: [[E; 2]; 2], x: &RemovedInfo, y: &RemovedInfo) -> E {
    let to_y = |from: [E; 2]| two_way(from[0], from[1], y);
    let around = two_way(to_y(d[0]), to_y(d[1]), x);
    if x.chain == y.chain {
        // Same ear: the direct sub-chain path never leaves the ear (paper:
        // "the unique xy-path along P that does not use ℓx and rx").
        around.min(E::narrow(x.along_chain(y)))
    } else {
        around
    }
}

/// Writes the full distance row of `x` in its block into `row`, from the
/// rows `sr(i)` of the block's reduced matrix (the `UPDATE_DISTANCE(s)` of
/// Algorithm 1), and returns its work counters. `n` is the block's vertex
/// count.
pub(crate) fn extend_row<'s, E: DistEntry>(
    n: usize,
    r: &ReducedGraph,
    sr: impl Fn(VertexId) -> &'s [E],
    x: VertexId,
    row: &mut [E],
) -> WorkCounters {
    assert_eq!(row.len(), n, "distance row length");
    let lid = |v: VertexId| r.to_reduced[v as usize];
    let mut combos = 0u64;
    match r.removed_info(x) {
        None => {
            // x survives into G^r: its reduced row answers retained targets
            // directly and removed targets through their two anchors.
            let sr_row = sr(lid(x));
            let at = |v| sr_row[lid(v) as usize];
            for (y, d) in (0..).zip(row.iter_mut()) {
                *d = match r.removed_info(y) {
                    None => at(y),
                    Some(iy) => {
                        combos += 2;
                        two_way(at(iy.left), at(iy.right), &iy)
                    }
                };
            }
        }
        Some(ix) => {
            let (row_l, row_r) = (sr(lid(ix.left)), sr(lid(ix.right)));
            let at = |v| {
                let l = lid(v) as usize;
                [row_l[l], row_r[l]]
            };
            for (y, d) in (0..).zip(row.iter_mut()) {
                *d = match r.removed_info(y) {
                    _ if y == x => E::default(),
                    None => {
                        combos += 2;
                        let [dl, dr] = at(y);
                        two_way(dl, dr, &ix)
                    }
                    Some(iy) => {
                        combos += 4 + u64::from(ix.chain == iy.chain);
                        let ([ll, rl], [lr, rr]) = (at(iy.left), at(iy.right));
                        four_way([[ll, lr], [rl, rr]], &ix, &iy)
                    }
                };
            }
        }
    }
    WorkCounters {
        distances_combined: combos,
        ..Default::default()
    }
}

/// Within-block distance between local ids `u` and `v` of block `b`,
/// from the block's reduced span of `tables` — one pair of
/// [`extend_row`]'s formulas, evaluated per query.
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
    let Some(r) = plan.reduction(b) else {
        return tables.block(b, u, v);
    };
    let lid = |v: VertexId| r.to_reduced[v as usize];
    let sr = |i, j| tables.block(b, lid(i), lid(j));
    match (r.removed_info(u), r.removed_info(v)) {
        (None, None) => sr(u, v),
        (None, Some(iy)) => two_way(sr(u, iy.left), sr(u, iy.right), &iy),
        (Some(ix), None) => two_way(sr(v, ix.left), sr(v, ix.right), &ix),
        (Some(ix), Some(iy)) => {
            let from = |a| [sr(a, iy.left), sr(a, iy.right)];
            four_way([from(ix.left), from(ix.right)], &ix, &iy)
        }
    }
}
