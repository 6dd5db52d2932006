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
use ear_graph::{dist_add, VertexId, Weight};
use ear_hetero::WorkCounters;

use crate::arena::DistArena;
use crate::matrix::DistMatrix;

/// The two-way minimum: the distance to removed `x` from a vertex whose
/// distances to `x`'s anchors `ℓx` and `rx` are `d_left` and `d_right`.
#[inline]
fn two_way(d_left: Weight, d_right: Weight, x: &RemovedInfo) -> Weight {
    dist_add(d_left, x.w_left).min(dist_add(d_right, x.w_right))
}

/// The four-way minimum between removed `x` and `y`, where `d[i][j]` is
/// the distance from `x`'s anchor `i` to `y`'s anchor `j` (0 = left,
/// 1 = right), plus the same-chain case.
#[inline]
fn four_way(d: [[Weight; 2]; 2], x: &RemovedInfo, y: &RemovedInfo) -> Weight {
    let to_y = |from: [Weight; 2]| two_way(from[0], from[1], y);
    let around = two_way(to_y(d[0]), to_y(d[1]), x);
    if x.chain == y.chain {
        // Same ear: the direct sub-chain path never leaves the ear (paper:
        // "the unique xy-path along P that does not use ℓx and rx").
        around.min(x.along_chain(y))
    } else {
        around
    }
}

/// Writes the full distance row of `x` in its block into `row`, from the
/// block's reduced matrix `sr` (the `UPDATE_DISTANCE(s)` of Algorithm 1),
/// and returns its work counters. `n` is the block's vertex count.
pub(crate) fn extend_row(
    n: usize,
    r: &ReducedGraph,
    sr: &DistMatrix,
    x: VertexId,
    row: &mut [Weight],
) -> WorkCounters {
    assert_eq!(row.len(), n, "distance row length");
    let lid = |v: VertexId| r.to_reduced[v as usize];
    let mut combos = 0u64;
    match r.removed_info(x) {
        None => {
            // x survives into G^r: its reduced row answers retained targets
            // directly and removed targets through their two anchors.
            let sr_row = sr.row(lid(x));
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
            let (row_l, row_r) = (sr.row(lid(ix.left)), sr.row(lid(ix.right)));
            let at = |v| {
                let l = lid(v) as usize;
                [row_l[l], row_r[l]]
            };
            for (y, d) in (0..).zip(row.iter_mut()) {
                *d = match r.removed_info(y) {
                    _ if y == x => 0,
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
pub(crate) fn block_pair_dist(
    plan: &DecompPlan,
    tables: &DistArena,
    b: u32,
    u: VertexId,
    v: VertexId,
) -> Weight {
    if u == v {
        return 0;
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
