//! Fundamental identifier and weight types shared across the suite.

/// Dense vertex identifier. Graphs in this suite always have vertex ids
/// `0..n` with no holes; subgraph extraction produces remapped ids together
/// with a [`crate::subgraph::SubgraphMap`] back to the parent graph.
pub type VertexId = u32;

/// Dense edge identifier, indexing the graph's edge array. Each undirected
/// edge (including each copy of a parallel edge bundle and each self-loop)
/// has exactly one id.
pub type EdgeId = u32;

/// Exact integer edge weight. Callers with fractional weights should scale
/// to fixed point; keeping weights integral makes every distance equality in
/// the test-suite exact, which matters for cross-validating five different
/// minimum-cycle-basis implementations against each other.
pub type Weight = u64;

/// "Unreachable" sentinel distance. Chosen as `u64::MAX / 4` so that
/// `INF + w + INF` for any realistic weight still cannot wrap.
pub const INF: Weight = u64::MAX / 4;

/// An undirected edge record: endpoints plus weight.
///
/// The `(u, v)` order is the insertion order and carries no meaning; use
/// [`Edge::other`] to walk from a known endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint (equal to `u` for a self-loop).
    pub v: VertexId,
    /// Edge weight.
    pub w: Weight,
}

impl Edge {
    /// Creates an edge record.
    pub fn new(u: VertexId, v: VertexId, w: Weight) -> Self {
        Edge { u, v, w }
    }

    /// Returns the endpoint opposite `x`.
    ///
    /// For a self-loop both endpoints coincide, so the answer is `x` itself.
    ///
    /// # Panics
    /// Panics in debug builds if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        debug_assert!(x == self.u || x == self.v, "vertex {x} not on edge");
        if x == self.u {
            self.v
        } else {
            self.u
        }
    }

    /// True when both endpoints coincide.
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.u == self.v
    }

    /// Endpoints in ascending order, useful as a canonical key when
    /// deduplicating parallel edges.
    #[inline]
    pub fn key(&self) -> (VertexId, VertexId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// Saturating addition on distances that preserves the [`INF`] sentinel:
/// anything at or above `INF` stays `INF`.
#[inline]
pub fn dist_add(a: Weight, b: Weight) -> Weight {
    if a >= INF || b >= INF {
        INF
    } else {
        let s = a.saturating_add(b);
        if s >= INF {
            INF
        } else {
            s
        }
    }
}

/// One entry of a stored distance table: `u32` or `u64`, with its own
/// `INF` sentinel. A table is stored at `u32` when every finite distance
/// it can hold is below `u32::MAX` (a graph whose total edge weight is
/// below `u32::MAX`, since a shortest path uses each edge at most once),
/// and at `u64` otherwise. The trait is sealed: these are the two widths.
pub trait DistEntry:
    sealed::Sealed + Copy + Ord + Default + Send + Sync + std::fmt::Debug + 'static
{
    /// "Unreachable" at this width: `u32::MAX`, or [`INF`] at `u64`.
    const INF: Self;

    /// Stores a distance: exact below this width's `INF`, `INF` at or above.
    fn narrow(w: Weight) -> Self;

    /// Reads a distance back as a [`Weight`] (`INF` widens to [`INF`]).
    fn widen(self) -> Weight;

    /// [`dist_add`] at this width, for entries at most `INF`: a sum at or
    /// past `INF` is `INF`.
    fn dist_add(self, b: Self) -> Self;

    /// Phase II's fold of a finished row `rx` reached at distance `d`:
    /// `row[i] = min(row[i], d ⊕ rx[i])` for every `i`, with `⊕` the
    /// saturating [`dist_add`](DistEntry::dist_add). Vectorised where the
    /// CPU allows ([`kernel_path`](crate::kernel_path)).
    ///
    /// # Panics
    /// If the rows differ in length.
    #[inline]
    fn fold_min_plus(row: &mut [Self], rx: &[Self], d: Self) {
        assert_eq!(rx.len(), row.len(), "distance row length");
        crate::lanes::lanes(|| fold_min_plus_body(row, rx, d));
    }

    /// The two-way minimum over a full row:
    /// `out[i] = min(a[i] ⊕ wa, b[i] ⊕ wb)` for every `i`. Vectorised
    /// where the CPU allows ([`kernel_path`](crate::kernel_path)).
    ///
    /// # Panics
    /// If `a` or `b` differs in length from `out`.
    #[inline]
    fn two_way_min_plus(out: &mut [Self], a: &[Self], wa: Self, b: &[Self], wb: Self) {
        assert_eq!(a.len(), out.len(), "distance row length");
        assert_eq!(b.len(), out.len(), "distance row length");
        crate::lanes::lanes(|| two_way_min_plus_body(out, a, wa, b, wb));
    }
}

/// The one body of [`DistEntry::fold_min_plus`], for rows of equal length.
#[inline(always)]
fn fold_min_plus_body<E: DistEntry>(row: &mut [E], rx: &[E], d: E) {
    for (r, &t) in row.iter_mut().zip(rx) {
        *r = (*r).min(d.dist_add(t));
    }
}

/// The one body of [`DistEntry::two_way_min_plus`], for rows of equal
/// length.
#[inline(always)]
fn two_way_min_plus_body<E: DistEntry>(out: &mut [E], a: &[E], wa: E, b: &[E], wb: E) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x.dist_add(wa).min(y.dist_add(wb));
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

impl DistEntry for u32 {
    const INF: u32 = u32::MAX;

    #[inline]
    fn narrow(w: Weight) -> u32 {
        w.min(u32::MAX as Weight) as u32
    }

    #[inline]
    fn widen(self) -> Weight {
        if self == u32::MAX {
            INF
        } else {
            Weight::from(self)
        }
    }

    /// `INF` is `u32::MAX`, so saturation keeps it.
    #[inline]
    fn dist_add(self, b: u32) -> u32 {
        u32::saturating_add(self, b)
    }
}

impl DistEntry for u64 {
    const INF: u64 = INF;

    #[inline]
    fn narrow(w: Weight) -> u64 {
        w
    }

    #[inline]
    fn widen(self) -> Weight {
        self
    }

    /// Branch-free: with both terms at most `INF` the sum cannot wrap
    /// (`INF` is `u64::MAX / 4`), and clamping it equals [`dist_add`].
    #[inline]
    fn dist_add(self, b: u64) -> u64 {
        (self + b).min(INF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_other_walks_both_ways() {
        let e = Edge::new(3, 7, 10);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    fn edge_other_on_self_loop_is_identity() {
        let e = Edge::new(5, 5, 2);
        assert!(e.is_self_loop());
        assert_eq!(e.other(5), 5);
    }

    #[test]
    fn edge_key_is_canonical() {
        assert_eq!(Edge::new(9, 2, 1).key(), (2, 9));
        assert_eq!(Edge::new(2, 9, 1).key(), (2, 9));
    }

    #[test]
    fn dist_add_saturates_at_inf() {
        assert_eq!(dist_add(1, 2), 3);
        assert_eq!(dist_add(INF, 5), INF);
        assert_eq!(dist_add(5, INF), INF);
        assert_eq!(dist_add(INF - 1, INF - 1), INF);
        assert_eq!(dist_add(INF, INF), INF);
    }

    #[test]
    fn inf_headroom_cannot_wrap() {
        // Three INFs plus a large weight still fit in u64.
        assert!(INF
            .checked_add(INF)
            .and_then(|x| x.checked_add(INF))
            .is_some());
    }

    #[test]
    fn narrow_entries_round_trip_below_their_inf() {
        let top = Weight::from(u32::MAX);
        assert_eq!(<u32 as DistEntry>::narrow(top - 1).widen(), top - 1);
        assert_eq!(<u32 as DistEntry>::narrow(top), u32::MAX);
        assert_eq!(<u32 as DistEntry>::narrow(INF).widen(), INF);
        assert_eq!(<u32 as DistEntry>::INF.dist_add(1), u32::MAX);
        assert_eq!((u32::MAX - 1).dist_add(1).widen(), INF);
        assert_eq!(<u64 as DistEntry>::narrow(top).widen(), top);
        assert_eq!(DistEntry::dist_add(INF - 1, 5u64), INF);
    }

    /// Entries at width `E`, whose `INF` is `top`: small ones, `INF − 1`,
    /// `INF`, and `⌊INF/2⌋ − 1 ..= ⌊INF/2⌋ + 2`, whose pairwise sums land
    /// just below, at and past `INF`.
    fn kernel_values<E: DistEntry>(top: Weight) -> Vec<E> {
        let h = top / 2;
        [0, 1, 2, 7, h - 1, h, h + 1, h + 2, top - 1, top]
            .map(E::narrow)
            .to_vec()
    }

    /// `min(r, d ⊕ t)` by the definition: [`dist_add`] on widened
    /// entries, narrowed back.
    fn min_plus<E: DistEntry>(r: E, d: E, t: E) -> E {
        E::narrow(r.widen().min(dist_add(d.widen(), t.widen())))
    }

    /// `len` entries drawn from `values` by `state` (xorshift), so each
    /// value meets every lane position.
    fn draw<E: DistEntry>(values: &[E], len: usize, state: &mut u64) -> Vec<E> {
        (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                values[(*state % values.len() as u64) as usize]
            })
            .collect()
    }

    /// Both kernels at width `E` against their scalar bodies and the
    /// definition, entry by entry, for every length up to 70 (every vector
    /// tail) at offsets 0–3 into their buffers (unaligned rows).
    fn kernels_match_definition<E: DistEntry>(top: Weight) {
        let values = kernel_values::<E>(top);
        let mut state = crate::rng::GOLDEN_GAMMA;
        for len in 0..=70 {
            for off in 0..=3 {
                let [row, a, b] = [(); 3].map(|_| draw(&values, off + len, &mut state));
                let (row, a, b) = (&row[off..], &a[off..], &b[off..]);
                for &d in &values {
                    let mut fast = row.to_vec();
                    E::fold_min_plus(&mut fast, a, d);
                    let mut body = row.to_vec();
                    fold_min_plus_body(&mut body, a, d);
                    for i in 0..len {
                        let want = min_plus(row[i], d, a[i]);
                        assert_eq!(fast[i], want, "fold len {len} off {off} d {d:?} at {i}");
                        assert_eq!(body[i], want, "fold body len {len} off {off} at {i}");
                    }
                    for &wb in &values {
                        let mut fast = vec![E::default(); len];
                        E::two_way_min_plus(&mut fast, a, d, b, wb);
                        let mut body = vec![E::default(); len];
                        two_way_min_plus_body(&mut body, a, d, b, wb);
                        for i in 0..len {
                            let want = min_plus(min_plus(E::INF, d, a[i]), wb, b[i]);
                            assert_eq!(fast[i], want, "two-way len {len} off {off} at {i}");
                            assert_eq!(body[i], want, "two-way body len {len} off {off} at {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn u32_kernels_match_definition() {
        kernels_match_definition::<u32>(Weight::from(u32::MAX));
    }

    #[test]
    fn u64_kernels_match_definition() {
        kernels_match_definition::<u64>(INF);
    }

    /// Every kernel call whose rows differ in length panics, at both
    /// widths, whichever row is short.
    #[test]
    fn kernels_reject_rows_of_other_lengths() {
        fn rejects<E: DistEntry>() {
            let (long, short) = ([E::default(); 9], [E::default(); 8]);
            let d = E::default();
            let calls: [&dyn Fn(); 5] = [
                &|| E::fold_min_plus(&mut long.clone(), &short, d),
                &|| E::fold_min_plus(&mut short.clone(), &long, d),
                &|| E::two_way_min_plus(&mut long.clone(), &short, d, &long, d),
                &|| E::two_way_min_plus(&mut long.clone(), &long, d, &short, d),
                &|| E::two_way_min_plus(&mut short.clone(), &long, d, &long, d),
            ];
            for (i, call) in calls.iter().enumerate() {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                    .expect_err("a length mismatch panics");
                let msg = err.downcast_ref::<String>().expect("assert_eq! message");
                assert!(msg.contains("distance row length"), "call {i}: {msg}");
            }
        }
        rejects::<u32>();
        rejects::<u64>();
    }
}
