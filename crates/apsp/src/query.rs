//! The serving handle: an oracle's plan and distance arena, shared.
//!
//! [`QueryEngine`] holds two [`Arc`]s — the [`DecompPlan`], whose
//! weight-independent block-cut-tree router resolves every query's
//! articulation points, and the oracle's [`DistArena`] — plus the
//! oracle's [`ApspMethod`], and nothing it computes itself. Building one
//! or following an oracle refresh copies no table and folds no distance:
//! [`QueryEngine::dist`] is the same block-cut-tree distance function as
//! [`DistanceOracle::dist`] (at most three within-block reads, each a
//! span lookup or, at [`ApspMethod::Reduced`], the §2.1.3 minima) and
//! [`QueryEngine::path`] the same descent as [`DistanceOracle::path`];
//! the engine only drops the oracle's build reports from the serving path.
//!
//! `tests/query_fastpath_differential.rs` holds the engine and the oracle
//! at every method, and their refreshes, to Floyd–Warshall on every
//! testkit family.

use std::sync::Arc;

use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, VertexId, Weight};

use crate::arena::DistArena;
use crate::oracle::{realize_path, tree_dist, ApspMethod, DistanceOracle};

/// The serving-grade query layer over a built [`DistanceOracle`]: its plan
/// and its arena, both shared (cloning the engine clones two `Arc`s), and
/// the method that laid the arena out.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    plan: Arc<DecompPlan>,
    tables: Arc<DistArena>,
    method: ApspMethod,
}

impl QueryEngine {
    /// Serves `oracle`'s tables through its plan's router (no table is
    /// copied).
    pub fn new(oracle: &DistanceOracle) -> QueryEngine {
        let _span = ear_obs::span_with("query.build", oracle.plan().n() as u64);
        let engine = QueryEngine {
            plan: Arc::clone(oracle.plan()),
            tables: Arc::clone(oracle.tables()),
            method: oracle.method(),
        };
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.engines", 1);
            ear_obs::counter_add("query.gateway_records", engine.gateway_records() as u64);
        }
        engine
    }

    /// Follows an incremental oracle refresh: serves the refreshed
    /// oracle's plan and arena (copying nothing).
    ///
    /// # Panics
    /// Panics unless `oracle`'s plan shares this engine's plan topology.
    pub fn recustomized(&self, oracle: &DistanceOracle) -> QueryEngine {
        assert!(
            self.plan.shares_topology(oracle.plan()),
            "recustomized requires an oracle sharing this engine's topology"
        );
        let _span = ear_obs::span("query.refresh");
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.refreshes", 1);
        }
        QueryEngine {
            plan: Arc::clone(oracle.plan()),
            tables: Arc::clone(oracle.tables()),
            method: oracle.method(),
        }
    }

    /// Shortest-path distance between any two vertices (`INF` when
    /// disconnected).
    #[inline]
    pub fn dist(&self, u: VertexId, v: VertexId) -> Weight {
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.p2p", 1);
        }
        self.dist_uncounted(u, v)
    }

    #[inline]
    fn dist_uncounted(&self, u: VertexId, v: VertexId) -> Weight {
        tree_dist(&self.plan, &self.tables, self.method, u, v)
    }

    /// Reconstructs an actual shortest path `u → v` (inclusive of both
    /// endpoints), `None` when disconnected — the same descent, and so
    /// the same path, as [`DistanceOracle::path`].
    pub fn path(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        if ear_obs::is_enabled() {
            ear_obs::counter_add("query.paths", 1);
        }
        realize_path(g, u, v, |x, y| self.dist_uncounted(x, y))
    }

    /// The decomposition plan this engine serves.
    pub fn plan(&self) -> &Arc<DecompPlan> {
        &self.plan
    }

    /// Block → AP gateway entries of the router (`Σ` APs per block).
    pub fn gateway_records(&self) -> usize {
        self.plan.bct().gateway_entries()
    }

    /// Entries in the distance arena (`a² + Σ nᵢ²`, or `a² + Σ (nᵢʳ)²` at
    /// [`ApspMethod::Reduced`]), shared with the oracle — not a copy.
    pub fn arena_entries(&self) -> usize {
        self.tables.entries()
    }

    /// The distance arena this engine reads: the serving oracle's own
    /// [`DistanceOracle::tables`] allocation.
    pub fn tables(&self) -> &Arc<DistArena> {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::floyd_warshall;
    use crate::oracle::{build_oracle, build_oracle_with_plan, ApspMethod};
    use ear_graph::INF;
    use ear_hetero::HeteroExecutor;

    /// triangle — bridge — square — pendant (same shape as the oracle
    /// tests).
    fn mixed_graph() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 0, 4),
                (2, 3, 5),
                (3, 4, 1),
                (4, 5, 2),
                (5, 6, 3),
                (6, 3, 4),
                (5, 7, 9),
            ],
        )
    }

    const METHODS: [ApspMethod; 3] = [ApspMethod::Ear, ApspMethod::Plain, ApspMethod::Reduced];

    #[test]
    fn dist_matches_floyd_warshall_on_every_pair() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let fw = floyd_warshall(&g);
        for method in METHODS {
            let q = QueryEngine::new(&build_oracle(&g, &exec, method));
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    assert_eq!(q.dist(u, v), fw.get(u, v), "{method:?} ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn path_matches_oracle_path() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        for method in METHODS {
            let oracle = build_oracle(&g, &exec, method);
            let q = QueryEngine::new(&oracle);
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    assert_eq!(
                        q.path(&g, u, v),
                        oracle.path(&g, u, v),
                        "{method:?} ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_inf() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (2, 3, 1)]);
        let exec = HeteroExecutor::sequential();
        let oracle = build_oracle(&g, &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);
        assert_eq!(q.dist(0, 2), INF);
        assert_eq!(q.dist(0, 4), INF); // isolated
        assert_eq!(q.dist(4, 4), 0);
        assert!(q.path(&g, 0, 2).is_none());
    }

    #[test]
    fn refresh_serves_the_refreshed_oracle_arena() {
        let g = mixed_graph();
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        let oracle = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
        let q = QueryEngine::new(&oracle);
        // One store: the engine reads the oracle's arena, not a copy.
        assert!(Arc::ptr_eq(q.tables(), oracle.tables()));

        let w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        let noop_oracle = oracle.recustomized(Arc::new(plan.recustomized(&w)), &exec);
        let noop = q.recustomized(&noop_oracle);
        assert!(q.plan().shares_topology(noop.plan()));
        assert!(Arc::ptr_eq(q.tables(), noop.tables()));

        let mut w2 = w.clone();
        w2[0] = 50; // triangle block only
        let warm_plan = Arc::new(plan.recustomized(&w2));
        let warm_oracle = oracle.recustomized(Arc::clone(&warm_plan), &exec);
        let warm = q.recustomized(&warm_oracle);
        assert!(Arc::ptr_eq(warm.plan(), &warm_plan));
        assert!(Arc::ptr_eq(warm.tables(), warm_oracle.tables()));
        let fw = floyd_warshall(&g.reweighted(&w2));
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(warm.dist(u, v), fw.get(u, v), "({u},{v})");
            }
        }
    }
}
