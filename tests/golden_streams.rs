//! Golden streams: every seeded generator is pinned to a fingerprint of
//! the graph it builds, and the test-case RNG to its first draws. Each
//! seeded stream in the workspace is a SplitMix64 sequence; a change to
//! how one is drawn or reduced to a range moves a constant here, and
//! every recorded experiment with it.

use ear_graph::CsrGraph;
use ear_testkit::rng::{derive_seed, TestRng};
use ear_workloads::combinators::{attach_pendants, attach_satellite_blocks, subdivide_edges};
use ear_workloads::generators::{
    grid, power_law, random_connected, random_min_deg3, small_world, triangulated_grid,
};
use ear_workloads::specs::BaseKind;
use ear_workloads::table1_specs;

/// FNV-1a over `n` and the edge list `(u, v, w)` in edge-id order.
fn fingerprint(g: &CsrGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = std::iter::once(g.n() as u64)
        .chain(g.edges().iter().flat_map(|e| [e.u as u64, e.v as u64, e.w]));
    for x in words {
        for byte in x.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn generators_are_pinned() {
    let got = [
        fingerprint(&grid(9, 13, 1)),
        fingerprint(&triangulated_grid(11, 7, 2)),
        fingerprint(&power_law(300, 3, 3)),
        fingerprint(&small_world(200, 3, 12, 4)),
        fingerprint(&random_connected(150, 400, 5)),
        fingerprint(&random_min_deg3(120, 200, 6)),
    ];
    assert_eq!(got, GENERATORS, "{got:#018x?}");
}

#[test]
fn combinators_are_pinned() {
    let base = triangulated_grid(10, 10, 7);
    let got = [
        fingerprint(&subdivide_edges(&base, 40, 2, 8)),
        fingerprint(&attach_pendants(&base, 30, 9)),
        fingerprint(&attach_satellite_blocks(&base, 12, 4, 10)),
    ];
    assert_eq!(got, COMBINATORS, "{got:#018x?}");
}

#[test]
fn one_table1_row_per_base_kind_is_pinned() {
    let specs = table1_specs();
    let kinds = [
        BaseKind::Mesh,
        BaseKind::PowerLaw,
        BaseKind::SmallWorld,
        BaseKind::RandomCore,
    ];
    let got = kinds.map(|kind| {
        let spec = specs.iter().find(|s| s.base == kind).unwrap();
        fingerprint(&spec.build(16, 1))
    });
    assert_eq!(got, TABLE1_ROWS, "{got:#018x?}");
}

#[test]
fn test_rng_first_draws_are_pinned() {
    let mut a = TestRng::new(0);
    let mut b = TestRng::new(0xdead_beef);
    let got = [
        a.next_u64(),
        a.next_u64(),
        b.next_u64(),
        b.next_u64(),
        derive_seed(1, 0),
        derive_seed(1, 1),
        derive_seed(0x5eed, 42),
    ];
    assert_eq!(got, RNG_DRAWS, "{got:#018x?}");
}

const GENERATORS: [u64; 6] = [
    0x46e6_f72f_a853_85ee,
    0xfb93_e180_ca8a_366d,
    0x80e6_2f10_1815_4238,
    0x31bb_62e5_1d2b_fe16,
    0x056e_4226_7d84_852d,
    0x04a5_eec3_f205_9bad,
];
const COMBINATORS: [u64; 3] = [
    0x0f7e_b72e_df56_59a4,
    0xf835_9af4_7406_ee20,
    0x4f33_b39a_6289_dff8,
];
const TABLE1_ROWS: [u64; 4] = [
    0x14d2_fc0b_4361_3ffb,
    0xa637_d638_ac07_8a81,
    0xa8d9_75b5_534b_02b1,
    0x11b9_3668_7b37_b66a,
];
const RNG_DRAWS: [u64; 7] = [
    0xe220_a839_7b1d_cdaf,
    0x6e78_9e6a_a1b9_65f4,
    0x4adf_b90f_68c9_eb9b,
    0xde58_6a31_41a1_0922,
    0x5692_161d_100b_05e5,
    0xe4d9_7177_1b65_2c20,
    0x0372_366a_ca28_b4a3,
];
