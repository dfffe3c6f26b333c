//! Property-based tests for the combinatorial substrate.

use proptest::prelude::*;
use wrsn_algo::assignment::hungarian;
use wrsn_algo::kmeans::kmeans;
use wrsn_algo::ktour::{min_max_ktours, tour_delay};
use wrsn_algo::tsp::{
    build_tour, greedy_edge, is_permutation, nearest_neighbor, or_opt, tour_length, two_opt,
};
use wrsn_algo::{
    is_independent_set, is_maximal_independent_set, maximal_independent_set, Graph, MisOrder,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_geom::{dist_matrix, DistanceMatrix, Metric, Point, VirtualNodeMetric};

fn arb_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), min..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Points on a 6×6 integer grid: many equal edge weights and duplicate
/// points (zero-weight edges), so the greedy-edge tie order decides.
fn arb_grid_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0u8..6, 0u8..6), min..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point::new(f64::from(x), f64::from(y)))
            .collect()
    })
}

/// `n` points in `clusters` tight blobs across a 1,000 m field.
fn clustered(seed: u64, n: usize, clusters: usize) -> Vec<Point> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
        .collect();
    (0..n)
        .map(|i| {
            let c = centers[i % clusters];
            Point::new(c.x + rng.gen_range(-20.0..20.0), c.y + rng.gen_range(-20.0..20.0))
        })
        .collect()
}

/// Greedy-edge by a stable full sort of every edge: the reference the
/// chunked `greedy_edge` must match exactly. Also returns the rank (in
/// that sorted order) of the last accepted edge, to show how far into
/// the edge list a construction reaches.
fn greedy_edge_full_sort<M: Metric + ?Sized>(dist: &M) -> (Vec<usize>, usize) {
    let n = dist.len();
    if n <= 2 {
        return ((0..n).collect(), 0);
    }
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j));
        }
    }
    edges.sort_by(|&(a, b), &(c, d)| dist.at(a, b).partial_cmp(&dist.at(c, d)).unwrap());
    let mut uf: Vec<usize> = (0..n).collect();
    fn find(uf: &mut [usize], x: usize) -> usize {
        if uf[x] != x {
            let r = find(uf, uf[x]);
            uf[x] = r;
        }
        uf[x]
    }
    let mut degree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut added = 0;
    let mut last_rank = 0;
    for (rank, (u, v)) in edges.into_iter().enumerate() {
        if added == n - 1 {
            break;
        }
        if degree[u] >= 2 || degree[v] >= 2 {
            continue;
        }
        let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
        if ru == rv {
            continue;
        }
        uf[ru] = rv;
        degree[u] += 1;
        degree[v] += 1;
        adj[u].push(v);
        adj[v].push(u);
        added += 1;
        last_rank = rank;
    }
    let start = (0..n).find(|&v| degree[v] <= 1).expect("path has an endpoint");
    let mut tour = Vec::with_capacity(n);
    let mut prev = usize::MAX;
    let mut cur = start;
    loop {
        tour.push(cur);
        match adj[cur].iter().copied().find(|&x| x != prev) {
            Some(nx) => {
                prev = cur;
                cur = nx;
            }
            None => break,
        }
    }
    (tour, last_rank)
}

/// A clustered instance reaches far past the first 4n edges, so the
/// chunked construction runs several select-and-drop rounds — and still
/// matches the full sort.
#[test]
fn greedy_edge_matches_full_sort_across_chunk_rounds() {
    for (seed, n, clusters) in [(1u64, 300usize, 4usize), (2, 450, 7), (3, 200, 1)] {
        let d = DistanceMatrix::from_points(&clustered(seed, n, clusters));
        let (oracle, last_rank) = greedy_edge_full_sort(&d);
        assert!(last_rank >= 4 * n, "seed {seed}: last accepted rank {last_rank} < 4n");
        assert_eq!(greedy_edge(&d), oracle, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chunked greedy-edge returns the full-sort tour on random points.
    #[test]
    fn greedy_edge_matches_full_sort_on_random_points(pts in arb_points(0, 120)) {
        let d = dist_matrix(&pts);
        prop_assert_eq!(greedy_edge(&d), greedy_edge_full_sort(&d).0);
    }

    /// ... and on grid/duplicate points, where weight ties are the rule.
    #[test]
    fn greedy_edge_matches_full_sort_on_ties(pts in arb_grid_points(0, 150)) {
        let d = dist_matrix(&pts);
        prop_assert_eq!(greedy_edge(&d), greedy_edge_full_sort(&d).0);
    }

    /// ... and on clustered instances of hundreds of points, which take
    /// more than one select-and-drop round.
    #[test]
    fn greedy_edge_matches_full_sort_on_clusters(
        seed in 0u64..1_000_000,
        n in 200usize..500,
        clusters in 1usize..8,
    ) {
        let d = DistanceMatrix::from_points(&clustered(seed, n, clusters));
        prop_assert_eq!(greedy_edge(&d), greedy_edge_full_sort(&d).0);
    }

    /// `build_tour` over the borrowed depot view equals `build_tour` over
    /// the materialized extension: the flat copy it makes is exact.
    #[test]
    fn build_tour_same_over_view_and_materialized_depot(
        pts in arb_points(0, 80),
        dx in 0.0f64..100.0,
        dy in 0.0f64..100.0,
    ) {
        let m = DistanceMatrix::from_points(&pts);
        let depot: Vec<f64> = pts.iter().map(|p| p.dist(Point::new(dx, dy))).collect();
        let view = VirtualNodeMetric::new(&m, &depot);
        prop_assert_eq!(build_tour(&view, 20), build_tour(&m.with_virtual_node(&depot), 20));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy MIS is independent and maximal for every ordering strategy.
    #[test]
    fn mis_is_independent_and_maximal(
        pts in arb_points(0, 80),
        radius in 1.0f64..30.0,
        order_pick in 0usize..4,
    ) {
        let g = Graph::unit_disk(&pts, radius);
        let order = match order_pick {
            0 => MisOrder::ByIndex,
            1 => MisOrder::ByDegreeAsc,
            2 => MisOrder::ByDegreeDesc,
            _ => MisOrder::Random(42),
        };
        let mis = maximal_independent_set(&g, order);
        prop_assert!(is_independent_set(&g, &mis));
        prop_assert!(is_maximal_independent_set(&g, &mis));
    }

    /// Tour constructors yield permutations; improvers never lengthen.
    #[test]
    fn tsp_invariants(pts in arb_points(4, 50)) {
        let d = dist_matrix(&pts);
        let n = pts.len();
        let nn = nearest_neighbor(&d, 0);
        prop_assert!(is_permutation(n, &nn));
        let ge = greedy_edge(&d);
        prop_assert!(is_permutation(n, &ge));
        let mut t = nn.clone();
        let l0 = tour_length(&d, &t);
        two_opt(&d, &mut t, 30);
        let l1 = tour_length(&d, &t);
        prop_assert!(l1 <= l0 + 1e-9);
        or_opt(&d, &mut t, 15);
        let l2 = tour_length(&d, &t);
        prop_assert!(l2 <= l1 + 1e-9);
        prop_assert!(is_permutation(n, &t));
    }

    /// The built tour respects the MST lower bound and 2·MST-ish upper
    /// bounds loosely: MST ≤ tour ≤ 2·MST + slack does NOT always hold
    /// for heuristics, but tour ≥ MST always does.
    #[test]
    fn tour_at_least_mst(pts in arb_points(3, 40)) {
        let d = dist_matrix(&pts);
        let t = build_tour(&d, 20);
        let mst = wrsn_algo::mst::prim(&d, 0);
        prop_assert!(tour_length(&d, &t) >= mst.weight - 1e-9);
    }

    /// k-tour solutions partition the nodes and report the true max delay.
    #[test]
    fn ktour_partitions_and_reports_true_delay(
        pts in arb_points(1, 40),
        k in 1usize..5,
        svc_scale in 0.0f64..500.0,
    ) {
        let d = dist_matrix(&pts);
        let depot: Vec<f64> = pts.iter().map(|p| p.dist(Point::new(50.0, 50.0))).collect();
        let service: Vec<f64> = (0..pts.len()).map(|i| svc_scale * ((i % 3) as f64)).collect();
        let sol = min_max_ktours(&d, &depot, &service, k, 15);
        prop_assert_eq!(sol.tours.len(), k);
        let mut seen = vec![false; pts.len()];
        for t in &sol.tours {
            for &v in t {
                prop_assert!(!seen[v], "node visited twice");
                seen[v] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|b| b), "node left unvisited");
        let recomputed = sol
            .tours
            .iter()
            .map(|t| tour_delay(&d, &depot, &service, t))
            .fold(0.0f64, f64::max);
        prop_assert!((recomputed - sol.max_delay).abs() < 1e-6);
    }

    /// More vehicles never increase the min-max delay (same tour base).
    #[test]
    fn ktour_monotone_in_k(pts in arb_points(2, 30)) {
        let d = dist_matrix(&pts);
        let depot: Vec<f64> = pts.iter().map(|p| p.dist(Point::new(50.0, 50.0))).collect();
        let service = vec![50.0; pts.len()];
        let mut prev = f64::INFINITY;
        for k in 1..=4 {
            let sol = min_max_ktours(&d, &depot, &service, k, 15);
            prop_assert!(sol.max_delay <= prev + 1e-6);
            prev = sol.max_delay;
        }
    }

    /// Hungarian output is an injection and never beaten by a random
    /// alternative assignment.
    #[test]
    fn hungarian_beats_random_assignments(
        seed in 0u64..1000,
        n in 1usize..7,
    ) {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let x = seed
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add(((i * n + j) as u64).wrapping_mul(0xBF58476D1CE4E5B9));
                        ((x >> 40) % 500) as f64
                    })
                    .collect()
            })
            .collect();
        let (asg, total) = hungarian(&cost);
        let mut seen = vec![false; n];
        for &j in &asg {
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
        // Compare against the identity and the reverse assignments.
        let ident: f64 = (0..n).map(|i| cost[i][i]).sum();
        let rev: f64 = (0..n).map(|i| cost[i][n - 1 - i]).sum();
        prop_assert!(total <= ident + 1e-9);
        prop_assert!(total <= rev + 1e-9);
    }

    /// k-means labels are in range and every non-empty cluster's centroid
    /// is the mean of its members (Lloyd fixed point).
    #[test]
    fn kmeans_labels_and_centroids(pts in arb_points(1, 60), k in 1usize..6) {
        let km = kmeans(&pts, k, 3, 200);
        prop_assert_eq!(km.labels.len(), pts.len());
        prop_assert!(km.labels.iter().all(|&l| l < k.max(pts.len())));
        for c in 0..k {
            let members = km.cluster(c);
            if members.is_empty() || k >= pts.len() {
                continue;
            }
            let mean = members
                .iter()
                .fold(Point::ORIGIN, |acc, &i| acc + pts[i])
                / members.len() as f64;
            prop_assert!(mean.dist(km.centroids[c]) < 1e-6);
        }
    }
}
