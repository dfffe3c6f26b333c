//! Closed-tour (TSP) construction and local-search improvement.
//!
//! The min–max tour-splitting construction (module [`crate::ktour`])
//! starts from a single closed tour over all nodes; its quality directly
//! bounds the split tours' quality. We provide three constructors and two
//! improvers:
//!
//! - [`nearest_neighbor`]: classic greedy, O(n²);
//! - [`greedy_edge`]: cheapest-edge matching into a tour, O(n²) per
//!   round; each round selects and sorts only the 4n cheapest edges
//!   still addable, instead of sorting all n(n−1)/2 once;
//! - [`mst_preorder`]: MST-doubling shortcut (the textbook metric
//!   2-approximation), O(n²);
//! - [`two_opt`]: segment-reversal descent;
//! - [`or_opt`]: relocation of 1–3 node chains.
//!
//! Tours are permutations of `0..n`, interpreted cyclically (the edge
//! from `tour[n-1]` back to `tour[0]` is implied).
//!
//! Every function is generic over [`Metric`], so nested `Vec<Vec<f64>>`
//! matrices and the flat memoized [`DistanceMatrix`] work
//! interchangeably — with identical float operations, hence identical
//! tours. [`build_tour`] copies its input once into a flat
//! [`DistanceMatrix`] so the construction and both descents index one
//! table instead of going through a layered view per lookup.

use wrsn_geom::{DistanceMatrix, Metric};

/// Total length of the closed tour `tour` under metric `dist`.
///
/// Returns 0 for tours with fewer than 2 nodes.
pub fn tour_length<M: Metric + ?Sized>(dist: &M, tour: &[usize]) -> f64 {
    if tour.len() < 2 {
        return 0.0;
    }
    let mut len = 0.0;
    for w in tour.windows(2) {
        len += dist.at(w[0], w[1]);
    }
    len + dist.at(*tour.last().unwrap(), tour[0])
}

/// Nearest-neighbor closed tour starting from `start`.
///
/// # Panics
///
/// Panics if `start >= dist.len()` (unless the instance is empty).
pub fn nearest_neighbor<M: Metric + ?Sized>(dist: &M, start: usize) -> Vec<usize> {
    let n = dist.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(start < n, "start out of range");
    let mut visited = vec![false; n];
    let mut tour = Vec::with_capacity(n);
    let mut cur = start;
    visited[cur] = true;
    tour.push(cur);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&v| !visited[v])
            .min_by(|&a, &b| dist.at(cur, a).partial_cmp(&dist.at(cur, b)).unwrap())
            .expect("unvisited vertex remains");
        visited[next] = true;
        tour.push(next);
        cur = next;
    }
    tour
}

/// Greedy-edge tour: repeatedly add the globally cheapest edge that keeps
/// degrees ≤ 2 and creates no premature cycle, then stitch the resulting
/// Hamiltonian path into a cycle.
///
/// Edges are taken in the total order (weight, `i`, `j`) over pairs
/// `i < j`: equal weights go to the lexicographically smaller pair.
/// Rather than sorting all n(n−1)/2 edges, each round selects the 4n
/// cheapest remaining ones, sorts and scans only those, then drops every
/// edge that can no longer be added (an endpoint at degree 2, or both
/// endpoints in one fragment). Degrees only grow and fragments only
/// merge, so a dropped edge would have been skipped anyway and the
/// accepted edges are those of a full sort, in the same order.
///
/// # Panics
///
/// Panics if a distance is NaN.
pub fn greedy_edge<M: Metric + ?Sized>(dist: &M) -> Vec<usize> {
    let n = dist.len();
    if n <= 2 {
        return (0..n).collect();
    }
    // `u32` ends keep an edge at 16 bytes, the size of the index pair the
    // full sort used to hold, so the weight costs no memory.
    let idx = |v: usize| u32::try_from(v).expect("greedy edge indexes nodes with u32");
    let mut edges: Vec<(f64, u32, u32)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((dist.at(i, j), idx(i), idx(j)));
        }
    }
    let by_key = |x: &(f64, u32, u32), y: &(f64, u32, u32)| {
        x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2))
    };

    // Union-find for cycle detection.
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
    loop {
        let take = (4 * n).min(edges.len());
        assert!(take > 0, "greedy edge ran out of edges before the path closed");
        if take < edges.len() {
            edges.select_nth_unstable_by(take, by_key);
        }
        // Keys are distinct (the pair breaks weight ties), so an
        // unstable sort yields the one total order.
        edges[..take].sort_unstable_by(by_key);
        for &(_, u, v) in &edges[..take] {
            let (u, v) = (u as usize, v as usize);
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
            if added == n - 1 {
                break;
            }
        }
        if added == n - 1 {
            break;
        }
        // Keep only the edges that can still be added.
        let mut live = 0;
        for r in take..edges.len() {
            let (_, u, v) = edges[r];
            let (u, v) = (u as usize, v as usize);
            if degree[u] < 2 && degree[v] < 2 && find(&mut uf, u) != find(&mut uf, v) {
                edges[live] = edges[r];
                live += 1;
            }
        }
        edges.truncate(live);
    }
    // Walk the Hamiltonian path from one endpoint.
    let start = (0..n).find(|&v| degree[v] <= 1).expect("path has an endpoint");
    let mut tour = Vec::with_capacity(n);
    let mut prev = usize::MAX;
    let mut cur = start;
    loop {
        tour.push(cur);
        let next = adj[cur].iter().copied().find(|&x| x != prev);
        match next {
            Some(nx) => {
                prev = cur;
                cur = nx;
            }
            None => break,
        }
    }
    debug_assert_eq!(tour.len(), n, "greedy edge must produce a Hamiltonian path");
    tour
}

/// MST-doubling tour: preorder walk of Prim's tree rooted at `root`.
/// The classic metric 2-approximation.
pub fn mst_preorder<M: Metric + ?Sized>(dist: &M, root: usize) -> Vec<usize> {
    if dist.is_empty() {
        return Vec::new();
    }
    crate::mst::prim_metric(dist, root).preorder()
}

/// 2-opt descent: repeatedly reverse tour segments while that shortens
/// the tour; stops at a local optimum or after `max_passes` full sweeps.
///
/// Never increases the tour length. O(n²) per pass.
pub fn two_opt<M: Metric + ?Sized>(dist: &M, tour: &mut [usize], max_passes: usize) {
    let n = tour.len();
    if n < 4 {
        return;
    }
    for _ in 0..max_passes {
        let mut improved = false;
        for i in 0..n - 1 {
            let a = tour[i];
            let b = tour[(i + 1) % n];
            for j in (i + 2)..n {
                if i == 0 && j == n - 1 {
                    continue; // same edge pair
                }
                let c = tour[j];
                let d = tour[(j + 1) % n];
                let delta = dist.at(a, c) + dist.at(b, d) - dist.at(a, b) - dist.at(c, d);
                if delta < -1e-12 {
                    tour[i + 1..=j].reverse();
                    improved = true;
                    break; // tour changed; restart inner scan from new edge
                }
            }
            if improved {
                break;
            }
        }
        if !improved {
            return;
        }
    }
}

/// Or-opt descent: relocate chains of 1–3 consecutive nodes to a better
/// position. Complements 2-opt (which cannot move single nodes without
/// reversing). Never increases the tour length.
pub fn or_opt<M: Metric + ?Sized>(dist: &M, tour: &mut Vec<usize>, max_passes: usize) {
    let n = tour.len();
    if n < 5 {
        return;
    }
    let mut el = vec![0.0; n];
    for _ in 0..max_passes {
        // Tour-edge lengths `el[j] = d(tour[j], tour[j+1])`, wrapping. A
        // pass ends at its first move, so the cache never goes stale.
        for (j, e) in el.iter_mut().enumerate() {
            *e = dist.at(tour[j], tour[(j + 1) % n]);
        }
        let mut improved = false;
        'outer: for seg_len in 1..=3usize {
            for i in 0..n {
                // Chain occupies positions i..i+seg_len (no wrap for simplicity).
                if i + seg_len >= n {
                    continue;
                }
                let prev = if i == 0 { n - 1 } else { i - 1 };
                let p = tour[prev];
                let s0 = tour[i];
                let s1 = tour[i + seg_len - 1];
                let q = tour[(i + seg_len) % n];
                let removal_gain = el[prev] + el[i + seg_len - 1] - dist.at(p, q);
                if removal_gain <= 1e-12 {
                    continue;
                }
                // Try inserting between every other consecutive pair.
                for j in 0..n {
                    let jn = (j + 1) % n;
                    // Skip positions overlapping the chain or its borders.
                    if (j >= prev.min(i) && j <= i + seg_len) || jn == i {
                        continue;
                    }
                    if j >= i && j < i + seg_len {
                        continue;
                    }
                    let a = tour[j];
                    let b = tour[jn];
                    let insert_cost = dist.at(a, s0) + dist.at(s1, b) - el[j];
                    if insert_cost < removal_gain - 1e-12 {
                        // Perform the move on a copy to keep indexing simple.
                        let chain: Vec<usize> = tour[i..i + seg_len].to_vec();
                        let mut rest: Vec<usize> = Vec::with_capacity(n);
                        rest.extend_from_slice(&tour[..i]);
                        rest.extend_from_slice(&tour[i + seg_len..]);
                        // Position of `a` in rest:
                        let pos_a = rest.iter().position(|&x| x == a).unwrap();
                        let mut next = Vec::with_capacity(n);
                        next.extend_from_slice(&rest[..=pos_a]);
                        next.extend_from_slice(&chain);
                        next.extend_from_slice(&rest[pos_a + 1..]);
                        *tour = next;
                        improved = true;
                        break 'outer;
                    }
                }
            }
        }
        if !improved {
            return;
        }
    }
}

/// Builds a good closed tour: greedy-edge construction followed by 2-opt
/// and Or-opt descent. The workhorse used by the planners.
///
/// Copies `dist` once into a flat [`DistanceMatrix`] and runs every step
/// on the copy; its entries equal `dist`'s bit for bit, so the tour is
/// the one the steps would build on `dist` directly.
pub fn build_tour<M: Metric + ?Sized>(dist: &M, improvement_passes: usize) -> Vec<usize> {
    let n = dist.len();
    if n <= 3 {
        return (0..n).collect();
    }
    let flat = DistanceMatrix::from_metric(dist);
    let mut tour = greedy_edge(&flat);
    two_opt(&flat, &mut tour, improvement_passes);
    or_opt(&flat, &mut tour, improvement_passes / 2 + 1);
    two_opt(&flat, &mut tour, improvement_passes / 2 + 1);
    tour
}

/// Returns `true` iff `tour` is a permutation of `0..n`.
pub fn is_permutation(n: usize, tour: &[usize]) -> bool {
    if tour.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in tour {
        if v >= n || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::{dist_matrix, Point};

    fn ring(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                Point::new(50.0 + 10.0 * a.cos(), 50.0 + 10.0 * a.sin())
            })
            .collect()
    }

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i * 37 % 101) as f64, (i * 73 % 97) as f64))
            .collect()
    }

    #[test]
    fn tour_length_triangle() {
        let d = dist_matrix(&[
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]);
        assert_eq!(tour_length(&d, &[0, 1, 2]), 3.0 + 4.0 + 5.0);
        assert_eq!(tour_length(&d, &[0]), 0.0);
        assert_eq!(tour_length(&d, &[]), 0.0);
    }

    #[test]
    fn constructors_produce_permutations() {
        let d = dist_matrix(&scatter(30));
        assert!(is_permutation(30, &nearest_neighbor(&d, 0)));
        assert!(is_permutation(30, &greedy_edge(&d)));
        assert!(is_permutation(30, &mst_preorder(&d, 0)));
        assert!(is_permutation(30, &build_tour(&d, 20)));
    }

    #[test]
    fn two_opt_untangles_a_crossed_ring() {
        let pts = ring(12);
        let d = dist_matrix(&pts);
        // Deliberately scrambled tour.
        let mut tour: Vec<usize> = vec![0, 6, 2, 8, 4, 10, 1, 7, 3, 9, 5, 11];
        let before = tour_length(&d, &tour);
        two_opt(&d, &mut tour, 200);
        let after = tour_length(&d, &tour);
        assert!(after < before);
        // Optimal ring tour length: 12 sides of the regular 12-gon.
        let side = pts[0].dist(pts[1]);
        assert!(after <= 12.0 * side + 1e-6, "after={after}, opt={}", 12.0 * side);
        assert!(is_permutation(12, &tour));
    }

    #[test]
    fn improvers_never_increase_length() {
        let d = dist_matrix(&scatter(40));
        let mut tour = nearest_neighbor(&d, 0);
        let l0 = tour_length(&d, &tour);
        two_opt(&d, &mut tour, 50);
        let l1 = tour_length(&d, &tour);
        assert!(l1 <= l0 + 1e-9);
        or_opt(&d, &mut tour, 50);
        let l2 = tour_length(&d, &tour);
        assert!(l2 <= l1 + 1e-9);
        assert!(is_permutation(40, &tour));
    }

    #[test]
    fn tiny_instances() {
        for n in 0..4 {
            let d = dist_matrix(&scatter(n));
            let t = build_tour(&d, 5);
            assert!(is_permutation(n, &t));
        }
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![Point::new(1.0, 1.0); 6];
        let d = dist_matrix(&pts);
        let t = build_tour(&d, 5);
        assert!(is_permutation(6, &t));
        assert_eq!(tour_length(&d, &t), 0.0);
    }

    #[test]
    fn greedy_edge_beats_random_order_on_scatter() {
        let d = dist_matrix(&scatter(50));
        let random_order: Vec<usize> = (0..50).collect();
        let lr = tour_length(&d, &random_order);
        let lg = tour_length(&d, &greedy_edge(&d));
        assert!(lg < lr, "greedy {lg} should beat identity {lr}");
    }

    #[test]
    fn is_permutation_rejects_bad_tours() {
        assert!(!is_permutation(3, &[0, 1]));
        assert!(!is_permutation(3, &[0, 1, 1]));
        assert!(!is_permutation(3, &[0, 1, 3]));
        assert!(is_permutation(3, &[2, 0, 1]));
    }
}
