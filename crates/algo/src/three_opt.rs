//! 3-opt local search for closed tours.
//!
//! 2-opt ([`crate::tsp::two_opt`]) reverses one segment; 3-opt removes
//! three edges and reconnects the pieces in the best of the seven
//! non-identity ways, escaping many 2-opt local optima. First-improvement
//! sweeps, O(n³) per pass — use on the moderate tour sizes of the k-tour
//! core (hundreds of nodes), not on raw 10⁴-node inputs.

use wrsn_geom::Metric;

/// One 3-opt reconnection case; `a..b`, `b..c`, `c..` (wrapping) are the
/// three arcs obtained by cutting after positions `i`, `j`, `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Move {
    /// Reverse the first segment (a 2-opt move).
    RevFirst,
    /// Reverse the second segment (a 2-opt move).
    RevSecond,
    /// Reverse both segments.
    RevBoth,
    /// Swap the two segments without reversal (the pure 3-opt move).
    Exchange,
}

/// Improves `tour` in place with 3-opt descent until a local optimum or
/// `max_passes` sweeps. Never increases the tour length.
///
/// # Example
///
/// ```
/// use wrsn_algo::three_opt::three_opt;
/// use wrsn_algo::tsp::{nearest_neighbor, tour_length};
/// use wrsn_geom::{dist_matrix, Point};
///
/// let pts: Vec<Point> = (0..20)
///     .map(|i| Point::new((i * 37 % 50) as f64, (i * 53 % 50) as f64))
///     .collect();
/// let d = dist_matrix(&pts);
/// let mut tour = nearest_neighbor(&d, 0);
/// let before = tour_length(&d, &tour);
/// three_opt(&d, &mut tour, 10);
/// assert!(tour_length(&d, &tour) <= before + 1e-9);
/// ```
pub fn three_opt<M: Metric + ?Sized>(dist: &M, tour: &mut Vec<usize>, max_passes: usize) {
    let n = tour.len();
    if n < 5 {
        return;
    }
    for _ in 0..max_passes {
        let mut improved = false;
        'sweep: for i in 0..n - 2 {
            for j in i + 1..n - 1 {
                for k in j + 1..n {
                    // Arc endpoints: edges (tour[i], tour[i+1]),
                    // (tour[j], tour[j+1]), (tour[k], tour[(k+1)%n]).
                    let (a, b) = (tour[i], tour[i + 1]);
                    let (c, d) = (tour[j], tour[j + 1]);
                    let (e, f) = (tour[k], tour[(k + 1) % n]);
                    let base = dist.at(a, b) + dist.at(c, d) + dist.at(e, f);

                    let candidates = [
                        (Move::RevFirst, dist.at(a, c) + dist.at(b, d) + dist.at(e, f)),
                        (Move::RevSecond, dist.at(a, b) + dist.at(c, e) + dist.at(d, f)),
                        (Move::RevBoth, dist.at(a, c) + dist.at(b, e) + dist.at(d, f)),
                        (Move::Exchange, dist.at(a, d) + dist.at(e, b) + dist.at(c, f)),
                    ];
                    let best = candidates
                        .iter()
                        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                        .copied()
                        .expect("four candidates");
                    if best.1 < base - 1e-12 {
                        apply(tour, i, j, k, best.0);
                        improved = true;
                        break 'sweep;
                    }
                }
            }
        }
        if !improved {
            return;
        }
    }
}

/// Applies a reconnection to positions `i < j < k`.
fn apply(tour: &mut Vec<usize>, i: usize, j: usize, k: usize, mv: Move) {
    match mv {
        Move::RevFirst => tour[i + 1..=j].reverse(),
        Move::RevSecond => tour[j + 1..=k].reverse(),
        Move::RevBoth => {
            tour[i + 1..=j].reverse();
            tour[j + 1..=k].reverse();
        }
        Move::Exchange => {
            // tour = prefix ⋅ S1 ⋅ S2 ⋅ suffix → prefix ⋅ S2 ⋅ S1 ⋅ suffix
            let mut next = Vec::with_capacity(tour.len());
            next.extend_from_slice(&tour[..=i]);
            next.extend_from_slice(&tour[j + 1..=k]);
            next.extend_from_slice(&tour[i + 1..=j]);
            next.extend_from_slice(&tour[k + 1..]);
            *tour = next;
        }
    }
}

/// Convenience: 2-opt to a local optimum, then 3-opt on top.
pub fn two_then_three_opt<M: Metric + ?Sized>(
    dist: &M,
    tour: &mut Vec<usize>,
    max_passes: usize,
) {
    crate::tsp::two_opt(dist, tour, max_passes);
    three_opt(dist, tour, max_passes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::held_karp;
    use crate::tsp::{is_permutation, nearest_neighbor, tour_length, two_opt};
    use wrsn_geom::{dist_matrix, Point};

    fn scatter(n: usize, salt: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i * 37 + salt * 13) % 101) as f64,
                    ((i * 73 + salt * 41) % 97) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn never_worsens_and_stays_a_permutation() {
        for salt in 0..5 {
            let d = dist_matrix(&scatter(30, salt));
            let mut t = nearest_neighbor(&d, 0);
            let before = tour_length(&d, &t);
            three_opt(&d, &mut t, 20);
            assert!(tour_length(&d, &t) <= before + 1e-9);
            assert!(is_permutation(30, &t));
        }
    }

    #[test]
    fn escapes_some_two_opt_local_optima() {
        // Across seeds, two_then_three_opt must strictly beat pure 2-opt
        // on at least one instance (3-opt's exchange move is real).
        let mut beaten = false;
        for salt in 0..10 {
            let d = dist_matrix(&scatter(40, salt));
            let mut t2 = nearest_neighbor(&d, 0);
            two_opt(&d, &mut t2, 200);
            let l2 = tour_length(&d, &t2);
            let mut t3 = t2.clone();
            three_opt(&d, &mut t3, 50);
            let l3 = tour_length(&d, &t3);
            assert!(l3 <= l2 + 1e-9);
            if l3 < l2 - 1e-6 {
                beaten = true;
            }
        }
        assert!(beaten, "3-opt never improved on 2-opt across 10 instances");
    }

    #[test]
    fn near_optimal_on_small_instances() {
        for salt in 0..5 {
            let d = dist_matrix(&scatter(10, salt));
            let (_, opt) = held_karp(&d);
            let mut t = nearest_neighbor(&d, 0);
            two_then_three_opt(&d, &mut t, 100);
            let got = tour_length(&d, &t);
            assert!(
                got <= 1.03 * opt + 1e-9,
                "salt {salt}: {got:.2} vs optimal {opt:.2}"
            );
        }
    }

    #[test]
    fn tiny_tours_are_untouched() {
        let d = dist_matrix(&scatter(4, 0));
        let mut t = vec![0, 1, 2, 3];
        let before = t.clone();
        three_opt(&d, &mut t, 10);
        assert_eq!(t, before);
    }

    #[test]
    fn exchange_move_preserves_elements() {
        let mut t: Vec<usize> = (0..8).collect();
        apply(&mut t, 1, 3, 6, Move::Exchange);
        let mut sorted = t.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // prefix [0,1], S2 = [4,5,6], S1 = [2,3], suffix [7]
        assert_eq!(t, vec![0, 1, 4, 5, 6, 2, 3, 7]);
    }
}
