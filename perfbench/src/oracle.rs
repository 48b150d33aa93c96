//! Cut counting and reference ("oracle") partitions, written against
//! the raw CSR and pin arrays only — no library partition code — so a
//! defect in the library's own cut bookkeeping cannot hide itself.

use bisect_graph::hypergraph::Netlist;
use bisect_graph::Graph;

/// Total weight of the edges whose endpoints lie on different sides.
///
/// # Panics
///
/// Panics if `sides` is shorter than the vertex count.
pub fn graph_cut(g: &Graph, sides: &[bool]) -> u64 {
    let mut cut = 0u64;
    for v in g.vertices() {
        let sv = sides[v as usize];
        for (&u, &w) in g.neighbors(v).iter().zip(g.neighbor_weights(v)) {
            if u > v && sides[u as usize] != sv {
                cut += w;
            }
        }
    }
    cut
}

/// Total weight of the nets with pins on both sides.
///
/// # Panics
///
/// Panics if `sides` is shorter than the cell count.
pub fn net_cut(nl: &Netlist, sides: &[bool]) -> u64 {
    nl.net_ids()
        .filter(|&n| {
            let pins = nl.pins(n);
            pins.iter().any(|&p| sides[p as usize]) && pins.iter().any(|&p| !sides[p as usize])
        })
        .map(|n| nl.net_weight(n))
        .sum()
}

/// Total weight of the nets whose pins span more than one part.
///
/// # Panics
///
/// Panics if `labels` is shorter than the cell count.
pub fn kway_net_cut(nl: &Netlist, labels: &[u32]) -> u64 {
    nl.net_ids()
        .filter(|&n| match nl.pins(n).split_first() {
            Some((&first, rest)) => {
                let l = labels[first as usize];
                rest.iter().any(|&p| labels[p as usize] != l)
            }
            None => false,
        })
        .map(|n| nl.net_weight(n))
        .sum()
}

/// The line split: items `< n/2` on side A (`false`), the rest on B.
/// This is the planted bisection of `Gbreg` and `G2set`, and the
/// natural split of a Rent netlist whose nets are local in the index.
pub fn half_split(n: usize) -> Vec<bool> {
    (0..n).map(|v| v >= n / 2).collect()
}

/// The middle split of `ladder(k)` (rails `0..k` and `k..2k`, rung
/// `i ↔ k + i`): rungs `< k/2` on side A. Crosses exactly two rail
/// edges for even `k`.
pub fn ladder_split(k: usize) -> Vec<bool> {
    (0..2 * k).map(|v| v % k >= k / 2).collect()
}

/// A uniformly random balanced split drawn from `seed` with the
/// benchmark's own generator (a Fisher-Yates shuffle over SplitMix64).
pub fn random_split(n: usize, seed: u64) -> Vec<bool> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut sides = vec![false; n];
    for &v in &order[n / 2..] {
        sides[v] = true;
    }
    sides
}

/// The contiguous-block `k`-way split: item `c` goes to part
/// `c·k / n`.
pub fn block_labels(n: usize, k: usize) -> Vec<u32> {
    (0..n).map(|c| (c * k / n.max(1)) as u32).collect()
}

/// One SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a base seed with a path of indices into an independent seed.
pub fn derive(base: u64, parts: &[u64]) -> u64 {
    let mut state = base;
    let mut out = splitmix(&mut state);
    for &p in parts {
        state ^= p.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        out = splitmix(&mut state);
    }
    out
}

/// Applies a new → old relabeling to sides computed on the relabeled
/// input: `old[new_to_old[i]] = new[i]`.
///
/// Returns `None` unless `new_to_old` is a permutation of
/// `0..new_sides.len()`.
pub fn map_back(new_sides: &[bool], new_to_old: &[u32]) -> Option<Vec<bool>> {
    if new_sides.len() != new_to_old.len() {
        return None;
    }
    let mut seen = vec![false; new_sides.len()];
    let mut old = vec![false; new_sides.len()];
    for (&s, &o) in new_sides.iter().zip(new_to_old) {
        let o = o as usize;
        if o >= seen.len() || seen[o] {
            return None;
        }
        seen[o] = true;
        old[o] = s;
    }
    Some(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::gbreg::{self, GbregParams};
    use bisect_gen::rng::LaggedFibonacci;
    use bisect_gen::special;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::SeedableRng;

    #[test]
    fn ladder_oracle_is_two() {
        for k in [4, 10, 2500] {
            assert_eq!(graph_cut(&special::ladder(k), &ladder_split(k)), 2, "k={k}");
        }
    }

    #[test]
    fn planted_gbreg_oracle_is_b() {
        for (n, b, d) in [(100, 4, 3), (5000, 8, 3), (5000, 8, 4)] {
            let mut rng = LaggedFibonacci::seed_from_u64(n as u64 + b as u64);
            let g = gbreg::sample(&mut rng, &GbregParams::new(n, b, d).unwrap()).unwrap();
            assert_eq!(
                graph_cut(&g, &half_split(n)),
                b as u64,
                "Gbreg({n},{b},{d})"
            );
        }
    }

    #[test]
    fn cut_counts_on_a_hand_built_path() {
        let g = special::path(4);
        assert_eq!(graph_cut(&g, &[false, false, true, true]), 1);
        assert_eq!(graph_cut(&g, &[false, true, false, true]), 3);
    }

    #[test]
    fn net_cuts_on_a_hand_built_netlist() {
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[0, 1]).unwrap();
        b.add_net(&[1, 2, 3]).unwrap();
        b.add_net(&[0, 3]).unwrap();
        let nl = b.build();
        assert_eq!(net_cut(&nl, &[false, false, true, true]), 2);
        assert_eq!(net_cut(&nl, &[false, false, false, false]), 0);
        assert_eq!(kway_net_cut(&nl, &[0, 0, 1, 1]), 2);
        assert_eq!(kway_net_cut(&nl, &[0, 1, 2, 3]), 3);
        assert_eq!(kway_net_cut(&nl, &block_labels(4, 2)), 2);
    }

    #[test]
    fn random_split_is_balanced_and_seeded() {
        let a = random_split(1001, 7);
        assert_eq!(a.iter().filter(|&&s| s).count(), 501);
        assert_eq!(a, random_split(1001, 7));
        assert_ne!(a, random_split(1001, 8));
    }

    #[test]
    fn map_back_inverts_and_rejects_non_permutations() {
        assert_eq!(
            map_back(&[true, false, false], &[2, 0, 1]),
            Some(vec![false, false, true])
        );
        assert_eq!(map_back(&[true, false], &[1, 1]), None);
        assert_eq!(map_back(&[true, false], &[0]), None);
        assert_eq!(map_back(&[true], &[3]), None);
    }

    #[test]
    fn block_labels_are_contiguous_and_even() {
        let l = block_labels(10, 4);
        assert_eq!(l, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
    }
}
