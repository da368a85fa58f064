//! The Wasserstein discriminator `f_ω` (paper §5.5).
//!
//! A 3-layer MLP critic whose weights are clamped to `[-clamp, clamp]`
//! (Kantorovich–Rubinstein duality, WGAN-style). The adversarial loss is
//! Eq. 9:
//!
//! ```text
//! L_w(q, G_sub) = Σ_{u ∈ V'(q)} f_ω(h_u) − Σ_{v ∈ V'(G_sub)} f_ω(h_v)
//! ```
//!
//! over correspondence sets `V'(q)`, `V'(G_sub)` chosen with the candidate
//! sets: query vertices in ascending `f_ω(h_u)` order each claim the
//! unclaimed candidate `v ∈ CS(u)` maximizing `f_ω(h_v)`; when all of
//! `CS(u)` is claimed, an earlier query vertex is re-assigned to an
//! alternative candidate to free one (the paper's "change the corresponding
//! vertex of preselected query vertex"); if no reassignment exists (can
//! happen once substructures are size-capped) the best candidate is shared.

use crate::config::NeurScConfig;
use neursc_nn::layers::{Activation, Mlp};
use neursc_nn::{ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// The critic network `f_ω`.
#[derive(Debug, Clone)]
pub struct Discriminator {
    /// 3-layer MLP `rep_dim → h → h → 1`.
    pub mlp: Mlp,
    /// Clamp box half-width (paper: 0.01).
    pub clamp: f32,
}

impl Discriminator {
    /// Allocates the critic per `cfg`.
    pub fn new(store: &mut ParamStore, cfg: &NeurScConfig, rng: &mut StdRng) -> Self {
        let mlp = Mlp::new(
            store,
            &[cfg.rep_dim(), cfg.disc_hidden, cfg.disc_hidden, 1],
            Activation::Relu,
            Activation::Identity,
            rng,
        );
        Discriminator {
            mlp,
            clamp: cfg.clamp,
        }
    }

    /// `f_ω` scores for a matrix of representations: `[n, rep] → [n, 1]`.
    pub fn score(&self, tape: &mut Tape, store: &ParamStore, h: Var) -> Var {
        self.mlp.forward(tape, store, h)
    }

    /// Parameter ids (`ω`) — the set that gets clamped and stepped by the
    /// discriminator optimizer.
    pub fn params(&self) -> Vec<ParamId> {
        self.mlp.params()
    }
}

/// Chooses the correspondence vertex sets `V'(q)`, `V'(G_sub)` (§5.5).
///
/// * `f_q[u]` — critic scores of query vertices;
/// * `f_s[v]` — critic scores of substructure vertices (local ids);
/// * `local_cs[u]` — component-local candidate set of query vertex `u`.
///
/// Returns `(queries, data)` index lists of equal length: `data[i]` is the
/// partner of `queries[i]`.
pub fn select_correspondence(
    f_q: &[f32],
    f_s: &[f32],
    local_cs: &[Vec<u32>],
) -> (Vec<u32>, Vec<u32>) {
    let nq = f_q.len();
    // Query vertices in ascending f_ω(h_u) order.
    let mut order: Vec<u32> = (0..nq as u32).collect();
    order.sort_by(|&a, &b| f_q[a as usize].total_cmp(&f_q[b as usize]).then(a.cmp(&b)));

    let mut owner: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut assigned: Vec<Option<u32>> = vec![None; nq];

    for &u in &order {
        assign(u, f_s, local_cs, &mut owner, &mut assigned, 0);
    }

    let mut qs = Vec::with_capacity(nq);
    let mut ds = Vec::with_capacity(nq);
    for &u in &order {
        if let Some(v) = assigned[u as usize] {
            qs.push(u);
            ds.push(v);
        }
    }
    (qs, ds)
}

/// Tries to give `u` its best free candidate; on exhaustion, recursively
/// re-assigns one current owner (depth-limited), falling back to sharing.
fn assign(
    u: u32,
    f_s: &[f32],
    local_cs: &[Vec<u32>],
    owner: &mut std::collections::HashMap<u32, u32>,
    assigned: &mut Vec<Option<u32>>,
    depth: usize,
) -> bool {
    // Candidates of u sorted by descending critic score.
    let mut cands: Vec<u32> = local_cs[u as usize].clone();
    cands.sort_by(|&a, &b| f_s[b as usize].total_cmp(&f_s[a as usize]).then(a.cmp(&b)));
    // First pass: a free candidate.
    for &v in &cands {
        if let std::collections::hash_map::Entry::Vacant(slot) = owner.entry(v) {
            slot.insert(u);
            assigned[u as usize] = Some(v);
            return true;
        }
    }
    // Second pass: evict an owner who has an alternative (augmenting step).
    if depth < 4 {
        for &v in &cands {
            let prev = owner[&v];
            owner.insert(v, u);
            assigned[u as usize] = Some(v);
            assigned[prev as usize] = None;
            if assign(prev, f_s, local_cs, owner, assigned, depth + 1) {
                return true;
            }
            // Roll back the eviction.
            assigned[prev as usize] = Some(v);
            owner.insert(v, prev);
            assigned[u as usize] = None;
        }
    }
    // Fallback: share the best-scored candidate.
    if let Some(&v) = cands.first() {
        assigned[u as usize] = Some(v);
        return true;
    }
    false
}

/// The unconstrained correspondence selection of Gao et al. \[21\] that
/// §5.5 improves upon: pick the query vertices minimizing `f_ω(h_u)` and —
/// independently, ignoring candidate sets — the data vertices maximizing
/// `f_ω(h_v)`. Used by the `NeurSC-UNC` ablation (DESIGN.md §5).
pub fn select_correspondence_unconstrained(f_q: &[f32], f_s: &[f32]) -> (Vec<u32>, Vec<u32>) {
    let k = f_q.len().min(f_s.len());
    let mut qs: Vec<u32> = (0..f_q.len() as u32).collect();
    qs.sort_by(|&a, &b| f_q[a as usize].total_cmp(&f_q[b as usize]).then(a.cmp(&b)));
    qs.truncate(k);
    let mut ds: Vec<u32> = (0..f_s.len() as u32).collect();
    ds.sort_by(|&a, &b| f_s[b as usize].total_cmp(&f_s[a as usize]).then(a.cmp(&b)));
    ds.truncate(k);
    (qs, ds)
}

/// Eq. 9 on the tape: `L_w = Σ f_ω(h_u) − Σ f_ω(h_v)` over the selected
/// correspondence rows of the critic score columns `f_q_col`/`f_s_col`
/// (`[n, 1]` vars).
pub fn wasserstein_loss(
    tape: &mut Tape,
    f_q_col: Var,
    f_s_col: Var,
    queries: &[u32],
    data: &[u32],
) -> Var {
    assert_eq!(queries.len(), data.len());
    let fq_sel = tape.index_select(f_q_col, queries);
    let fs_sel = tape.index_select(f_s_col, data);
    let sq = tape.sum(fq_sel);
    let ss = tape.sum(fs_sel);
    tape.sub(sq, ss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_nn::Tensor;
    use rand::SeedableRng;

    #[test]
    fn selection_prefers_high_scores_within_candidates() {
        // u0's candidates {0,1}: scores 0.1, 0.9 → picks 1.
        // u1's candidates {1,2}: 1 taken → picks 2.
        let f_q = [0.0, 1.0];
        let f_s = [0.1, 0.9, 0.5];
        let cs = vec![vec![0, 1], vec![1, 2]];
        let (qs, ds) = select_correspondence(&f_q, &f_s, &cs);
        assert_eq!(qs, vec![0, 1]);
        assert_eq!(ds, vec![1, 2]);
    }

    #[test]
    fn selection_order_is_ascending_critic_score() {
        // u1 has smaller f_q, so it picks first and wins the contested best.
        let f_q = [0.9, 0.1];
        let f_s = [1.0, 0.2];
        let cs = vec![vec![0, 1], vec![0, 1]];
        let (qs, ds) = select_correspondence(&f_q, &f_s, &cs);
        assert_eq!(qs, vec![1, 0]);
        assert_eq!(ds, vec![0, 1]);
    }

    #[test]
    fn reassignment_frees_a_contested_candidate() {
        // u0 picks first (lowest f_q) and would take v0; but u1's only
        // candidate is v0, forcing a reassignment of u0 to v1.
        let f_q = [0.0, 1.0];
        let f_s = [0.9, 0.8];
        let cs = vec![vec![0, 1], vec![0]];
        let (qs, ds) = select_correspondence(&f_q, &f_s, &cs);
        assert_eq!(qs.len(), 2);
        // All query vertices matched, injectively.
        let mut sorted = ds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2, "expected injective assignment, got {ds:?}");
        // u1 must own v0.
        let idx_u1 = qs.iter().position(|&u| u == 1).unwrap();
        assert_eq!(ds[idx_u1], 0);
    }

    #[test]
    fn sharing_fallback_when_matching_impossible() {
        // Two query vertices, one candidate each, the same one.
        let f_q = [0.0, 1.0];
        let f_s = [0.5];
        let cs = vec![vec![0], vec![0]];
        let (qs, ds) = select_correspondence(&f_q, &f_s, &cs);
        assert_eq!(qs.len(), 2);
        assert_eq!(ds, vec![0, 0]);
    }

    #[test]
    fn empty_candidate_set_skips_vertex() {
        let f_q = [0.0, 1.0];
        let f_s = [0.5];
        let cs = vec![vec![0], vec![]];
        let (qs, ds) = select_correspondence(&f_q, &f_s, &cs);
        assert_eq!(qs, vec![0]);
        assert_eq!(ds, vec![0]);
    }

    #[test]
    fn wasserstein_loss_value() {
        let mut tape = Tape::new();
        let fq = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 2.0]));
        let fs = tape.constant(Tensor::from_vec(3, 1, vec![0.5, 0.25, 0.25]));
        let l = wasserstein_loss(&mut tape, fq, fs, &[0, 1], &[0, 2]);
        assert!((tape.value(l).item() - (3.0 - 0.75)).abs() < 1e-6);
    }

    #[test]
    fn critic_is_three_layers() {
        let cfg = NeurScConfig::small();
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let disc = Discriminator::new(&mut store, &cfg, &mut rng);
        assert_eq!(disc.mlp.layers.len(), 3);
        assert_eq!(disc.mlp.out_dim(), 1);
    }
}

#[cfg(test)]
mod unconstrained_tests {
    use super::*;

    #[test]
    fn unconstrained_picks_extremes_ignoring_candidates() {
        let f_q = [0.5, 0.1, 0.9];
        let f_s = [0.2, 0.8, 0.4, 0.6];
        let (qs, ds) = select_correspondence_unconstrained(&f_q, &f_s);
        assert_eq!(qs, vec![1, 0, 2]); // ascending f_q
        assert_eq!(ds, vec![1, 3, 2]); // descending f_s, truncated to 3
    }

    #[test]
    fn unconstrained_truncates_to_smaller_side() {
        let f_q = [0.0];
        let f_s = [0.3, 0.1];
        let (qs, ds) = select_correspondence_unconstrained(&f_q, &f_s);
        assert_eq!(qs.len(), 1);
        assert_eq!(ds, vec![0]);
    }
}
