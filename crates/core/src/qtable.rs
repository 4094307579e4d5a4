//! The feature-sliced, sub-table-hashed Q-table (paper §V-C).
//!
//! A monolithic table over all (PC, page) states would be enormous, so
//! CHROME partitions it per *feature*: each feature has its own
//! feature-action table, itself split into several sub-tables indexed by
//! different xor-hashes of the feature value. The Q-value of a
//! feature-action pair is the **sum** of its partial values; the
//! Q-value of a state-action pair is the **max** over its features —
//! every action is driven by the feature that speaks most strongly.
//!
//! Partial values are 16-bit fixed point (the hardware budget of Table
//! III: 2 features × 4 sub-tables × 2048 entries × 16 bits = 32 KB).

use chrome_sim::types::mix64;

/// Fixed-point scale: 1.0 == 64 units.
const SCALE: f64 = 64.0;

/// Total number of distinct actions (4 miss actions + 3 hit actions).
pub const NUM_ACTIONS: usize = 7;

/// Most sub-tables a feature may be split into (the paper uses 4).
pub const MAX_SUB_TABLES: usize = 16;

/// The Q-table.
#[derive(Debug, Clone)]
pub struct QTable {
    /// Partials laid out `[feature][sub_table][row][action]`: one hash
    /// row holds the partial values of all actions, so a state's Q
    /// vector costs one row hash per (feature, sub-table).
    partials: Vec<i16>,
    features: usize,
    rows: usize,
    sub_tables: usize,
}

impl QTable {
    /// Build a table for `features` features, each with `sub_tables`
    /// sub-tables of `entries` 16-bit slots (a slot is one
    /// feature-hash × action cell, so `entries / 7` hash rows — this is
    /// the Table III accounting, where 2048 entries/sub-table × 16 bits
    /// gives the 32 KB budget). Optimistically initialized so every
    /// feature-action Q starts at `q_init`.
    ///
    /// # Panics
    ///
    /// Panics on zero features, sub-tables or entries, or on more than
    /// [`MAX_SUB_TABLES`] sub-tables.
    pub fn new(features: usize, sub_tables: usize, entries: usize, q_init: f64) -> Self {
        assert!(
            features > 0 && sub_tables > 0 && entries > 0,
            "degenerate Q-table"
        );
        assert!(sub_tables <= MAX_SUB_TABLES, "too many sub-tables");
        let rows = (entries / NUM_ACTIONS).max(1);
        let init_partial = (q_init * SCALE / sub_tables as f64).round() as i16;
        QTable {
            partials: vec![init_partial; features * sub_tables * rows * NUM_ACTIONS],
            features,
            rows,
            sub_tables,
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.features
    }

    /// Offset of the row `feature_value` hashes to in `feature`'s
    /// sub-table `sub`; the row's action `a` partial sits at `+ a`.
    #[inline]
    fn row(&self, feature: usize, sub: usize, feature_value: u64) -> usize {
        // each sub-table hashes the feature with a different constant
        let hashed = mix64(feature_value ^ (0x9E37_79B9u64 << sub) ^ sub as u64);
        let idx = (hashed % self.rows as u64) as usize;
        ((feature * self.sub_tables + sub) * self.rows + idx) * NUM_ACTIONS
    }

    /// Q-value of one feature-action pair: sum of its partials.
    pub fn q_feature(&self, feature: usize, value: u64, action: usize) -> f64 {
        debug_assert!(action < NUM_ACTIONS);
        let mut sum = 0i32;
        for sub in 0..self.sub_tables {
            sum += self.partials[self.row(feature, sub, value) + action] as i32;
        }
        sum as f64 / SCALE
    }

    /// Q-values of every action for one feature value: each sub-table
    /// row is hashed once and its action partials summed side by side.
    /// Entry `a` equals [`QTable::q_feature`]`(feature, value, a)`.
    pub fn q_feature_all(&self, feature: usize, value: u64) -> [f64; NUM_ACTIONS] {
        let mut sum = [0i32; NUM_ACTIONS];
        for sub in 0..self.sub_tables {
            let r = self.row(feature, sub, value);
            for (s, &p) in sum.iter_mut().zip(&self.partials[r..r + NUM_ACTIONS]) {
                *s += p as i32;
            }
        }
        sum.map(|s| s as f64 / SCALE)
    }

    /// Q-value of a state-action pair: max over the state's features
    /// (paper: `Q(S,A) = max(Q(f1,A), Q(f2,A))`).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the feature count.
    pub fn q_state(&self, state: &[u64], action: usize) -> f64 {
        assert_eq!(state.len(), self.num_features(), "state arity mismatch");
        state
            .iter()
            .enumerate()
            .map(|(f, &v)| self.q_feature(f, v, action))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Q-values of every action for `state`, from one row hash per
    /// (feature, sub-table). Entry `a` is bit-identical to
    /// [`QTable::q_state`]`(state, a)`: the same integer sums, the same
    /// feature order of the max.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the feature count.
    pub fn q_all(&self, state: &[u64]) -> [f64; NUM_ACTIONS] {
        assert_eq!(state.len(), self.num_features(), "state arity mismatch");
        let mut q = [f64::NEG_INFINITY; NUM_ACTIONS];
        for (f, &v) in state.iter().enumerate() {
            for (q, q_f) in q.iter_mut().zip(self.q_feature_all(f, v)) {
                *q = q.max(q_f);
            }
        }
        q
    }

    /// SARSA update: move every feature's Q toward
    /// `reward + γ·q_next`, each by its own TD error scaled by α.
    /// Returns the pre-update `Q(state, action)`.
    ///
    /// Each feature's sub-table rows are hashed once, read for that
    /// feature's Q and then written. Features own disjoint regions of
    /// the table, so writing feature f cannot move a later feature's
    /// pre-update sum: the returned max is exactly the `q_state` read
    /// before the call.
    pub fn update(&mut self, state: &[u64], action: usize, target: f64, alpha: f64) -> f64 {
        let mut q_before = f64::NEG_INFINITY;
        let mut slots = [0usize; MAX_SUB_TABLES];
        let slots = &mut slots[..self.sub_tables];
        for (f, &v) in state.iter().enumerate() {
            let mut sum = 0i32;
            for (sub, slot) in slots.iter_mut().enumerate() {
                *slot = self.row(f, sub, v) + action;
                sum += self.partials[*slot] as i32;
            }
            let q_f = sum as f64 / SCALE;
            q_before = q_before.max(q_f);
            let td = alpha * (target - q_f);
            // distribute the TD step across the sub-tables so the sum
            // moves by `td`
            let step = (td * SCALE / self.sub_tables as f64).round() as i32;
            if step == 0 {
                // preserve learning for tiny updates: nudge one table
                let nudge = if td > 0.0 {
                    1
                } else if td < 0.0 {
                    -1
                } else {
                    0
                };
                if nudge != 0 {
                    let p = &mut self.partials[slots[0]];
                    *p = p.saturating_add(nudge);
                }
                continue;
            }
            for &slot in slots.iter() {
                let p = &mut self.partials[slot];
                *p = (*p as i32 + step).clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            }
        }
        q_before
    }

    /// Storage in bits (for the Table III accounting).
    pub fn storage_bits(&self) -> u64 {
        (self.partials.len() * 16) as u64
    }

    /// Mean magnitude of the table's Q mass, in Q units: the average
    /// absolute partial value scaled back by the sub-table count. Sub-
    /// tables hash the same feature differently, so exact per-state Q
    /// values cannot be enumerated; this flat-array proxy still tracks
    /// how far training has moved the table from initialization.
    pub fn mean_abs_q(&self) -> f64 {
        let sum: u64 = self.partials.iter().map(|p| p.unsigned_abs() as u64).sum();
        sum as f64 * self.sub_tables as f64 / self.partials.len() as f64 / SCALE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> QTable {
        QTable::new(2, 4, 2048, 1.582)
    }

    #[test]
    fn optimistic_initialization() {
        let t = table();
        for a in 0..NUM_ACTIONS {
            let q = t.q_state(&[0x1234, 0x77], a);
            assert!((q - 1.582).abs() < 0.1, "q = {q}");
        }
    }

    #[test]
    fn update_moves_toward_target() {
        let mut t = table();
        let state = [42u64, 99u64];
        let before = t.q_state(&state, 3);
        for _ in 0..200 {
            t.update(&state, 3, 20.0, 0.05);
        }
        let after = t.q_state(&state, 3);
        assert!(after > before + 5.0, "{before} -> {after}");
        assert!(
            (after - 20.0).abs() < 2.0,
            "should converge near target, got {after}"
        );
    }

    #[test]
    fn negative_targets_learn_too() {
        let mut t = table();
        let state = [7u64, 8u64];
        for _ in 0..300 {
            t.update(&state, 0, -20.0, 0.05);
        }
        assert!(t.q_state(&state, 0) < -10.0);
    }

    #[test]
    fn updates_do_not_leak_across_actions() {
        let mut t = table();
        let state = [11u64, 22u64];
        let q_other = t.q_state(&state, 1);
        for _ in 0..100 {
            t.update(&state, 2, 15.0, 0.1);
        }
        assert!((t.q_state(&state, 1) - q_other).abs() < 0.2);
    }

    #[test]
    fn different_states_mostly_independent() {
        let mut t = table();
        let a = [100u64, 200u64];
        let b = [101u64, 201u64];
        let before_b = t.q_state(&b, 0);
        for _ in 0..100 {
            t.update(&a, 0, -20.0, 0.1);
        }
        // hashing may collide in one sub-table but not all four
        assert!((t.q_state(&b, 0) - before_b).abs() < 5.0);
    }

    #[test]
    fn single_feature_table() {
        let t = QTable::new(1, 4, 2048, 1.0);
        assert_eq!(t.num_features(), 1);
        let q = t.q_state(&[5], 0);
        assert!((q - 1.0).abs() < 0.1);
    }

    #[test]
    fn storage_matches_table_iii() {
        let t = QTable::new(2, 4, 2048, 1.582);
        // Table III: 2 features × 4 sub-tables × 2048 16-bit entries
        // ≈ 32 KB. Slots quantize to whole rows of 7 actions.
        let bits = t.storage_bits();
        let kb = bits as f64 / 8.0 / 1024.0;
        assert!((kb - 32.0).abs() < 0.5, "Q-table = {kb} KB");
    }

    #[test]
    #[should_panic(expected = "too many sub-tables")]
    fn sub_table_count_is_bounded() {
        let _ = QTable::new(2, MAX_SUB_TABLES + 1, 2048, 1.0);
    }

    #[test]
    #[should_panic(expected = "state arity")]
    fn wrong_arity_panics() {
        let t = table();
        let _ = t.q_state(&[1], 0);
    }
}
