//! Randomized invariant tests for CHROME's learning structures, driven
//! by a seeded in-repo RNG so every run is deterministic.

use chrome_core::eq::{EqEntry, EqFifo, EqState};
use chrome_core::qtable::{QTable, NUM_ACTIONS};
use chrome_core::{Agent, ChromeConfig, EngineConfig, Environment, NoObserver, RlEngine};
use chrome_sim::rng::SmallRng;

const CASES: usize = 64;

fn entry(line: u64, action: usize) -> EqEntry {
    EqEntry {
        id: line,
        state: EqState::from_slice(&[line, line >> 8]),
        action,
        trigger_hit: action >= 4,
        key: line,
        lane: 0,
        reward: None,
    }
}

/// The Q-table's SARSA update converges toward a constant target from
/// any starting configuration.
#[test]
fn qtable_converges() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0001);
    for case in 0..CASES {
        let state = [rng.next_u64(), rng.next_u64()];
        let action = rng.gen_range(0..NUM_ACTIONS);
        let target = rng.gen_f64() * 60.0 - 30.0;
        let mut t = QTable::new(2, 4, 2048, 1.582);
        for _ in 0..600 {
            t.update(&state, action, target, 0.1);
        }
        let q = t.q_state(&state, action);
        assert!(
            (q - target).abs() < 3.0,
            "case {case}: q={q} target={target}"
        );
    }
}

/// Updates to one action never perturb another action of the same
/// state by more than fixed-point noise.
#[test]
fn qtable_actions_isolated() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0002);
    for case in 0..CASES {
        let state = [rng.next_u64(), rng.next_u64()];
        let a = rng.gen_range(0..NUM_ACTIONS);
        let b = (a + rng.gen_range(1..NUM_ACTIONS)) % NUM_ACTIONS;
        let mut t = QTable::new(2, 4, 2048, 1.0);
        let before = t.q_state(&state, b);
        for _ in 0..100 {
            t.update(&state, a, -25.0, 0.1);
        }
        let after = t.q_state(&state, b);
        assert!(
            (after - before).abs() < 0.2,
            "case {case}: action {b} moved by update to {a}"
        );
    }
}

/// A `features` × `subs` table with a random row count and initial
/// value.
fn random_table(rng: &mut SmallRng, features: usize, subs: usize) -> QTable {
    // few rows, so distinct states collide in some sub-tables
    let entries = rng.gen_range(NUM_ACTIONS..300);
    QTable::new(features, subs, entries, rng.gen_f64() * 40.0 - 20.0)
}

/// A random update: small and large TD steps (the one-table nudge and
/// the saturating clamp both run), on a small state pool.
fn random_update(rng: &mut SmallRng, t: &mut QTable, pool: &[[u64; 2]], features: usize) {
    let state = &pool[rng.gen_range(0..pool.len())][..features];
    let action = rng.gen_range(0..NUM_ACTIONS);
    let target = rng.gen_f64() * 2000.0 - 1000.0;
    let alpha = [0.0001, 0.05, 0.5, 1.0][rng.gen_range(0usize..4)];
    let before = t.q_state(state, action);
    let returned = t.update(state, action, target, alpha);
    assert_eq!(
        returned.to_bits(),
        before.to_bits(),
        "update must return the pre-update Q"
    );
}

/// `q_all` reads every action from one row per (feature, sub-table) and
/// agrees with the per-action `q_state` bit for bit, on random tables
/// after random update histories.
#[test]
fn q_all_matches_q_state_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0003);
    for (features, subs) in [(2, 4), (2, 2), (1, 4)] {
        for case in 0..CASES {
            let mut t = random_table(&mut rng, features, subs);
            let pool: Vec<[u64; 2]> = (0..8)
                .map(|_| [rng.next_u64(), rng.gen_range(0u64..64)])
                .collect();
            for step in 0..200 {
                random_update(&mut rng, &mut t, &pool, features);
                if step % 20 != 0 {
                    continue;
                }
                for full in pool.iter().chain([[rng.next_u64(), rng.next_u64()]].iter()) {
                    let state = &full[..features];
                    let all = t.q_all(state);
                    for (a, q) in all.iter().enumerate() {
                        assert_eq!(
                            q.to_bits(),
                            t.q_state(state, a).to_bits(),
                            "{features}x{subs} case {case} step {step} action {a}"
                        );
                    }
                    for (f, &v) in state.iter().enumerate() {
                        let row = t.q_feature_all(f, v);
                        for (a, q) in row.iter().enumerate() {
                            assert_eq!(q.to_bits(), t.q_feature(f, v, a).to_bits());
                        }
                    }
                }
            }
        }
    }
}

/// `RlEngine::select` always returns a legal action, together with that
/// action's current Q-value, greedy or exploring.
#[test]
fn select_returns_a_legal_action_and_its_q() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0006);
    for case in 0..CASES {
        let mut e = RlEngine::new(EngineConfig {
            epsilon: [0.0, 0.1, 1.0][case % 3],
            eq_fifo_len: 2,
            seed: rng.next_u64(),
            ..EngineConfig::from(&ChromeConfig::default())
        });
        let pool: Vec<[u64; 2]> = (0..4).map(|_| [rng.next_u64(), rng.next_u64()]).collect();
        for i in 0..40u64 {
            let state = pool[rng.gen_range(0..pool.len())];
            let action = rng.gen_range(0..NUM_ACTIONS);
            let reward = rng.gen_f64() * 40.0 - 20.0;
            e.record(0, i, &state, action, false, i, 0, |_| reward);
        }
        for _ in 0..16 {
            let state = pool[rng.gen_range(0..pool.len())];
            let legal_mask = rng.gen_range(1u64..128) as u8;
            let legal: Vec<usize> = (0..NUM_ACTIONS)
                .filter(|&a| legal_mask & (1 << a) != 0)
                .collect();
            let (chosen, q) = e.select(&state, &legal);
            assert!(
                legal.contains(&chosen),
                "case {case}: illegal action {chosen}"
            );
            assert_eq!(q.to_bits(), e.q(&state, chosen).to_bits(), "case {case}");
        }
    }
}

/// A toy environment whose state is a pure function of the access, so
/// a test can read the Q vector an access will be decided against.
struct KeyEnv;

fn key_state(key: u64, hit: bool) -> [u64; 2] {
    [key % 13, (key >> 2) ^ hit as u64]
}

impl Environment for KeyEnv {
    type Access = u64;
    type Ctx = ();

    fn state(&mut self, key: &u64, hit: bool) -> ([u64; 2], usize) {
        (key_state(*key, hit), 2)
    }
    fn key(&self, key: &u64) -> u64 {
        *key
    }
    fn lane(&self, _: &u64) -> usize {
        0
    }
    fn matched_reward(&self, _: &u64, hit: bool) -> f64 {
        if hit {
            12.0
        } else {
            -9.0
        }
    }
    fn unmatched_reward(&self, _: &(), entry: &EqEntry) -> f64 {
        if entry.action == 0 {
            5.0
        } else {
            -4.0
        }
    }
}

/// `Decision::q` is the engine's Q of the chosen action at decision
/// time: the table as the access found it, before its own training
/// step (and unchanged after an unsampled access, which trains
/// nothing).
#[test]
fn decision_q_is_the_engine_q_of_the_chosen_action() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0007);
    let mut agent = Agent::new(
        KeyEnv,
        RlEngine::new(EngineConfig {
            eq_fifo_len: 4,
            sampled_sets: 4,
            epsilon: 0.1,
            ..EngineConfig::from(&ChromeConfig::default())
        }),
    );
    for i in 0..4000 {
        let key = rng.gen_range(0u64..200);
        let hit = rng.gen_range(0u64..2) == 1;
        let state = key_state(key, hit);
        let si = (i % 3 != 0).then_some((key % 4) as usize);
        let before = agent.engine.qtable().q_all(&state);
        let d = agent.on_access(si, &key, hit, &(), &mut NoObserver);
        assert_eq!(d.q.to_bits(), before[d.action].to_bits(), "access {i}");
        if si.is_none() {
            assert_eq!(d.q.to_bits(), agent.engine.q(&state, d.action).to_bits());
        }
    }
    assert!(agent.engine.stats.q_updates > 0, "training ran");
}

/// The EQ FIFO preserves order, respects capacity and reports
/// evictions exactly once per overflow.
#[test]
fn eq_fifo_is_fifo() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0004);
    for case in 0..CASES {
        let cap = rng.gen_range(1..16usize);
        let count = rng.gen_range(1..120usize);
        let lines: Vec<u64> = (0..count).map(|_| rng.gen_range(0u64..64)).collect();
        let mut fifo = EqFifo::default();
        let mut evictions = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            if let Some((evicted, next)) = fifo.push(entry(l, i % NUM_ACTIONS), cap) {
                evictions.push(evicted.key);
                assert!(next.is_some(), "case {case}: FIFO nonempty after eviction");
            }
            assert!(fifo.len() <= cap, "case {case}: over capacity");
        }
        // evictions come out in insertion order
        let expected: Vec<u64> = lines
            .iter()
            .copied()
            .take(lines.len().saturating_sub(cap))
            .collect();
        assert_eq!(evictions, expected, "case {case}: eviction order broken");
    }
}

/// `find_unrewarded` only ever returns entries with the searched line
/// and no reward.
#[test]
fn eq_find_respects_filters() {
    let mut rng = SmallRng::seed_from_u64(0xC02E_0005);
    for case in 0..CASES {
        let count = rng.gen_range(1..60usize);
        let probe = rng.gen_range(0u64..8);
        let mut fifo = EqFifo::default();
        for i in 0..count {
            fifo.push(entry(rng.gen_range(0u64..8), i % NUM_ACTIONS), 64);
        }
        if let Some(e) = fifo.find_unrewarded(probe) {
            assert_eq!(e.key, probe, "case {case}: wrong line");
            assert!(e.reward.is_none(), "case {case}: rewarded entry returned");
            e.reward = Some(1.0);
        }
    }
}
