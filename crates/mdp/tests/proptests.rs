//! Property-based tests for the MDP engine: probabilistic-reachability
//! laws checked on randomly generated MDPs, and a differential suite
//! holding the per-SCC solver to whole-model reference fixpoints.

use proptest::prelude::*;
use tempo_mdp::{
    bounded_reachability_governed, expected_reward_governed, prob1_exists, reach_exists,
    reach_forall_positive, reachability_governed, Mdp, MdpBuilder, Opt, StateId, EPSILON,
};
use tempo_obs::Budget;

const N: usize = 6;

/// A random MDP over `N` states: each state gets 0..=2 actions, each with
/// a distribution over 1..=3 successors.
fn arb_mdp() -> impl Strategy<Value = Mdp> {
    let action = (
        prop::collection::vec((0..N, 1..=10_u32), 1..=3),
        0.0..3.0_f64,
    );
    prop::collection::vec(prop::collection::vec(action, 0..=2), N).prop_map(|spec| {
        let mut b = MdpBuilder::new();
        let states: Vec<StateId> = (0..N).map(|_| b.add_state()).collect();
        for (s, actions) in spec.into_iter().enumerate() {
            for (targets, reward) in actions {
                let total: u32 = targets.iter().map(|(_, w)| w).sum();
                let mut dist: Vec<(StateId, f64)> = targets
                    .iter()
                    .map(|&(t, w)| (states[t], f64::from(w) / f64::from(total)))
                    .collect();
                // Repair floating normalization exactly.
                let sum: f64 = dist.iter().map(|(_, p)| p).sum();
                dist.last_mut().expect("non-empty").1 += 1.0 - sum;
                b.add_action(states[s], None, reward, dist)
                    .expect("valid action");
            }
        }
        b.build(states[0]).expect("valid initial state")
    })
}

fn arb_goal() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(prop::bool::ANY, N)
}

proptest! {
    #[test]
    fn probabilities_are_within_bounds(mdp in arb_mdp(), goal in arb_goal()) {
        let pmax = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let pmin = reachability_governed(&mdp, Opt::Min, &goal, &Budget::unlimited()).into_value();
        for i in 0..N {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&pmax.values[i]));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&pmin.values[i]));
            prop_assert!(pmin.values[i] <= pmax.values[i] + 1e-9);
        }
    }

    #[test]
    fn goal_states_have_probability_one(mdp in arb_mdp(), goal in arb_goal()) {
        let pmax = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let pmin = reachability_governed(&mdp, Opt::Min, &goal, &Budget::unlimited()).into_value();
        for (i, &g) in goal.iter().enumerate() {
            if g {
                prop_assert!((pmax.values[i] - 1.0).abs() < 1e-9);
                prop_assert!((pmin.values[i] - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bounded_is_monotone_and_below_unbounded(mdp in arb_mdp(), goal in arb_goal()) {
        let unbounded = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let mut prev = 0.0;
        for k in [0, 1, 2, 5, 20] {
            let bounded = bounded_reachability_governed(&mdp, Opt::Max, &goal, k, &Budget::unlimited()).into_value();
            prop_assert!(bounded.initial_value + 1e-9 >= prev, "monotone in k");
            prop_assert!(bounded.initial_value <= unbounded.initial_value + 1e-9);
            prev = bounded.initial_value;
        }
    }

    #[test]
    fn qualitative_sets_agree_with_quantitative(mdp in arb_mdp(), goal in arb_goal()) {
        let pmax = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let can = reach_exists(&mdp, &goal);
        let one = prob1_exists(&mdp, &goal);
        for i in 0..N {
            if !can[i] {
                prop_assert!(pmax.values[i].abs() < 1e-9, "Prob0 states get 0");
            } else {
                prop_assert!(pmax.values[i] > 0.0 || goal.iter().all(|&g| !g));
            }
            if one[i] {
                prop_assert!((pmax.values[i] - 1.0).abs() < 1e-9, "Prob1E states get 1");
            }
        }
    }

    #[test]
    fn scheduler_achieves_the_value(mdp in arb_mdp(), goal in arb_goal()) {
        // Evaluate the extracted max scheduler as a Markov chain and
        // compare to the reported value (the scheduler realizes Pmax).
        let pmax = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let mut b = MdpBuilder::new();
        let states: Vec<StateId> = (0..N).map(|_| b.add_state()).collect();
        for s in mdp.states() {
            if let Some(ai) = pmax.scheduler[s.index()] {
                let a = &mdp.actions(s)[ai];
                b.add_action(states[s.index()], None, a.reward, a.transitions.clone())
                    .expect("copied action is valid");
            }
        }
        let chain = b.build(states[mdp.initial().index()]).expect("valid");
        let induced = reachability_governed(&chain, Opt::Max, &goal, &Budget::unlimited()).into_value();
        prop_assert!(
            (induced.initial_value - pmax.initial_value).abs() < 1e-6,
            "scheduler value {} vs Pmax {}",
            induced.initial_value,
            pmax.initial_value
        );
    }

    #[test]
    fn expected_reward_nonnegative_and_min_below_max(mdp in arb_mdp(), goal in arb_goal()) {
        let emax = expected_reward_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let emin = expected_reward_governed(&mdp, Opt::Min, &goal, &Budget::unlimited()).into_value();
        for i in 0..N {
            prop_assert!(emax.values[i] >= -1e-9);
            prop_assert!(emin.values[i] >= -1e-9);
            if emax.values[i].is_finite() {
                prop_assert!(emin.values[i] <= emax.values[i] + 1e-6);
            }
        }
    }
}

/// A random MDP of 20–60 states built to contain long chains and larger
/// SCCs: most successors are the next state, the rest are self-loops,
/// back edges and jumps anywhere. About one state in ten is a goal.
fn arb_chain_mdp() -> impl Strategy<Value = (Mdp, Vec<bool>)> {
    const MAX: usize = 60;
    // (kind, raw target, weight): kind 0–3 next state, 4 self-loop,
    // 5 back edge, 6 anywhere.
    let action = prop::collection::vec((0..7_u8, 0..MAX, 1..=10_u32), 1..=3);
    let state = (prop::collection::vec(action, 0..=2), 0..10_u8);
    (20..=MAX, prop::collection::vec(state, MAX)).prop_map(|(n, spec)| {
        let mut b = MdpBuilder::new();
        let states: Vec<StateId> = (0..n).map(|_| b.add_state()).collect();
        let mut goal = vec![false; n];
        for (s, (actions, g)) in spec.into_iter().take(n).enumerate() {
            goal[s] = g == 0;
            for targets in actions {
                let target = |kind: u8, raw: usize| match kind {
                    0..=3 => (s + 1) % n,
                    4 => s,
                    5 => raw % (s + 1),
                    _ => raw % n,
                };
                let total: u32 = targets.iter().map(|&(_, _, w)| w).sum();
                let mut dist: Vec<(StateId, f64)> = targets
                    .iter()
                    .map(|&(k, raw, w)| (states[target(k, raw)], f64::from(w) / f64::from(total)))
                    .collect();
                let sum: f64 = dist.iter().map(|(_, p)| p).sum();
                dist.last_mut().expect("non-empty").1 += 1.0 - sum;
                b.add_action(states[s], None, 0.0, dist)
                    .expect("valid action");
            }
        }
        (b.build(states[0]).expect("valid initial state"), goal)
    })
}

/// Reference `Pmax = 0` complement: backward search from the goal over
/// every positive edge.
fn reference_reach_exists(mdp: &Mdp, goal: &[bool]) -> Vec<bool> {
    let mut seen = goal.to_vec();
    loop {
        let mut changed = false;
        for s in mdp.states() {
            if !seen[s.index()]
                && mdp.actions(s).iter().any(|a| {
                    a.transitions
                        .iter()
                        .any(|&(t, p)| p > 0.0 && seen[t.index()])
                })
            {
                seen[s.index()] = true;
                changed = true;
            }
        }
        if !changed {
            return seen;
        }
    }
}

/// Reference `Prob0A` complement: the whole-model greatest fixpoint of
/// "can avoid the goal", rescanning every state until nothing changes.
fn reference_forall_positive(mdp: &Mdp, goal: &[bool]) -> Vec<bool> {
    let n = mdp.num_states();
    let mut avoid: Vec<bool> = (0..n).map(|i| !goal[i]).collect();
    loop {
        let mut changed = false;
        for s in mdp.states() {
            if !avoid[s.index()] || goal[s.index()] {
                continue;
            }
            let stays = if mdp.is_absorbing(s) {
                true
            } else {
                mdp.actions(s).iter().any(|a| {
                    a.transitions
                        .iter()
                        .all(|&(t, p)| p == 0.0 || avoid[t.index()])
                })
            };
            if !stays {
                avoid[s.index()] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    avoid.iter().map(|&a| !a).collect()
}

/// Reference `Prob1E`: the whole-model double fixpoint.
fn reference_prob1_exists(mdp: &Mdp, goal: &[bool]) -> Vec<bool> {
    let n = mdp.num_states();
    let mut candidate: Vec<bool> = vec![true; n];
    loop {
        let mut reach: Vec<bool> = goal.to_vec();
        loop {
            let mut changed = false;
            for s in mdp.states() {
                if reach[s.index()] || !candidate[s.index()] {
                    continue;
                }
                let ok = mdp.actions(s).iter().any(|a| {
                    a.transitions
                        .iter()
                        .all(|&(t, p)| p == 0.0 || candidate[t.index()])
                        && a.transitions
                            .iter()
                            .any(|&(t, p)| p > 0.0 && reach[t.index()])
                });
                if ok {
                    reach[s.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if reach == candidate {
            return candidate;
        }
        candidate = reach;
    }
}

/// Reference values: the reference qualitative sets, then whole-model
/// Gauss–Seidel value iteration with the engine's stopping rule. `None`
/// when the stopping rule is not met within `max_sweeps`.
fn reference_reachability(
    mdp: &Mdp,
    opt: Opt,
    goal: &[bool],
    max_sweeps: usize,
) -> Option<Vec<f64>> {
    let n = mdp.num_states();
    let mut values = vec![0.0_f64; n];
    let mut fixed = vec![false; n];
    match opt {
        Opt::Max => {
            let can = reference_reach_exists(mdp, goal);
            let one = reference_prob1_exists(mdp, goal);
            for i in 0..n {
                fixed[i] = !can[i] || one[i];
                values[i] = if one[i] { 1.0 } else { 0.0 };
            }
        }
        Opt::Min => {
            let positive = reference_forall_positive(mdp, goal);
            for i in 0..n {
                fixed[i] = goal[i] || !positive[i];
                values[i] = if goal[i] { 1.0 } else { 0.0 };
            }
        }
    }
    for _ in 0..max_sweeps {
        let mut delta = 0.0_f64;
        for s in mdp.states() {
            if fixed[s.index()] || mdp.is_absorbing(s) {
                continue;
            }
            let backups = mdp.actions(s).iter().map(|a| {
                a.transitions
                    .iter()
                    .map(|&(t, p)| p * values[t.index()])
                    .sum::<f64>()
            });
            let v = match opt {
                Opt::Max => backups.fold(f64::NEG_INFINITY, f64::max),
                Opt::Min => backups.fold(f64::INFINITY, f64::min),
            };
            delta = delta.max((v - values[s.index()]).abs());
            values[s.index()] = v;
        }
        if delta < EPSILON {
            return Some(values);
        }
    }
    None
}

/// The per-SCC qualitative sets equal the whole-model fixpoints, and the
/// values agree with reference value iteration wherever it converges.
fn check_against_references(mdp: &Mdp, goal: &[bool]) {
    assert_eq!(reach_exists(mdp, goal), reference_reach_exists(mdp, goal));
    assert_eq!(
        reach_forall_positive(mdp, goal),
        reference_forall_positive(mdp, goal)
    );
    assert_eq!(prob1_exists(mdp, goal), reference_prob1_exists(mdp, goal));
    for opt in [Opt::Max, Opt::Min] {
        let res = reachability_governed(mdp, opt, goal, &Budget::unlimited()).into_value();
        if let Some(reference) = reference_reachability(mdp, opt, goal, 100_000) {
            for (i, (&v, &r)) in res.values.iter().zip(&reference).enumerate() {
                assert!(
                    (v - r).abs() < 1e-6,
                    "{opt:?} state {i}: {v} vs reference {r}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn small_mdps_match_the_reference_fixpoints(mdp in arb_mdp(), goal in arb_goal()) {
        check_against_references(&mdp, &goal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chain_mdps_match_the_reference_fixpoints((mdp, goal) in arb_chain_mdp()) {
        check_against_references(&mdp, &goal);
    }
}
