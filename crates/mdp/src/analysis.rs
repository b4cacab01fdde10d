//! Probabilistic reachability and expected rewards by graph
//! precomputation plus one value pass in SCC order — the algorithmic
//! core of PRISM-style probabilistic model checking, used by the `mcpta`
//! tool of the MODEST toolset (Bozga et al., DATE 2012, §III).
//!
//! Every query builds one `Index` of the MDP's graph and its strongly
//! connected components (SCCs), and does all of its graph and numeric
//! work in the index's reverse topological order: a component is decided
//! once every component it can reach is. A one-state component is solved
//! in closed form; only components of more than one state iterate, on
//! their own states.

use crate::model::{Mdp, StateId};
use tempo_obs::{Budget, Governor, Outcome, RunReport};

/// [`RunReport`] for a value engine: every state is stored up front, so
/// the state counters mirror the model size and `sweeps` counts the
/// sweeps charged to the budget.
fn vi_report(gov: &Governor, states: usize, sweeps: usize) -> RunReport {
    RunReport {
        states_explored: states as u64,
        states_stored: states as u64,
        sweeps: sweeps as u64,
        wall_time: gov.elapsed(),
        ..RunReport::default()
    }
}

/// Optimization direction over schedulers (resolutions of
/// nondeterminism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opt {
    /// Maximize over schedulers (`Pmax`, `Emax`).
    Max,
    /// Minimize over schedulers (`Pmin`, `Emin`).
    Min,
}

impl Opt {
    /// Whether `v` improves on `best` in this direction.
    fn improves(self, v: f64, best: f64) -> bool {
        match self {
            Opt::Max => v > best,
            Opt::Min => v < best,
        }
    }
}

/// Result of a quantitative query: per-state values, the value of the
/// initial state, a memoryless scheduler realizing it, and iteration
/// statistics.
#[derive(Debug, Clone)]
pub struct Quantitative {
    /// Value per state.
    pub values: Vec<f64>,
    /// Value of the initial state.
    pub initial_value: f64,
    /// Chosen action index per state (`None` for absorbing states).
    pub scheduler: Vec<Option<usize>>,
    /// Sweeps charged to the budget. For unbounded queries: one for the
    /// pass over the SCCs, plus one per Gauss–Seidel sweep inside an SCC
    /// of more than one state (an MDP without such SCCs reports 1). For
    /// bounded reachability: one per backup step.
    pub iterations: usize,
}

impl Quantitative {
    /// The memoryless policy extracted from the values: for each state,
    /// the index of the optimal action (`None` on absorbing states). Fixing
    /// these choices turns the MDP into a Markov chain whose reachability
    /// probability equals [`Quantitative::values`] — the basis for
    /// independent certificate checking.
    #[must_use]
    pub fn policy(&self) -> &[Option<usize>] {
        &self.scheduler
    }
}

/// Stopping threshold (absolute) of the Gauss–Seidel iteration inside an
/// SCC of more than one state: the iteration ends after the first sweep
/// that moves no value by this much. One-state SCCs are solved in closed
/// form and never iterate.
pub const EPSILON: f64 = 1e-10;

/// Maximum number of sweeps per unbounded query: [`reachability_governed`]
/// and [`expected_reward_governed`] cap their budget's sweep limit here,
/// so an iteration that stalls ends as
/// [`ExhaustionReason::Iterations`](tempo_obs::ExhaustionReason::Iterations).
pub const MAX_ITERATIONS: usize = 1_000_000;

/// The graph of one query: CSR successor and predecessor lists over the
/// positive-probability edges, with goal states made sinks, and the
/// strongly connected components of that graph in reverse topological
/// order (every SCC comes after all SCCs it can reach).
struct Index {
    succ_start: Vec<usize>,
    succ: Vec<usize>,
    pred_start: Vec<usize>,
    pred: Vec<usize>,
    /// States grouped by SCC: SCC `k` is `members[scc_start[k]..scc_start[k + 1]]`.
    scc_start: Vec<usize>,
    members: Vec<usize>,
}

impl Index {
    fn new(mdp: &Mdp, goal: &[bool]) -> Self {
        assert_eq!(goal.len(), mdp.num_states(), "goal mask length mismatch");
        let n = mdp.num_states();
        // `last[t] == s` marks `t` as already listed among `s`'s successors.
        let mut last = vec![usize::MAX; n];
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_start.push(0);
        for (s, (actions, &is_goal)) in mdp.actions.iter().zip(goal).enumerate() {
            if !is_goal {
                for a in actions {
                    for &(t, p) in &a.transitions {
                        if p > 0.0 && last[t.0] != s {
                            last[t.0] = s;
                            succ.push(t.0);
                        }
                    }
                }
            }
            succ_start.push(succ.len());
        }
        let mut pred_start = vec![0; n + 1];
        for &t in &succ {
            pred_start[t + 1] += 1;
        }
        for i in 0..n {
            pred_start[i + 1] += pred_start[i];
        }
        let mut fill = pred_start.clone();
        let mut pred = vec![0; succ.len()];
        for s in 0..n {
            for &t in &succ[succ_start[s]..succ_start[s + 1]] {
                pred[fill[t]] = s;
                fill[t] += 1;
            }
        }
        let (scc_start, members) = tarjan(&succ_start, &succ);
        Index {
            succ_start,
            succ,
            pred_start,
            pred,
            scc_start,
            members,
        }
    }

    fn successors(&self, s: usize) -> &[usize] {
        &self.succ[self.succ_start[s]..self.succ_start[s + 1]]
    }

    fn predecessors(&self, t: usize) -> &[usize] {
        &self.pred[self.pred_start[t]..self.pred_start[t + 1]]
    }

    /// The SCCs in reverse topological order.
    fn sccs(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.scc_start.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

/// Tarjan's SCC algorithm over a CSR graph, with an explicit stack:
/// digital-clocks MDPs are chains thousands of states deep, too deep for
/// recursion. Tarjan completes an SCC only after every SCC it reaches, so
/// the SCCs come out in reverse topological order, as
/// `(scc_start, members)` (see [`Index`]).
fn tarjan(succ_start: &[usize], succ: &[usize]) -> (Vec<usize>, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let n = succ_start.len() - 1;
    let mut num = vec![UNSEEN; n];
    let mut low = vec![0; n];
    // A visited state is on Tarjan's stack until its SCC is complete.
    let mut done = vec![false; n];
    let mut stack = Vec::new();
    // DFS frames: (state, position of its next successor in `succ`).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut scc_start = vec![0];
    let mut members = Vec::with_capacity(n);
    let mut next = 0;
    for root in 0..n {
        if num[root] != UNSEEN {
            continue;
        }
        num[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        frames.push((root, succ_start[root]));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            if frame.1 < succ_start[v + 1] {
                let w = succ[frame.1];
                frame.1 += 1;
                if num[w] == UNSEEN {
                    num[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    frames.push((w, succ_start[w]));
                } else if !done[w] {
                    low[v] = low[v].min(num[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == num[v] {
                loop {
                    let w = stack.pop().expect("an SCC's root is on the stack");
                    done[w] = true;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                scc_start.push(members.len());
            }
        }
    }
    (scc_start, members)
}

/// States with an index path to a `target` state (never through a goal
/// state, which is a sink of the index): an SCC reaches the target iff
/// one of its states is a target or has an edge to a state that reaches
/// it.
fn reaches(index: &Index, target: &[bool]) -> Vec<bool> {
    let mut can = target.to_vec();
    for scc in index.sccs() {
        if scc
            .iter()
            .any(|&s| can[s] || index.successors(s).iter().any(|&t| can[t]))
        {
            for &s in scc {
                can[s] = true;
            }
        }
    }
    can
}

/// [`reach_forall_positive`] over a built index: the greatest fixpoint of
/// "can avoid the goal" decided one SCC at a time.
fn forall_positive(mdp: &Mdp, index: &Index, goal: &[bool]) -> Vec<bool> {
    // avoid[s]: some scheduler keeps the probability of reaching the goal
    // at 0. Within an SCC, s stays in avoid iff it is absorbing or some
    // action keeps all mass in avoid; later SCCs are already final.
    let mut avoid: Vec<bool> = goal.iter().map(|&g| !g).collect();
    let stays = |s: usize, avoid: &[bool]| {
        mdp.actions[s].is_empty()
            || mdp.actions[s]
                .iter()
                .any(|a| a.transitions.iter().all(|&(t, p)| p == 0.0 || avoid[t.0]))
    };
    for scc in index.sccs() {
        loop {
            let mut changed = false;
            for &s in scc {
                if avoid[s] && !stays(s, &avoid) {
                    avoid[s] = false;
                    changed = true;
                }
            }
            // One scan settles a one-state SCC.
            if !changed || scc.len() == 1 {
                break;
            }
        }
    }
    avoid.iter().map(|&a| !a).collect()
}

/// [`prob1_exists`] over a built index: the `Prob1E` double fixpoint,
/// local to each SCC.
fn prob1e(mdp: &Mdp, index: &Index, goal: &[bool]) -> Vec<bool> {
    // Within the SCC being decided, `x` is the outer candidate set and
    // `y` the inner set of states that reach the goal using only actions
    // that keep all mass in `x`; in decided SCCs both hold the final set.
    let mut x = vec![false; mdp.num_states()];
    let mut y = goal.to_vec();
    let progress = |s: usize, x: &[bool], y: &[bool]| {
        mdp.actions[s].iter().any(|a| {
            a.transitions.iter().all(|&(t, p)| p == 0.0 || x[t.0])
                && a.transitions.iter().any(|&(t, p)| p > 0.0 && y[t.0])
        })
    };
    for scc in index.sccs() {
        if let [s] = *scc {
            // With `s` itself a candidate, an action qualifies when every
            // successor other than `s` is decided in and there is one.
            x[s] = true;
            y[s] = goal[s] || progress(s, &x, &y);
            x[s] = y[s];
            continue;
        }
        for &s in scc {
            x[s] = true;
        }
        loop {
            loop {
                let mut changed = false;
                for &s in scc {
                    if x[s] && !y[s] && progress(s, &x, &y) {
                        y[s] = true;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if scc.iter().all(|&s| x[s] == y[s]) {
                break;
            }
            for &s in scc {
                x[s] = y[s];
                y[s] = goal[s];
            }
        }
    }
    y
}

/// States from which the goal set is reachable by *some* scheduler with
/// positive probability (the complement is the `Pmax = 0` set).
#[must_use]
pub fn reach_exists(mdp: &Mdp, goal: &[bool]) -> Vec<bool> {
    reaches(&Index::new(mdp, goal), goal)
}

/// States from which *every* scheduler reaches the goal with positive
/// probability (the complement is the `Pmin = 0` set): the classic
/// `Prob0A` greatest fixpoint of "can avoid", decided one SCC at a time.
#[must_use]
pub fn reach_forall_positive(mdp: &Mdp, goal: &[bool]) -> Vec<bool> {
    forall_positive(mdp, &Index::new(mdp, goal), goal)
}

/// States where `Pmax(reach goal) = 1`: the classic `Prob1E` double
/// fixpoint, run locally inside each SCC once every later SCC is decided
/// (a one-state SCC is decided by one look at its actions).
#[must_use]
pub fn prob1_exists(mdp: &Mdp, goal: &[bool]) -> Vec<bool> {
    prob1e(mdp, &Index::new(mdp, goal), goal)
}

/// Unbounded probabilistic reachability `P{max,min}(◇ goal)` under a
/// resource [`Budget`].
///
/// Performs qualitative precomputation (exact `0`/`1` states), then
/// solves the remaining states one SCC at a time in reverse topological
/// order: a one-state SCC in closed form, a larger one by Gauss–Seidel
/// iteration over its own states.
///
/// A sweep is the unit the budget's iteration limit counts: the pass
/// over the SCCs charges one, and each Gauss–Seidel sweep inside an SCC
/// of more than one state one more. The sweep limit is capped at
/// [`MAX_ITERATIONS`], and the wall-clock deadline is checked once per
/// sweep. Hitting either ends the query as [`Outcome::Exhausted`]; the
/// partial [`Quantitative`] holds the values reached so far (for `Max` a
/// lower bound on the true probabilities, the qualitative 0/1 states
/// being already exact).
///
/// # Panics
///
/// Panics if `goal.len() != mdp.num_states()`.
pub fn reachability_governed(
    mdp: &Mdp,
    opt: Opt,
    goal: &[bool],
    budget: &Budget,
) -> Outcome<Quantitative> {
    let gov = capped_governor(budget);
    let index = Index::new(mdp, goal);
    let n = mdp.num_states();
    let mut values = vec![0.0_f64; n];
    let fixed: Vec<bool> = match opt {
        Opt::Max => {
            let can = reaches(&index, goal);
            let one = prob1e(mdp, &index, goal);
            for i in 0..n {
                if one[i] {
                    values[i] = 1.0;
                }
            }
            (0..n).map(|i| !can[i] || one[i]).collect()
        }
        Opt::Min => {
            let positive = forall_positive(mdp, &index, goal);
            for i in 0..n {
                if goal[i] {
                    values[i] = 1.0;
                }
            }
            (0..n).map(|i| goal[i] || !positive[i]).collect()
        }
    };
    let iterations = solve(mdp, &index, opt, &mut values, &fixed, false, &gov);
    let scheduler = extract_scheduler(mdp, &index, opt, &values, false, goal);
    let report = vi_report(&gov, n, iterations);
    gov.finish(
        Quantitative {
            initial_value: values[mdp.initial().0],
            values,
            scheduler,
            iterations,
        },
        report,
    )
}

/// The governor of an unbounded query: `budget` with its sweep limit
/// capped at [`MAX_ITERATIONS`].
fn capped_governor(budget: &Budget) -> Governor {
    let cap = MAX_ITERATIONS as u64;
    Budget {
        max_iterations: Some(budget.max_iterations.map_or(cap, |m| m.min(cap))),
        ..budget.clone()
    }
    .governor()
}

/// Step-bounded probabilistic reachability `P{max,min}(◇≤k goal)` under
/// a resource [`Budget`]:
/// each of the `steps` backup sweeps charges one iteration. On
/// exhaustion after `k < steps` sweeps the partial result is the exact
/// `k`-step value (a lower bound on the `steps`-step value).
///
/// # Panics
///
/// Panics if `goal.len() != mdp.num_states()`.
pub fn bounded_reachability_governed(
    mdp: &Mdp,
    opt: Opt,
    goal: &[bool],
    steps: usize,
    budget: &Budget,
) -> Outcome<Quantitative> {
    assert_eq!(goal.len(), mdp.num_states(), "goal mask length mismatch");
    let gov = budget.governor();
    let mut values: Vec<f64> = goal.iter().map(|&g| f64::from(u8::from(g))).collect();
    let mut done = 0_usize;
    for _ in 0..steps {
        if !gov.charge_iteration() || !gov.check_time() {
            break;
        }
        done += 1;
        let prev = values.clone();
        for s in mdp.states() {
            if goal[s.0] {
                continue;
            }
            values[s.0] = combine(mdp, s, opt, &prev, false).0;
        }
    }
    let scheduler = extract_scheduler(mdp, &Index::new(mdp, goal), opt, &values, false, goal);
    let report = vi_report(&gov, mdp.num_states(), done);
    gov.finish(
        Quantitative {
            initial_value: values[mdp.initial().0],
            values,
            scheduler,
            iterations: done,
        },
        report,
    )
}

/// Expected total reward accumulated until reaching `goal`
/// (`E{max,min}(◇ goal)` in PRISM terms).
///
/// Returns `f64::INFINITY` for states that may avoid the goal forever
/// (for `Max`: where `Pmin(◇ goal) < 1`; for `Min`: where
/// `Pmax(◇ goal) < 1`). Both sets come from graph algorithms, not from
/// computed probabilities.
///
/// A state that forms an SCC of its own skips any action that only loops
/// on it, since that action never reaches the goal. Other zero-reward end
/// components (spanning several states, or inside a larger SCC) are not
/// handled yet: there, `Emin` may read low (a scheduler that stays in the
/// component forever collects no reward).
///
/// Runs under a resource [`Budget`], with sweeps counted and capped as
/// in [`reachability_governed`]. On exhaustion the partial values are the
/// current (under-approximate for `Max`) reward vector.
///
/// # Panics
///
/// Panics if `goal.len() != mdp.num_states()`.
pub fn expected_reward_governed(
    mdp: &Mdp,
    opt: Opt,
    goal: &[bool],
    budget: &Budget,
) -> Outcome<Quantitative> {
    let gov = capped_governor(budget);
    let index = Index::new(mdp, goal);
    let n = mdp.num_states();
    // States where the relevant scheduler class reaches the goal a.s.
    let sure: Vec<bool> = match opt {
        // Emax is finite iff every scheduler reaches the goal a.s.
        // (`Pmin = 1`): iff no `Pmin = 0` state is reachable while
        // avoiding the goal.
        Opt::Max => {
            let zero: Vec<bool> = forall_positive(mdp, &index, goal)
                .iter()
                .map(|&p| !p)
                .collect();
            reaches(&index, &zero).iter().map(|&r| !r).collect()
        }
        // Emin is finite iff some scheduler reaches the goal a.s.
        Opt::Min => prob1e(mdp, &index, goal),
    };
    let mut values = vec![0.0_f64; n];
    let mut fixed = vec![false; n];
    for i in 0..n {
        if goal[i] {
            fixed[i] = true;
        } else if !sure[i] {
            values[i] = f64::INFINITY;
            fixed[i] = true;
        }
    }
    let iterations = solve(mdp, &index, opt, &mut values, &fixed, true, &gov);
    let scheduler = extract_scheduler(mdp, &index, opt, &values, true, goal);
    let report = vi_report(&gov, n, iterations);
    gov.finish(
        Quantitative {
            initial_value: values[mdp.initial().0],
            values,
            scheduler,
            iterations,
        },
        report,
    )
}

/// Result of an interval-iteration query: certified lower and upper
/// bounds on the value.
#[derive(Debug, Clone)]
pub struct IntervalResult {
    /// Certified lower bound per state.
    pub lower: Vec<f64>,
    /// Certified upper bound per state.
    pub upper: Vec<f64>,
    /// Lower bound at the initial state.
    pub initial_lower: f64,
    /// Upper bound at the initial state.
    pub initial_upper: f64,
    /// Sweeps performed.
    pub iterations: usize,
}

/// Sound probabilistic reachability by *interval iteration*
/// (Haddad–Monmege / Baier et al.): value iteration from below **and**
/// from above, stopping when the two approximations are within
/// `precision` everywhere. Unlike plain value iteration, the returned
/// interval is a certified enclosure of the true probability.
///
/// If unresolved end components remain after the qualitative
/// precomputation, the upper iteration cannot descend below them; the
/// iteration then stops on stagnation and the (sound but wider) enclosure
/// is returned.
///
/// Runs under a resource [`Budget`]. Every intermediate
/// `[lower, upper]` pair is already a certified enclosure, so the
/// partial result on exhaustion is sound — merely wider than requested.
///
/// # Panics
///
/// Panics if `goal.len() != mdp.num_states()` or `precision <= 0`.
pub fn interval_reachability_governed(
    mdp: &Mdp,
    opt: Opt,
    goal: &[bool],
    precision: f64,
    budget: &Budget,
) -> Outcome<IntervalResult> {
    assert!(precision > 0.0, "precision must be positive");
    let index = Index::new(mdp, goal);
    let n = mdp.num_states();
    // Qualitative precomputation pins the exact 0/1 states; interval
    // iteration converges on the rest (the precomputation removes the
    // end components that would trap the upper iteration).
    let mut lower = vec![0.0_f64; n];
    let mut upper = vec![1.0_f64; n];
    let mut fixed = vec![false; n];
    match opt {
        Opt::Max => {
            let can = reaches(&index, goal);
            let one = prob1e(mdp, &index, goal);
            for i in 0..n {
                if !can[i] {
                    lower[i] = 0.0;
                    upper[i] = 0.0;
                    fixed[i] = true;
                } else if one[i] {
                    lower[i] = 1.0;
                    upper[i] = 1.0;
                    fixed[i] = true;
                }
            }
        }
        Opt::Min => {
            let positive = forall_positive(mdp, &index, goal);
            for i in 0..n {
                if goal[i] {
                    lower[i] = 1.0;
                    upper[i] = 1.0;
                    fixed[i] = true;
                } else if !positive[i] {
                    lower[i] = 0.0;
                    upper[i] = 0.0;
                    fixed[i] = true;
                }
            }
        }
    }
    // Absorbing non-goal states never reach the goal.
    for s in mdp.states() {
        if mdp.is_absorbing(s) && !goal[s.0] && !fixed[s.0] {
            lower[s.0] = 0.0;
            upper[s.0] = 0.0;
            fixed[s.0] = true;
        }
    }
    let gov = budget.governor();
    let mut iterations = 0;
    let mut prev_gap = f64::INFINITY;
    let mut stagnant = 0_u32;
    for _ in 0..MAX_ITERATIONS {
        if !gov.charge_iteration() || !gov.check_time() {
            break;
        }
        iterations += 1;
        let mut gap = 0.0_f64;
        for s in mdp.states() {
            if fixed[s.0] {
                continue;
            }
            let (lo, _) = combine(mdp, s, opt, &lower, false);
            let (hi, _) = combine(mdp, s, opt, &upper, false);
            lower[s.0] = lo;
            upper[s.0] = hi;
            gap = gap.max(hi - lo);
        }
        if gap <= precision {
            break;
        }
        // End components among the unresolved states keep the upper
        // iteration from descending; the enclosure is still sound, so
        // stop once the gap stagnates instead of spinning.
        if (prev_gap - gap).abs() < f64::EPSILON {
            stagnant += 1;
            if stagnant > 1000 {
                break;
            }
        } else {
            stagnant = 0;
        }
        prev_gap = gap;
    }
    let report = vi_report(&gov, n, iterations);
    gov.finish(
        IntervalResult {
            initial_lower: lower[mdp.initial().0],
            initial_upper: upper[mdp.initial().0],
            lower,
            upper,
            iterations,
        },
        report,
    )
}

/// One Bellman backup at state `s`. With `rewards`, the action reward is
/// added (expected-reward form); goal states contribute their (zero)
/// value.
fn combine(mdp: &Mdp, s: StateId, opt: Opt, values: &[f64], rewards: bool) -> (f64, Option<usize>) {
    let acts = mdp.actions(s);
    if acts.is_empty() {
        // Absorbing: implicit self-loop. Reachability value stays; the
        // expected reward of a non-goal absorbing state is handled by the
        // qualitative precomputation (infinite), so 0 here is safe.
        return (values[s.0], None);
    }
    let mut best: Option<(f64, usize)> = None;
    for (ai, a) in acts.iter().enumerate() {
        let mut v = if rewards { a.reward } else { 0.0 };
        for &(t, p) in &a.transitions {
            if p > 0.0 {
                v += p * values[t.0];
            }
        }
        if best.is_none_or(|(b, _)| opt.improves(v, b)) {
            best = Some((v, ai));
        }
    }
    let (v, ai) = best.expect("non-empty action set");
    (v, Some(ai))
}

/// The value of `s` when it forms an SCC on its own, so that every other
/// successor's value is final: the best over actions of
/// `(r + Σ_{t≠s} p·v(t)) / Σ_{t≠s} p(t)`. Dividing by the exit mass
/// rather than by `1 − p(s,s)` keeps the quotient exact when the loop
/// probability is close to 1. An action that only loops on `s` never
/// reaches the goal: it is worth 0 for reachability and is skipped for
/// rewards.
fn exit_value(mdp: &Mdp, s: usize, opt: Opt, values: &[f64], rewards: bool) -> f64 {
    let mut best: Option<f64> = None;
    for a in &mdp.actions[s] {
        let (mut sum, mut exit) = (0.0_f64, 0.0_f64);
        for &(t, p) in &a.transitions {
            if p > 0.0 && t.0 != s {
                sum += p * values[t.0];
                exit += p;
            }
        }
        let v = if exit > 0.0 {
            (if rewards { a.reward + sum } else { sum }) / exit
        } else if rewards {
            continue;
        } else {
            0.0
        };
        if best.is_none_or(|b| opt.improves(v, b)) {
            best = Some(v);
        }
    }
    best.unwrap_or(values[s])
}

/// Solves the non-`fixed` states in the index's SCC order: a one-state
/// SCC by [`exit_value`], a larger one by Gauss–Seidel sweeps over its
/// own states until one moves no value by [`EPSILON`]. The pass charges
/// one sweep to the governor and every Gauss–Seidel sweep one more; on a
/// tripped budget it stops with the values computed so far. Returns the
/// sweeps charged.
fn solve(
    mdp: &Mdp,
    index: &Index,
    opt: Opt,
    values: &mut [f64],
    fixed: &[bool],
    rewards: bool,
    gov: &Governor,
) -> usize {
    if !gov.charge_iteration() || !gov.check_time() {
        return 0;
    }
    let mut sweeps = 1;
    for scc in index.sccs() {
        if let [s] = *scc {
            if !fixed[s] {
                values[s] = exit_value(mdp, s, opt, values, rewards);
            }
            continue;
        }
        if scc.iter().all(|&s| fixed[s]) {
            continue;
        }
        loop {
            if !gov.charge_iteration() || !gov.check_time() {
                return sweeps;
            }
            sweeps += 1;
            let mut delta = 0.0_f64;
            for &s in scc {
                if fixed[s] {
                    continue;
                }
                let (v, _) = combine(mdp, StateId(s), opt, values, rewards);
                delta = delta.max((v - values[s]).abs());
                values[s] = v;
            }
            if delta < EPSILON {
                break;
            }
        }
    }
    sweeps
}

/// Extracts a memoryless scheduler realizing the computed values.
///
/// Greedy choice among value-optimal actions is not enough: with ties, a
/// greedy scheduler may cycle forever inside an equal-value region and
/// never actually reach the goal (the textbook `Pmax` pitfall). Optimal
/// actions are therefore ranked by progress: a state prefers a
/// value-optimal action with a successor strictly closer (in admissible
/// steps) to the goal. The ranks grow by a backward breadth-first search
/// from the goal over the index's predecessor lists: a state is examined
/// whenever one of its successors gets ranked.
fn extract_scheduler(
    mdp: &Mdp,
    index: &Index,
    opt: Opt,
    values: &[f64],
    rewards: bool,
    goal: &[bool],
) -> Vec<Option<usize>> {
    let n = mdp.num_states();
    let admissible = |s: usize, ai: usize| -> bool {
        let a = &mdp.actions[s][ai];
        let mut q = if rewards { a.reward } else { 0.0 };
        for &(t, p) in &a.transitions {
            if p > 0.0 {
                q += p * values[t.0];
            }
        }
        let v = values[s];
        if v.is_infinite() {
            return q.is_infinite();
        }
        (q - v).abs() <= 1e-9 * v.abs().max(1.0)
    };
    let mut scheduler: Vec<Option<usize>> = vec![None; n];
    let mut ranked: Vec<bool> = goal.to_vec();
    let mut queue: Vec<usize> = (0..n).filter(|&s| goal[s]).collect();
    let mut head = 0;
    while let Some(&t) = queue.get(head) {
        head += 1;
        for &s in index.predecessors(t) {
            if ranked[s] {
                continue;
            }
            let progress = (0..mdp.actions[s].len()).find(|&ai| {
                admissible(s, ai)
                    && mdp.actions[s][ai]
                        .transitions
                        .iter()
                        .any(|&(u, p)| p > 0.0 && ranked[u.0])
            });
            if let Some(ai) = progress {
                scheduler[s] = Some(ai);
                ranked[s] = true;
                queue.push(s);
            }
        }
    }
    // States that cannot make progress toward the goal (value 0 for Pmax,
    // goal avoided for Pmin, infinite expectation): any optimal action.
    for s in mdp.states() {
        if scheduler[s.0].is_none() {
            scheduler[s.0] = combine(mdp, s, opt, values, rewards).1;
        }
    }
    scheduler
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MdpBuilder;

    /// A fair coin DTMC: s0 → heads/tails with probability ½ each.
    fn coin() -> (Mdp, StateId, StateId) {
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let heads = b.add_state();
        let tails = b.add_state();
        b.add_action(s0, None, 1.0, vec![(heads, 0.5), (tails, 0.5)])
            .unwrap();
        (b.build(s0).unwrap(), heads, tails)
    }

    fn mask(n: usize, set: &[StateId]) -> Vec<bool> {
        let mut m = vec![false; n];
        for s in set {
            m[s.0] = true;
        }
        m
    }

    #[test]
    fn coin_probabilities() {
        let (mdp, heads, _) = coin();
        let goal = mask(mdp.num_states(), &[heads]);
        let res = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        assert!((res.initial_value - 0.5).abs() < 1e-9);
        let res = reachability_governed(&mdp, Opt::Min, &goal, &Budget::unlimited()).into_value();
        assert!((res.initial_value - 0.5).abs() < 1e-9);
    }

    #[test]
    fn geometric_retry_reaches_almost_surely() {
        // s0: retry with p=0.9 back to s0, succeed with 0.1.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let ok = b.add_state();
        b.add_action(s0, None, 1.0, vec![(s0, 0.9), (ok, 0.1)])
            .unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(2, &[ok]);
        let p = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        assert!((p.initial_value - 1.0).abs() < 1e-9);
        // Expected number of trials = 10 (reward 1 per attempt).
        let e = expected_reward_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        assert!((e.initial_value - 10.0).abs() < 1e-6);
    }

    #[test]
    fn nondeterminism_max_vs_min() {
        // s0 has two actions: safe (to goal w.p. 1) and risky (goal 0.3,
        // sink 0.7).
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let goal_s = b.add_state();
        let sink = b.add_state();
        b.add_action(s0, Some("safe"), 0.0, vec![(goal_s, 1.0)])
            .unwrap();
        b.add_action(s0, Some("risky"), 0.0, vec![(goal_s, 0.3), (sink, 0.7)])
            .unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(3, &[goal_s]);
        let pmax = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let pmin = reachability_governed(&mdp, Opt::Min, &goal, &Budget::unlimited()).into_value();
        assert!((pmax.initial_value - 1.0).abs() < 1e-9);
        assert!((pmin.initial_value - 0.3).abs() < 1e-9);
        assert_eq!(pmax.scheduler[0], Some(0));
        assert_eq!(pmin.scheduler[0], Some(1));
    }

    #[test]
    fn qualitative_sets() {
        // s0 -> s1 -> goal; s2 isolated.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let g = b.add_state();
        let s2 = b.add_state();
        b.add_action(s0, None, 0.0, vec![(s1, 1.0)]).unwrap();
        b.add_action(s1, None, 0.0, vec![(g, 1.0)]).unwrap();
        b.add_action(s2, None, 0.0, vec![(s2, 1.0)]).unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(4, &[g]);
        let can = reach_exists(&mdp, &goal);
        assert_eq!(can, vec![true, true, true, false]);
        let one = prob1_exists(&mdp, &goal);
        assert_eq!(one, vec![true, true, true, false]);
        let pos = reach_forall_positive(&mdp, &goal);
        assert_eq!(pos, vec![true, true, true, false]);
    }

    #[test]
    fn bounded_reachability_steps() {
        // Chain s0 -> s1 -> s2(goal).
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.add_action(s0, None, 0.0, vec![(s1, 1.0)]).unwrap();
        b.add_action(s1, None, 0.0, vec![(s2, 1.0)]).unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(3, &[s2]);
        assert_eq!(
            bounded_reachability_governed(&mdp, Opt::Max, &goal, 1, &Budget::unlimited())
                .into_value()
                .initial_value,
            0.0
        );
        assert_eq!(
            bounded_reachability_governed(&mdp, Opt::Max, &goal, 2, &Budget::unlimited())
                .into_value()
                .initial_value,
            1.0
        );
    }

    #[test]
    fn infinite_expected_reward_detected() {
        // s0 can loop forever away from the goal.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let g = b.add_state();
        b.add_action(s0, Some("loop"), 1.0, vec![(s0, 1.0)])
            .unwrap();
        b.add_action(s0, Some("go"), 1.0, vec![(g, 1.0)]).unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(2, &[g]);
        // Max: the maximizing scheduler can avoid the goal ⇒ ∞.
        let emax =
            expected_reward_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        assert!(emax.initial_value.is_infinite());
        // Min: go directly ⇒ 1.
        let emin =
            expected_reward_governed(&mdp, Opt::Min, &goal, &Budget::unlimited()).into_value();
        assert!((emin.initial_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interval_iteration_brackets_value_iteration() {
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let ok = b.add_state();
        let lose = b.add_state();
        b.add_action(s0, None, 0.0, vec![(s0, 0.5), (ok, 0.3), (lose, 0.2)])
            .unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(3, &[ok]);
        let vi = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let ii = interval_reachability_governed(&mdp, Opt::Max, &goal, 1e-8, &Budget::unlimited())
            .into_value();
        assert!(ii.initial_lower <= vi.initial_value + 1e-8);
        assert!(vi.initial_value <= ii.initial_upper + 1e-8);
        assert!(ii.initial_upper - ii.initial_lower <= 1e-8);
        // Exact value: 0.3 / 0.5 = 0.6.
        assert!((vi.initial_value - 0.6).abs() < 1e-8);
    }

    #[test]
    fn interval_iteration_pins_qualitative_states() {
        // s2 cannot reach the goal: both bounds must be exactly 0 without
        // iteration error.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let g = b.add_state();
        let s2 = b.add_state();
        b.add_action(s0, None, 0.0, vec![(g, 1.0)]).unwrap();
        b.add_action(s2, None, 0.0, vec![(s2, 1.0)]).unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(3, &[g]);
        let ii = interval_reachability_governed(&mdp, Opt::Max, &goal, 1e-6, &Budget::unlimited())
            .into_value();
        assert_eq!(ii.lower[s2.0], 0.0);
        assert_eq!(ii.upper[s2.0], 0.0);
        assert_eq!(ii.lower[s0.0], 1.0);
        assert_eq!(ii.upper[s0.0], 1.0);
    }

    #[test]
    fn interval_iteration_sound_on_end_components() {
        // s0 may loop forever (end component) or gamble 50/50: Pmax = 0.5,
        // but the upper iteration cannot descend below the loop. The
        // enclosure must stay sound and the call must terminate.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let g = b.add_state();
        let lose = b.add_state();
        b.add_action(s0, Some("loop"), 0.0, vec![(s0, 1.0)])
            .unwrap();
        b.add_action(s0, Some("gamble"), 0.0, vec![(g, 0.5), (lose, 0.5)])
            .unwrap();
        let mdp = b.build(s0).unwrap();
        let goal = mask(3, &[g]);
        let ii = interval_reachability_governed(&mdp, Opt::Max, &goal, 1e-6, &Budget::unlimited())
            .into_value();
        let vi = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        assert!(ii.initial_lower <= vi.initial_value + 1e-9);
        assert!(vi.initial_value <= ii.initial_upper + 1e-9);
        assert!((vi.initial_value - 0.5).abs() < 1e-9);
        assert!(ii.iterations < MAX_ITERATIONS);
    }

    #[test]
    fn knuth_yao_die_first_roll() {
        // Knuth–Yao simulation of a die with a fair coin: check the
        // probability of rolling a 1 is 1/6.
        let mut b = MdpBuilder::new();
        let states: Vec<StateId> = (0..13).map(|_| b.add_state()).collect();
        // 0 is the root; 7..=12 are die outcomes 1..=6.
        let coin = |b: &mut MdpBuilder, s: usize, l: usize, r: usize| {
            b.add_action(
                states[s],
                None,
                0.0,
                vec![(states[l], 0.5), (states[r], 0.5)],
            )
            .unwrap();
        };
        coin(&mut b, 0, 1, 2);
        coin(&mut b, 1, 3, 4);
        coin(&mut b, 2, 5, 6);
        coin(&mut b, 3, 1, 7); // back to 1 or outcome 1
        coin(&mut b, 4, 8, 9);
        coin(&mut b, 5, 10, 11);
        coin(&mut b, 6, 2, 12); // back to 2 or outcome 6
        let mdp = b.build(states[0]).unwrap();
        let goal = mask(13, &[states[7]]);
        let p = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        assert!((p.initial_value - 1.0 / 6.0).abs() < 1e-9);
    }

    /// `s0` retries with probability `1 − 1e-6` and reaches `ok` with
    /// `1e-6`, earning `reward` per attempt.
    fn slow_retry(reward: f64) -> (Mdp, Vec<bool>) {
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let ok = b.add_state();
        b.add_action(s0, None, reward, vec![(s0, 1.0 - 1e-6), (ok, 1e-6)])
            .unwrap();
        (b.build(s0).unwrap(), mask(2, &[ok]))
    }

    #[test]
    fn slow_geometric_retry_is_solved_exactly() {
        // Plain value iteration stopped here after 1 000 000 sweeps at
        // 1 − 1/e; the closed form of the one-state SCC is exact.
        let (mdp, goal) = slow_retry(0.0);
        for opt in [Opt::Min, Opt::Max] {
            let res = reachability_governed(&mdp, opt, &goal, &Budget::unlimited()).into_value();
            assert_eq!(res.initial_value, 1.0, "{opt:?}");
            assert_eq!(res.iterations, 1, "{opt:?}");
        }
    }

    #[test]
    fn slow_geometric_retry_expected_reward_is_exact() {
        // One attempt costs 1, so the expected cost is 1 / 1e-6.
        let (mdp, goal) = slow_retry(1.0);
        for opt in [Opt::Max, Opt::Min] {
            let e = expected_reward_governed(&mdp, opt, &goal, &Budget::unlimited())
                .into_value()
                .initial_value;
            assert!(((e - 1e6) / 1e6).abs() < 1e-9, "{opt:?}: {e}");
        }
    }

    #[test]
    fn idle_zero_reward_loop_is_not_a_way_to_the_goal() {
        // Idling costs nothing but never reaches the goal, so Emin is the
        // cost of leaving.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let g = b.add_state();
        b.add_action(s0, Some("idle"), 0.0, vec![(s0, 1.0)])
            .unwrap();
        b.add_action(s0, Some("go"), 1.0, vec![(g, 1.0)]).unwrap();
        let mdp = b.build(s0).unwrap();
        let emin = expected_reward_governed(&mdp, Opt::Min, &mask(2, &[g]), &Budget::unlimited())
            .into_value();
        assert_eq!(emin.initial_value, 1.0);
        assert_eq!(emin.scheduler[s0.0], Some(1), "the scheduler leaves");
    }

    #[test]
    fn stalled_iteration_ends_exhausted_at_the_sweep_cap() {
        // The retry loop spans two states, so it is iterated, and one
        // sweep gains only 1e-6 of the remaining gap: the stopping rule
        // is still far off after MAX_ITERATIONS sweeps.
        let mut b = MdpBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let g = b.add_state();
        b.add_action(s0, None, 0.0, vec![(s1, 1.0)]).unwrap();
        b.add_action(s1, None, 0.0, vec![(s0, 1.0 - 1e-6), (g, 1e-6)])
            .unwrap();
        let mdp = b.build(s0).unwrap();
        let out = reachability_governed(&mdp, Opt::Min, &mask(3, &[g]), &Budget::unlimited());
        assert_eq!(
            out.exhaustion(),
            Some(tempo_obs::ExhaustionReason::Iterations)
        );
        assert_eq!(out.report().sweeps, MAX_ITERATIONS as u64);
        let v = out.value().initial_value;
        assert!(v > 0.0 && v < 1.0, "partial value {v} is a lower bound");
    }

    #[test]
    fn sccs_come_in_reverse_topological_order() {
        // 0 → 1 ⇄ 2 → 3, plus 4 → 4 and 4 → 0.
        let succ_start = [0, 1, 2, 4, 4, 6];
        let succ = [1, 2, 1, 3, 4, 0];
        let (start, members) = tarjan(&succ_start, &succ);
        let sccs: Vec<Vec<usize>> = start
            .windows(2)
            .map(|w| {
                let mut c = members[w[0]..w[1]].to_vec();
                c.sort_unstable();
                c
            })
            .collect();
        assert_eq!(sccs, vec![vec![3], vec![1, 2], vec![0], vec![4]]);
    }

    #[test]
    fn deep_chain_is_solved_in_one_pass() {
        // 50 000 states in a row: each moves on w.p. 0.9999 or is lost.
        // Recursion this deep would overflow the stack.
        let len = 50_000;
        let mut b = MdpBuilder::new();
        let states: Vec<StateId> = (0..=len).map(|_| b.add_state()).collect();
        let lose = b.add_state();
        for i in 0..len {
            b.add_action(
                states[i],
                None,
                0.0,
                vec![(states[i + 1], 0.9999), (lose, 0.0001)],
            )
            .unwrap();
        }
        let mdp = b.build(states[0]).unwrap();
        let goal = mask(mdp.num_states(), &[states[len]]);
        let res = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
        let exact = 0.9999_f64.powi(len as i32);
        assert!(((res.initial_value - exact) / exact).abs() < 1e-9);
        assert_eq!(res.iterations, 1);
        assert!(res.scheduler[..len].iter().all(|&c| c == Some(0)));
    }
}
