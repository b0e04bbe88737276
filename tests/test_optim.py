"""Search-driver behaviour: witnesses, seeds, determinism, failure modes."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from seqsum import optim, spaces, summing, tensor, vector_norms as vn
from seqsum.optim import InfeasibleSeedError, OptBudget
from seqsum.spaces import OrliczFunction, WeightSeq


def l2_ball(dim):
    return optim.gauge_ball(lambda v: np.linalg.norm(v, axis=-1), dim, "l2-ball")


def test_linear_functional_over_l2_ball():
    target = np.array([3.0, 4.0])
    res = optim.maximize_over_ball(
        lambda F: F @ target, l2_ball(2),
        budget=OptBudget(restarts=4, iterations=200),
    )
    assert res.value == pytest.approx(5.0, abs=1e-6)
    assert np.allclose(res.witness, [0.6, 0.8], atol=1e-4)
    assert res.bound_direction == "lower-of-sup"
    # witness re-evaluation reproduces the reported value
    assert float(res.witness @ target) == pytest.approx(res.value, abs=1e-12)


def test_pairing_over_space_ball_self_dual():
    ball = spaces.space_ball(spaces.lp(2), 2)
    beta = np.array([3.0, 4.0])
    res = optim.maximize_over_ball(
        lambda A: np.sum(np.abs(A * beta), axis=-1), ball,
        budget=OptBudget(restarts=4, iterations=200),
    )
    assert res.value == pytest.approx(5.0, abs=1e-5)


def test_space_ball_l1_objective_vs_grid():
    rng = np.random.default_rng(21)
    c = rng.standard_normal(3)
    Q = rng.standard_normal((3, 3)) * 0.3

    def objective(A):
        return A @ c - np.sum((A @ Q) * A, axis=-1)

    # dense grid over the l1 ball at resolution 0.01 (octant scan with signs)
    best = -math.inf
    steps = np.arange(0.0, 1.0 + 1e-12, 0.01)
    for x in steps:
        for y in steps:
            if x + y > 1.0 + 1e-12:
                break
            z = 1.0 - x - y
            for sx in (x, -x):
                for sy in (y, -y):
                    for sz in (z, -z):
                        best = max(best, objective(np.array([[sx, sy, sz]]))[0])
    res = optim.maximize_over_ball(
        objective, spaces.space_ball(spaces.lp(1), 3),
        budget=OptBudget(restarts=6, iterations=250),
    )
    assert res.value == pytest.approx(best, abs=2e-2)


def test_luxemburg_residual_minimization_matches_bisection():
    fn = OrliczFunction(kind="power_log", p=2.0)
    a = np.array([1.0, 2.5, 0.5])
    want = oc.luxemburg_secant_oracle(fn, a)

    def residual(V):
        k = np.abs(V[:, :1]) + 1e-9
        return np.abs(np.sum(fn(np.abs(a) / k), axis=-1) - 1.0)

    dom = optim.free_domain(1, scale=float(np.max(np.abs(a))), label="gauge")
    res = optim.minimize_over_family(
        residual, dom, budget=OptBudget(restarts=6, iterations=300),
        seeds=[np.array([float(np.linalg.norm(a))])],
    )
    assert abs(float(res.witness[0])) == pytest.approx(want, rel=1e-5)
    assert res.bound_direction == "upper-of-inf"


def test_seed_domination():
    target = np.array([1.0, -2.0])
    seed = np.array([0.0, -1.0])  # already optimal direction
    res = optim.maximize_over_ball(
        lambda F: F @ target, l2_ball(2),
        budget=OptBudget(restarts=1, iterations=1), seeds=[seed],
    )
    assert res.value >= float(seed @ target) - 1e-12


def _l3_image(F, A=np.array([[1.0, 2.0, -0.5], [0.3, -1.0, 0.8]])):
    return np.sum(np.abs(F @ A.T) ** 3, axis=-1) ** (1.0 / 3.0)


def test_target_above_the_sup_changes_nothing():
    # ||A f||_3 over the l2 ball stays below sigma_max(A), so 10 is never met
    budget = OptBudget(restarts=3, iterations=80, seed=9)
    seeds = [np.array([0.0, 1.0, 0.0]), np.array([0.6, 0.0, 0.8])]
    free = optim.maximize_over_ball(_l3_image, l2_ball(3), budget=budget, seeds=seeds)
    capped = optim.maximize_over_ball(_l3_image, l2_ball(3), budget=budget, seeds=seeds,
                                      target=10.0)
    assert np.array_equal(capped.witness, free.witness)
    assert capped.value == free.value
    assert capped.details["evals"] == free.details["evals"]
    assert capped.converged == free.converged
    assert capped.bound_direction == free.bound_direction == "lower-of-sup"
    assert capped.certified_bound == 10.0 and free.certified_bound is None
    assert "stop" not in capped.details


def test_target_met_by_a_seed_runs_no_restart():
    # the l2 norm is 1 at every unit seed: the seeds meet the target up front,
    # and the search keeps the first of them, with no polish onto the sphere
    seeds = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
    res = optim.maximize_over_ball(lambda F: np.linalg.norm(F, axis=-1), l2_ball(2),
                                   budget=OptBudget(restarts=8, iterations=300),
                                   seeds=seeds, target=1.0)
    assert res.details["restarts_run"] == 0
    assert res.details["stop"] == "certificate"
    assert res.details["evals"] == len(seeds)
    assert res.bound_direction == "exact"
    assert res.converged is True
    assert res.value == res.certified_bound == 1.0
    assert np.array_equal(res.witness, seeds[0])
    assert np.signbit(res.witness).tolist() == np.signbit(seeds[0]).tolist()


def test_target_missed_still_polishes_onto_the_sphere():
    # min(|x|_2, 0.5) is flat from the seed on, so no poll moves it and only
    # the polish carries it onto the sphere, where it scores as well.  The
    # target 1 is missed, so the polish runs, and evals counts the seed, the
    # restart's start and its one sweep of four polls, and the polish.
    seed = np.array([0.5, 0.0])
    budget = OptBudget(restarts=1, iterations=1)
    res = optim.maximize_over_ball(lambda F: np.minimum(np.linalg.norm(F, axis=-1), 0.5),
                                   l2_ball(2), budget=budget, seeds=[seed], target=1.0)
    assert "stop" not in res.details
    assert res.bound_direction == "lower-of-sup"
    assert res.details["evals"] == 1 + (1 + 4) + 1
    assert np.array_equal(res.witness, np.array([1.0, 0.0]))
    assert res.value == 0.5 and res.certified_bound == 1.0


def _counted_l2_ball(dim, label, calls):
    # the unit ball of the l2 norm as gauge_ball builds it, logging each
    # gauge call under label
    def gauge(V):
        calls.append(label)
        return np.linalg.norm(V, axis=-1)

    return optim.gauge_ball(gauge, dim, label)


def _norm_sum(dims):
    # the sum of the l2 norms of consecutive blocks of the given sizes
    def objective(V):
        cuts = np.cumsum(dims)[:-1]
        return sum(np.linalg.norm(B, axis=-1) for B in np.split(V, cuts, axis=-1))

    return objective


@pytest.mark.parametrize("k", [1, 3])
def test_seeds_that_meet_the_target_cost_one_gauge_call_per_ball(k):
    # k unit seeds meet the target: one gauge call admits them, testing and
    # projecting at once, and no polish runs after the stop
    calls = []
    budget = OptBudget(restarts=8, iterations=300)
    ball = _counted_l2_ball(3, "l2", calls)
    res = optim.maximize_over_ball(_norm_sum([3]), ball, budget=budget,
                                   seeds=list(np.eye(3)[:k]), target=1.0)
    assert res.details["stop"] == "certificate" and res.details["evals"] == k
    assert calls == ["l2"]
    # over a product of two gauge balls, each part's gauge runs once
    calls.clear()
    joint = optim.concat_domain([_counted_l2_ball(3, "a", calls),
                                 _counted_l2_ball(2, "b", calls)])
    seeds = [np.concatenate([e, [0.0, -1.0]]) for e in np.eye(3)[:k]]
    res = optim.maximize_over_ball(_norm_sum([3, 2]), joint, budget=budget, seeds=seeds,
                                   target=2.0)
    assert res.details["stop"] == "certificate" and res.details["evals"] == k
    assert sorted(calls) == ["a", "b"]


def _admitted_stacks():
    rng = np.random.default_rng(31)
    parts = [vn._operator_ball(vn.lp_oracle(2, 2), spaces.lp(3), 2),
             spaces.space_ball(spaces.garling_mu(GEOM, 2.0), 3), l2_ball(2),
             optim.free_domain(2)]
    for dom in [*parts, optim.concat_domain(parts)]:
        X = rng.standard_normal((6, dom.dim)) * 10.0 ** rng.uniform(-1.5, 1.5, (6, 1))
        if dom.label == "free":
            X[1, 0] = math.nan
        yield dom, X


def test_admit_is_membership_and_project_bit_for_bit():
    # on a gauge ball, a free domain and a product, admit gives what
    # membership and project give, row by row and for a bare point
    for dom, X in _admitted_stacks():
        ok, P = dom.admit(X)
        assert ok.tolist() == dom.membership(X).tolist()
        assert np.array_equal(P, dom.project(X), equal_nan=True)
        ok1, p1 = dom.admit(X[0])
        assert bool(ok1) == bool(ok[0]) and np.array_equal(p1, P[0])


def _l1_offset(X, c=np.array([0.7, -1.2, 0.4])):
    return 1.0 + np.abs(X - c).sum(axis=-1)


def test_min_target_below_the_inf_changes_nothing():
    # the inf of 1 + |x - c|_1 is 1, so 0.5 is never met
    budget = OptBudget(restarts=3, iterations=60, seed=9)
    seeds = [np.zeros(3)]
    free = optim.minimize_over_family(_l1_offset, optim.free_domain(3), budget=budget,
                                      seeds=seeds)
    capped = optim.minimize_over_family(_l1_offset, optim.free_domain(3), budget=budget,
                                        seeds=seeds, target=0.5)
    assert np.array_equal(capped.witness, free.witness)
    assert capped.value == free.value
    assert capped.details["evals"] == free.details["evals"]
    assert capped.converged == free.converged
    assert capped.bound_direction == free.bound_direction == "upper-of-inf"
    assert capped.certified_bound == 0.5 and free.certified_bound is None
    assert "stop" not in capped.details


def test_min_target_met_by_a_seed_runs_no_restart():
    seeds = [np.zeros(3), np.array([0.7, -1.2, 0.4])]
    res = optim.minimize_over_family(_l1_offset, optim.free_domain(3),
                                     budget=OptBudget(restarts=8, iterations=300),
                                     seeds=seeds, target=1.0)
    assert res.details["restarts_run"] == 0
    assert res.details["stop"] == "certificate"
    assert res.details["evals"] == len(seeds)
    assert res.bound_direction == "exact"
    assert res.converged is True
    assert res.value == res.certified_bound == 1.0
    assert np.array_equal(res.witness, seeds[1])


def test_min_target_met_by_a_restart_skips_the_rest():
    # a loose lower bound: the first restart gets within it and the other
    # seven are skipped, with the count of evaluations the one restart made
    budget = OptBudget(restarts=8, iterations=300)
    res = optim.minimize_over_family(_l1_offset, optim.free_domain(3), budget=budget,
                                     seeds=[np.zeros(3)], target=1.0 + 1e-3)
    one = optim.minimize_over_family(_l1_offset, optim.free_domain(3),
                                     budget=OptBudget(restarts=1, iterations=300),
                                     seeds=[np.zeros(3)])
    assert res.details["restarts_run"] == 1
    assert res.details["stop"] == "certificate"
    assert res.bound_direction == "exact" and res.converged is True
    assert res.value == one.value and res.details["evals"] == one.details["evals"]
    assert res.value <= res.certified_bound * (1.0 + 1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e300])
def test_exceeds_is_relative_to_scale(scale):
    assert optim.exceeds(scale * (1.0 + 1e-6), scale)
    assert optim.exceeds(-scale, -scale * (1.0 + 1e-6))
    drift = scale * (1.0 + 4 * np.finfo(float).eps)
    assert not optim.exceeds(drift, scale)
    assert not optim.exceeds(scale, drift)


def test_infeasible_seeds_rejected():
    ball = l2_ball(2)
    budget = OptBudget(restarts=1, iterations=5)
    with pytest.raises(InfeasibleSeedError):
        optim.maximize_over_ball(lambda F: np.zeros(len(F)), ball, budget=budget,
                                 seeds=[np.array([1.0, 2.0, 3.0])])
    with pytest.raises(InfeasibleSeedError):
        optim.maximize_over_ball(lambda F: np.zeros(len(F)), ball, budget=budget,
                                 seeds=[np.array([math.nan, 0.0])])
    with pytest.raises(InfeasibleSeedError):
        optim.maximize_over_ball(lambda F: np.zeros(len(F)), ball, budget=budget,
                                 seeds=[np.array([5.0, 5.0])])


def test_a_bad_seed_among_several_names_its_index():
    # the seeds are tested as one stack; the error names the first that fails
    budget = OptBudget(restarts=1, iterations=5)
    unit = [np.array([1.0, 0.0]), np.array([0.0, -0.5])]
    cases = [
        (l2_ball(2), unit + [np.array([5.0, 5.0])], 2),
        (l2_ball(2), [unit[0], np.array([3.0, 4.0]), unit[1]], 1),
        (l2_ball(2), unit + [np.zeros(3)], 2),
        (l2_ball(2), [np.array([math.inf, 0.0])] + unit, 0),
        (spaces.space_ball(spaces.lp(1), 2), unit + [np.array([0.6, 0.6])], 2),
    ]
    for ball, seeds, index in cases:
        with pytest.raises(InfeasibleSeedError, match=f"^seed {index} "):
            optim.maximize_over_ball(lambda F: np.zeros(len(F)), ball, budget=budget,
                                     seeds=seeds)


def test_nan_objective_raises():
    with pytest.raises(ValueError):
        optim.maximize_over_ball(lambda F: np.full(len(F), math.nan), l2_ball(2),
                                 budget=OptBudget(restarts=1, iterations=5))


def test_determinism_same_seed_same_result():
    rng_target = np.random.default_rng(22).standard_normal(4)

    def objective(F):
        return np.tanh(F) @ rng_target

    a = optim.maximize_over_ball(objective, l2_ball(4),
                                 budget=OptBudget(restarts=3, iterations=80, seed=5))
    b = optim.maximize_over_ball(objective, l2_ball(4),
                                 budget=OptBudget(restarts=3, iterations=80, seed=5))
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)


def test_budget_validation():
    with pytest.raises(ValueError):
        OptBudget(restarts=0)
    with pytest.raises(ValueError):
        OptBudget(iterations=-1)


def test_value_recomputed_at_witness():
    # a drifting closure cannot smuggle a stale best value into the result
    ball = spaces.space_ball(spaces.lp(1), 2)
    res = optim.maximize_over_ball(
        lambda A: np.sum(np.abs(A), axis=-1), ball,
        budget=OptBudget(restarts=2, iterations=60),
    )
    assert res.value == pytest.approx(float(np.sum(np.abs(res.witness))), abs=1e-12)


def test_concat_domain_slices():
    dom = optim.concat_domain([l2_ball(2), spaces.space_ball(spaces.lp(1), 3)],
                              label="joint")
    assert dom.dim == 5
    rng = np.random.default_rng(23)
    v = dom.random_point(rng)
    assert v.shape == (5,)
    assert dom.membership(v)
    w = dom.project(np.array([3.0, 4.0, 2.0, -2.0, 2.0]))
    assert float(np.linalg.norm(w[:2])) <= 1.0 + 1e-9
    assert float(np.sum(np.abs(w[2:]))) <= 1.0 + 1e-9


def test_product_draws_each_part_in_turn():
    # a random start on a product is the concatenation of each part's draw,
    # taken in order from the same generator state
    parts = [optim.free_domain(3, scale=0.4), spaces.space_ball(spaces.lp(1.5), 2)]
    joint = optim.concat_domain(parts)
    got = joint.random_point(np.random.default_rng(41))
    rng = np.random.default_rng(41)
    want = np.concatenate([part.random_point(rng) for part in parts])
    assert got.tobytes() == want.tobytes()


def test_only_a_single_gauge_block_polishes_onto_the_sphere():
    ball = l2_ball(2)
    assert ball.to_boundary is not None
    assert np.array_equal(ball.to_boundary(np.array([3.0, 4.0])), [0.6, 0.8])
    assert optim.free_domain(2).to_boundary is None
    assert optim.concat_domain([ball, l2_ball(3)]).to_boundary is None


def test_free_project_passes_its_input_through():
    X = np.array([[1e300, -0.0, 2.5], [math.nan, 1.0, math.inf]])
    P = optim.free_domain(3).project(X)
    assert P.tobytes() == X.tobytes()


def test_free_and_concat_membership_is_stacked():
    # row by row, a stack tests as its points do one at a time
    free = optim.free_domain(3)
    X = np.array([[0.0, 1.0, -2.0], [math.nan, 0.0, 0.0],
                  [1.0, math.inf, 0.0], [1e300, -1e300, 0.0]])
    assert free.membership(X).tolist() == [True, False, False, True]
    assert [free.membership(x) for x in X] == [True, False, False, True]
    assert free.membership(X.reshape(2, 2, 3)).tolist() == [[True, False], [False, True]]
    joint = optim.concat_domain([l2_ball(2), spaces.space_ball(spaces.lp(1), 3)])
    V = np.array([[0.6, 0.8, 0.2, -0.3, 0.5],  # both parts inside
                  [3.0, 4.0, 0.1, 0.1, 0.1],   # the first part outside
                  [0.0, 0.1, 1.0, 1.0, 0.0],   # the second part outside
                  [1.0, 1.0, 2.0, 0.0, 0.0]])  # both outside
    assert joint.membership(V).tolist() == [True, False, False, False]
    assert [joint.membership(v) for v in V] == [True, False, False, False]
    assert [joint.membership(v[None])[0] for v in V] == [True, False, False, False]


def _mid_objective(A, spec, m, d):
    def objective(flat):
        T = flat.reshape(flat.shape[:-1] + (m, d))
        imgs = A @ np.swapaxes(T, -1, -2)
        return spaces.evaluate_norms(spec, spaces.evaluate_norms(spec, imgs))
    return objective


def _assert_same_trajectory(objective, domain, x0, iterations):
    # one restart from the seed x0, against the one-at-a-time poll
    res = _assert_sequential(objective, domain, OptBudget(restarts=1, iterations=iterations),
                             seeds=[x0])
    assert type(res.details["evals"]) is int


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_speculative_poll_keeps_trajectory_on_operator_ball(p, r):
    # the mid-norm search: the operator ball into lp(p)^m, bit for bit
    rng = np.random.default_rng(int(10 * p) + (9 if math.isinf(r) else int(r)))
    m, n, d = 3, 4, 2
    A = rng.standard_normal((n, d))
    spec = spaces.lp(p)
    ball = vn._operator_ball(vn.lp_oracle(r, d), spec, m)
    _assert_same_trajectory(_mid_objective(A, spec, m, d), ball, ball.random_point(rng), 60)


def test_speculative_poll_keeps_trajectory_on_free_minimisation():
    # the single-block tensor cost, minimised over free mixings
    E = np.array([[1.0, -0.4, 0.3], [0.2, 0.9, -1.1]])
    X0, Y0 = tensor._base_factors(E, 2)
    l2 = vn.lp_oracle(2, 2)
    u = tensor.Tensor(l2, vn.lp_oracle(2, 3), E)
    lam = spaces.lp(2)

    def neg_cost(flat):
        Xm, Ym, ok = tensor._mixed_block(X0, Y0, flat.reshape(flat.shape[:-1] + (2, 2)))
        return -np.where(ok, tensor._block_cost(lam, lam, u, Xm, Ym), math.inf)

    dom = optim.free_domain(4, scale=0.4)
    _assert_same_trajectory(neg_cost, dom, np.array([0.3, -0.2, 0.1, 0.5]), 80)


def test_poll_scores_only_what_the_sequential_poll_reaches():
    # candidates with x[1] < 0 are NaN in one objective and raise in the
    # other; the first improvement always comes before them in the poll
    def nan_after(X):
        return np.where(X[:, 1] >= 0.0, np.minimum(X, 1.0).sum(axis=1), math.nan)

    def raise_after(X):
        if np.any(X[:, 1] < 0.0):
            raise RuntimeError("candidate past the accepted one")
        return np.minimum(X, 1.0).sum(axis=1)

    for objective in (nan_after, raise_after):
        _assert_same_trajectory(objective, optim.free_domain(2), np.zeros(2), 30)


def test_converged_is_the_winning_restarts_flag():
    # restart 0 sits on a local maximum and converges, its step halved in
    # 29 sweeps from 0.5 to below 1e-9; restart 1 climbs the higher hill by
    # 0.5 a sweep, reaches its top in the last of its 30 sweeps, and wins
    def objective(X):
        x = X[:, 0]
        return np.maximum(-x * x, 1000.0 - (x - 100.0) ** 2)

    budget = OptBudget(restarts=2, iterations=30)
    res = optim.maximize_over_ball(objective, optim.free_domain(1), budget=budget,
                                   seeds=[np.array([0.0]), np.array([85.0])])
    assert res.witness[0] == 100.0
    assert res.converged is False
    # two seeds scored, restart 0's start and 29 sweeps of two candidates,
    # restart 1's start and 30 sweeps that each take their first candidate
    assert res.details["evals"] == 2 + (1 + 2 * 29) + (1 + 30)
    # a seed that its own restart cannot improve keeps that restart's flag
    res = optim.maximize_over_ball(objective, optim.free_domain(1), budget=budget,
                                   seeds=[np.array([0.0])])
    assert res.witness[0] == 0.0
    assert res.converged is True


# ---------------------------------------------------------------------------
# lockstep restarts against the restarts run one after another


def _assert_sequential(objective, domain, budget, seeds=(), target=None, sign=1.0):
    search = optim.maximize_over_ball if sign > 0 else optim.minimize_over_family
    got = search(objective, domain, budget=budget, seeds=list(seeds), target=target)
    x, value, converged, details = oc.sequential_run(objective, domain, budget, seeds,
                                                     sign=sign, target=target)
    assert np.array_equal(got.witness, x)
    assert got.value == value
    assert got.converged == converged
    assert got.certified_bound == target
    assert got.details == details
    return got


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_lockstep_keeps_the_sequential_results_on_operator_balls(p, r):
    # the mid-norm search over the operator ball from an l_r domain into
    # lp(p)^m, with two seeds and three random starts
    rng = np.random.default_rng(40 + int(p) + (9 if math.isinf(r) else int(r)))
    m, n, d = 3, 4, 2
    A = rng.standard_normal((n, d))
    spec = spaces.lp(p)
    ball = vn._operator_ball(vn.lp_oracle(r, d), spec, m)
    seeds = [ball.random_point(rng), ball.random_point(rng)]
    res = _assert_sequential(_mid_objective(A, spec, m, d), ball,
                             OptBudget(restarts=5, iterations=60, seed=3), seeds)
    assert "stop" not in res.details


def test_lockstep_with_one_restart_keeps_the_sequential_result():
    rng = np.random.default_rng(47)
    A = rng.standard_normal((4, 3))
    ball = vn._operator_ball(vn.lp_oracle(2, 3), spaces.lp(3), 2)
    _assert_sequential(_mid_objective(A, spaces.lp(3), 2, 3), ball,
                       OptBudget(restarts=1, iterations=60))
    _assert_sequential(_mid_objective(A, spaces.lp(3), 2, 3), ball,
                       OptBudget(restarts=1, iterations=60), seeds=[ball.random_point(rng)])


def test_lockstep_keeps_the_sequential_results_on_free_minimisation():
    # the single-block tensor cost over free mixings, one seed and three
    # random starts
    E = np.array([[1.0, -0.4, 0.3], [0.2, 0.9, -1.1]])
    X0, Y0 = tensor._base_factors(E, 2)
    u = tensor.Tensor(vn.lp_oracle(2, 2), vn.lp_oracle(2, 3), E)
    lam = spaces.lp(2)

    def cost(flat):
        Xm, Ym, ok = tensor._mixed_block(X0, Y0, flat.reshape(flat.shape[:-1] + (2, 2)))
        return np.where(ok, tensor._block_cost(lam, lam, u, Xm, Ym), math.inf)

    res = _assert_sequential(cost, optim.free_domain(4, scale=0.4),
                             OptBudget(restarts=4, iterations=80),
                             seeds=[np.array([0.3, -0.2, 0.1, 0.5])], sign=-1.0)
    assert res.bound_direction == "upper-of-inf"


def _bowl(X, c=np.array([0.3, -0.2])):
    return -np.sum((X - c) ** 2, axis=-1)


def test_lockstep_drops_the_restarts_after_the_target_is_met():
    # a loose bound that restart 0 of 3 meets: the replay stops there, and
    # the two random restarts that ran beside it neither count nor score
    res = _assert_sequential(_bowl, optim.free_domain(2, scale=10.0),
                             OptBudget(restarts=3, iterations=300),
                             seeds=[np.zeros(2)], target=-1e-6)
    assert res.details["restarts_run"] == 1
    assert res.details["stop"] == "certificate"


def _bad_far_out(kind):
    # NaN, or an error, wherever a row leaves the square |x|_inf <= 3
    def objective(X):
        far = np.abs(X).max(axis=-1) > 3.0
        if kind == "raise" and far.any():
            raise RuntimeError("point far out")
        return np.where(far, math.nan, _bowl(X))
    return objective


@pytest.mark.parametrize("kind, error", [("nan", ValueError), ("raise", RuntimeError)])
def test_lockstep_holds_a_restarts_error_until_the_replay_reaches_it(kind, error):
    # the random starts of restarts 1 and 2 lie far out, and restart 0 never
    # leaves the square
    objective, dom = _bad_far_out(kind), optim.free_domain(2, scale=10.0)
    budget = OptBudget(restarts=3, iterations=300)
    # restart 0 meets the target, so the replay never reaches the others
    res = _assert_sequential(objective, dom, budget, seeds=[np.zeros(2)], target=-1e-6)
    assert res.details["restarts_run"] == 1
    # without a target the replay reaches restart 1, and raises what it raised
    with pytest.raises(error):
        optim.maximize_over_ball(objective, dom, budget=budget, seeds=[np.zeros(2)])
    with pytest.raises(error):
        oc.sequential_run(objective, dom, budget, [np.zeros(2)])


def test_lockstep_falls_back_per_restart_when_the_stack_raises():
    # stacks that reach x[1] < 0 raise, and every speculative stack from a
    # point with x[1] < step does; no candidate the sequential poll scores
    # does, so every restart keeps its trajectory
    def objective(X):
        if np.any(X[:, 1] < 0.0):
            raise RuntimeError("candidate past the accepted one")
        return np.minimum(X, 1.0).sum(axis=1)

    seeds = [np.zeros(2), np.array([0.2, 0.5]), np.array([-1.0, 0.25])]
    _assert_sequential(objective, optim.free_domain(2),
                       OptBudget(restarts=3, iterations=30), seeds)


def _searches_of(run):
    """Run run() and return the searches it starts, as (objective, domain,
    keyword arguments) in the order they start."""
    found = []

    def capture(search):
        def wrapped(objective, domain, **kwargs):
            found.append((objective, domain, kwargs))
            return search(objective, domain, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("maximize_over_ball", "minimize_over_family"):
            mp.setattr(optim, name, capture(getattr(optim, name)))
        run()
    return found


# ---------------------------------------------------------------------------
# the gauge-ball contract, for every ball of a gauge the library builds

GEOM = WeightSeq(prefix=(1.0,), tail="geometric:0.5")


def _space_ball(spec, n=4):
    return spaces.space_ball(spec, n), lambda v: spaces.evaluate_norm(spec, v)


def _oracle_ball(p, dual):
    o = vn.lp_oracle(p, 3)
    q = spaces.conjugate_exponent(p) if dual else p
    ball = o.flip().ball() if dual else o.ball()
    return ball, lambda v: float(np.linalg.norm(v, ord=q))


def _operator_ball():
    dom, cod, m = vn.lp_oracle(2, 2), spaces.lp(3), 2

    def kappa(v):
        T = v.reshape(m, 2)
        coarse = spaces.evaluate_norm(cod, vn.row_lengths(dom.flip(), T))
        return min(vn.operator_norm_upper(T, dom, cod), coarse)

    return vn._operator_ball(dom, cod, m), kappa


def _weak_handle_ball():
    spec, dom, n = spaces.lp(1.5), vn.lp_oracle(3, 2), 3

    def gauge(v):
        return vn.weak_norm_upper(spec, vn.VectorSequence(dom, v.reshape(n, 2)))

    # the weak handle of (x_i) is the bound of its trace map X* -> lambda
    return vn._operator_ball(dom.flip(), spec, n), gauge


GAUGE_BALLS = [
    pytest.param(lambda: _space_ball(spaces.lp(1.5)), id="space-lp"),
    pytest.param(lambda: _space_ball(spaces.orlicz(OrliczFunction("power_log", 1.5))),
                 id="space-orlicz"),
    pytest.param(lambda: _space_ball(spaces.garling_mu(GEOM, 2.0)), id="space-garling_mu"),
    pytest.param(lambda: _space_ball(spaces.garling_nu(GEOM, 1.5)), id="space-garling_nu"),
    pytest.param(lambda: _space_ball(spaces.sargent_m(WeightSeq(tail="sqrt"))),
                 id="space-sargent_m"),
    *[pytest.param(lambda p=p, dual=dual: _oracle_ball(p, dual),
                   id=f"{'dual_ball' if dual else 'ball'}-l{p:g}")
      for p in (1.0, 2.0, math.inf) for dual in (False, True)],
    pytest.param(_operator_ball, id="operator"),
    pytest.param(_weak_handle_ball, id="weak-handle"),
]


@pytest.mark.parametrize("make", GAUGE_BALLS)
def test_gauge_ball_contract(make):
    ball, gauge = make()
    rng = np.random.default_rng(29)
    # points well inside, near and well outside the ball, and the origin
    X = rng.standard_normal((8, ball.dim)) * 10.0 ** rng.uniform(-2.0, 2.0, (8, 1))
    X[-1] = 0.0
    P = ball.project(X)
    assert np.allclose(ball.project(P), P, rtol=1e-12, atol=0.0)
    for x, p in zip(X, P):
        assert ball.membership(p)
        # a one-row stack and a bare 1-d point are bit for bit a row of the stack
        assert np.array_equal(ball.project(x[None])[0], p)
        assert np.array_equal(ball.project(x), p)
        if np.any(x):
            assert gauge(ball.to_boundary(x)) == pytest.approx(1.0, abs=1e-12)
    for _ in range(5):
        assert ball.membership(ball.random_point(rng))
    # membership is stacked too: inside, outside and on the sphere, each row
    # tests as the point does alone
    Y = np.concatenate([X, P, P * (1.0 + 1e-6)])
    inside = ball.membership(Y)
    assert inside.shape == (len(Y),) and inside[len(X): 2 * len(X)].all()
    for y, hit in zip(Y, inside):
        assert ball.membership(y) == hit and ball.membership(y[None])[0] == hit


# ---------------------------------------------------------------------------
# the stack contract, for the objective and the domain of every library search

SMALL = OptBudget(restarts=2, iterations=20)


def _library_calls():
    rng = np.random.default_rng(67)
    l2_3, lp3 = vn.lp_oracle(2, 3), spaces.lp(3)
    A = rng.standard_normal((4, 3))
    T = summing.OperatorMatrix(vn.lp_oracle(2, 2), vn.lp_oracle(3, 3),
                               rng.standard_normal((3, 2)))
    u = tensor.Tensor(vn.lp_oracle(2, 2), vn.lp_oracle(1.5, 3), rng.standard_normal((2, 3)))
    beta = rng.standard_normal(4)
    scale = [spaces.lp(1.5), spaces.garling_mu(GEOM, 2.0), spaces.garling_nu(GEOM, 1.5),
             spaces.sargent_m(WeightSeq(tail="sqrt")),
             spaces.orlicz(OrliczFunction("power_log", 1.5))]
    return {
        "mid": lambda: vn.mid_norm(lp3, vn.VectorSequence(l2_3, A), m=2, budget=SMALL),
        "pi": lambda: summing.pi_lambda(spaces.lp(1.5), T, n=3, budget=SMALL),
        "w_mid": lambda: summing.w_lambda_mid(spaces.lp(1.5), T, n=3, m=2, budget=SMALL),
        "gamma": lambda: tensor.gamma_lambda(spaces.lp(2), u, budget=SMALL),
        "gamma_c": lambda: tensor.gamma_lambda_c(spaces.lp(2), u, blocks=2, budget=SMALL),
        "dual_norm": lambda: [spaces.dual_norm(spec, beta, SMALL, method="optimize")
                              for spec in scale],
    }


@lru_cache(maxsize=None)
def _library_searches(name):
    found = _searches_of(_library_calls()[name])
    assert found, f"{name} ran no search"
    return [(objective, domain) for objective, domain, _ in found]


@pytest.mark.parametrize("name", list(_library_calls()))
@settings(max_examples=8, deadline=None)
@given(draw=st.integers(0, 2**32 - 1))
def test_every_library_search_keeps_the_stack_contract(name, draw):
    # row i of a random (K, dim) stack scores, projects and tests the same
    # bits alone, as the one-row stack that the one-at-a-time poll makes, as
    # inside the stack
    rng = np.random.default_rng(draw)
    for objective, domain in _library_searches(name):
        k = int(rng.integers(2, 9))
        X = rng.standard_normal((k, domain.dim)) * 10.0 ** rng.uniform(-1.5, 1.5, (k, 1))
        P = domain.project(X)
        F = np.asarray(objective(P))
        inside = domain.membership(X)
        for i in range(k):
            one = slice(i, i + 1)
            assert np.array_equal(np.asarray(objective(P[one])), F[one], equal_nan=True)
            assert np.array_equal(domain.project(X[one]), P[one])
            assert np.array_equal(domain.membership(X[one]), inside[one])
