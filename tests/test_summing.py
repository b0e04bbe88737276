"""Summing-type operator norms and their witness-sound inequality checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from seqsum import optim, spaces, summing, vector_norms as vn
from seqsum.optim import OptBudget, Witnessed
from seqsum.spaces import OrliczFunction, WeightSeq

LP2 = spaces.lp(2)
LIGHT = OptBudget(restarts=3, iterations=120)


def op(rows, dom="l2:2", cod="l2:2"):
    return summing.OperatorMatrix(vn.oracle_from_label(dom),
                                  vn.oracle_from_label(cod),
                                  np.asarray(rows, dtype=float))


# ---------------------------------------------------------------------------
# containers


def test_operator_matrix_validation_and_json():
    T = op([[1, 2], [3, 4]])
    data = json.loads(json.dumps(T.to_json()))
    back = summing.OperatorMatrix.from_json(data)
    assert np.allclose(back.entries, T.entries)
    assert back.domain.label == "l2:2"
    with pytest.raises(ValueError):
        op([[1, 2, 3]])  # wrong width for domain dim 2
    with pytest.raises(ValueError):
        op([[math.inf, 0], [0, 1]])


def test_apply():
    T = op([[1, 0], [1, 1]])
    assert np.allclose(T.apply(np.array([2.0, 3.0])), [2.0, 5.0])


def test_rank_one_operator():
    f = np.array([1.0, -1.0])
    y = np.array([2.0, 0.0, 1.0])
    R = summing.rank_one_operator(vn.lp_oracle(2, 2), vn.lp_oracle(2, 3), f, y)
    assert np.allclose(R.entries, np.outer(y, f))


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_exact_branches_match_oracles():
    rng = np.random.default_rng(51)
    M = rng.standard_normal((3, 3))
    # domain l1: max column norm, here into l2 codomain
    T = summing.OperatorMatrix(vn.lp_oracle(1, 3), vn.lp_oracle(2, 3), M)
    res = summing.operator_norm(T)
    want = max(float(np.linalg.norm(M[:, j])) for j in range(3))
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.bound_direction == "exact"
    # domain l2 into l2: top singular value
    T2 = summing.OperatorMatrix(vn.lp_oracle(2, 3), vn.lp_oracle(2, 3), M)
    assert summing.operator_norm(T2).value == pytest.approx(
        oc.top_singular_value_oracle(M), rel=1e-9
    )
    # domain linf: exhaustive sign vectors
    T3 = summing.OperatorMatrix(vn.lp_oracle(math.inf, 3), vn.lp_oracle(1, 3), M)
    want3 = max(float(np.sum(np.abs(M @ s)))
                for s in ([1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]))
    assert summing.operator_norm(T3).value == pytest.approx(want3, rel=1e-12)


@pytest.mark.parametrize("cod", ["l1:2", "linf:2"])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_operator_norm_from_l2_is_scale_safe(cod, scale):
    # the exact l2 branches neither overflow to inf nor underflow to 0
    for M in (np.eye(2), np.array([[2.0, 1.0], [0.5, -1.0]])):
        want = summing.operator_norm(op(M, cod=cod))
        got = summing.operator_norm(op(scale * M, cod=cod))
        assert got.bound_direction == "exact"
        assert got.value == pytest.approx(scale * want.value, rel=1e-14, abs=0.0)
        assert np.allclose(got.witness, want.witness, rtol=1e-14, atol=0.0)
        assert vn.oracle_from_label(cod).norm(M @ got.witness) == pytest.approx(
            want.value, rel=1e-14)


def test_operator_norm_witnessed_fallback_is_lower_bound():
    rng = np.random.default_rng(52)
    M = rng.standard_normal((2, 2))
    T = summing.OperatorMatrix(vn.oracle_from_label("l2.5:2"),
                               vn.oracle_from_label("l2.5:2"), M)
    res = summing.operator_norm(T, budget=LIGHT)
    assert res.bound_direction == "lower-of-sup"
    # witness reproduces the value
    x = res.witness
    assert T.codomain.norm(M @ x) == pytest.approx(res.value, abs=1e-9)


_GRID = {"l1": 1.0, "l1.5": 1.5, "l2": 2.0, "l3": 3.0, "linf": math.inf}


def _had_closed_form_branch(a, b):
    """The pairs that operator_norm once answered by a formula of its own."""
    return a in (1.0, math.inf) or math.isinf(b) or (a == 2.0 and b in (1.0, 2.0))


@pytest.mark.parametrize("cod", list(_GRID))
@pytest.mark.parametrize("dom", list(_GRID))
def test_operator_norm_is_certified(dom, cod):
    a, b = _GRID[dom], _GRID[cod]
    rng = np.random.default_rng([list(_GRID).index(dom), list(_GRID).index(cod)])
    for e, d in ((1, 4), (2, 2), (3, 2), (2, 3)):
        M = rng.standard_normal((e, d))
        zero_row = M.copy()
        zero_row[0] = 0.0
        for A in (M, zero_row):
            T = summing.OperatorMatrix(vn.lp_oracle(a, d), vn.lp_oracle(b, e), A)
            res = summing.operator_norm(T, budget=LIGHT)
            x = res.witness
            assert T.codomain.norm(A @ x) == pytest.approx(res.value, rel=1e-15, abs=0.0)
            assert T.domain.norm(x) <= 1.0 + 1e-15
            assert res.value <= res.certified_bound * (1.0 + 1e-12)
            met = bool(optim.meets(res.value, res.certified_bound))
            assert (res.bound_direction == "exact") is met
            if _had_closed_form_branch(a, b) or not np.any(A):
                assert res.bound_direction == "exact"


def test_operator_norm_into_l1_meets_the_dual_row_norm():
    # one row into l1 is |row|_3 from l1.5; the search stopped 2.4e-6 low
    # at 1.7295560270067711
    M = np.random.default_rng(4).standard_normal((1, 4))
    res = summing.operator_norm(op(M, dom="l1.5:4", cod="l1:1"))
    assert res.bound_direction == "exact"
    assert res.value == pytest.approx(1.7295602159614558, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# pi_lambda


def test_pi_identity_scalar():
    T = op([[1.0]], dom="l2:1", cod="l2:1")
    for n in (1, 2, 4):
        res = summing.pi_lambda(spaces.lp(1), T, n=n, budget=LIGHT)
        assert res.value == pytest.approx(1.0, abs=1e-6)


def test_pi_zero_operator():
    T = op([[0.0, 0.0], [0.0, 0.0]])
    res = summing.pi_lambda(LP2, T, n=3, budget=LIGHT)
    assert res.value == 0.0


def test_pi_nondecreasing_in_n():
    rng = np.random.default_rng(53)
    T = op(rng.standard_normal((2, 2)))
    vals = [summing.pi_lambda(LP2, T, n=n, budget=LIGHT).value for n in (1, 2, 4)]
    assert vals[0] <= vals[1] + 1e-9
    assert vals[1] <= vals[2] + 1e-9


def test_pi2_diagonal_hits_hilbert_schmidt():
    rng = np.random.default_rng(54)
    for _ in range(4):
        d = int(rng.integers(1, 4))
        diag = rng.uniform(0.3, 2.0, size=d)
        T = summing.OperatorMatrix(vn.lp_oracle(2, d), vn.lp_oracle(2, d),
                                   np.diag(diag))
        hs = oc.hilbert_schmidt_oracle(np.diag(diag))
        res = summing.pi_lambda(LP2, T, n=8)
        assert res.value <= hs + 1e-9
        assert res.value >= 0.9 * hs


def test_pi_rank_one_domination():
    rng = np.random.default_rng(55)
    for _ in range(6):
        f = rng.standard_normal(2)
        y = rng.standard_normal(2)
        T = summing.rank_one_operator(vn.lp_oracle(2, 2), vn.lp_oracle(2, 2), f, y)
        res = summing.pi_lambda(LP2, T, n=3, budget=LIGHT)
        bound = float(np.linalg.norm(f)) * float(np.linalg.norm(y))
        assert res.value <= bound + 1e-9


# ---------------------------------------------------------------------------
# pi_lambda_mid


def test_pi_mid_identity_scalar():
    T = op([[1.0]], dom="l2:1", cod="l2:1")
    res = summing.pi_lambda_mid(spaces.lp(1), T, n=2, budget=LIGHT)
    assert res.value == 1.0
    # on a one-dimensional domain mid = strong, so the constant is ||T||
    assert res.bound_direction == "exact" and res.certified_bound == 1.0


def test_pi_mid_zero():
    T = op([[0.0, 0.0], [0.0, 0.0]])
    assert summing.pi_lambda_mid(LP2, T, n=2, budget=LIGHT).value == 0.0


def test_pi_mid_strong_mid_inequality_on_witness():
    rng = np.random.default_rng(56)
    for _ in range(5):
        T = op(rng.standard_normal((2, 2)))
        res = summing.pi_lambda_mid(LP2, T, n=3, budget=LIGHT)
        chk = summing.strong_mid_witness_check(LP2, T, res)
        assert chk.ok, (chk.lhs, chk.rhs)


def test_pi_mid_rank_one_seeded_inequality():
    rng = np.random.default_rng(57)
    for _ in range(4):
        f = rng.standard_normal(2)
        y = rng.standard_normal(2)
        l2 = vn.lp_oracle(2, 2)
        T = summing.rank_one_operator(l2, l2, f, y)
        res = summing.pi_lambda_mid(LP2, T, n=3, budget=LIGHT)
        fn = float(np.linalg.norm(f))
        X = res.witness.reshape(3, 2)
        xs = vn.VectorSequence(l2, X)
        seeded = vn.mid_norm(LP2, xs, m=3, budget=LIGHT,
                             weak_witness=f / fn)
        lhs = vn.strong_norm(LP2, vn.VectorSequence(l2, X @ T.entries.T))
        assert lhs <= fn * float(np.linalg.norm(y)) * seeded.value + 1e-9


_MID_SPECS = {
    "lp1": spaces.lp(1),
    "lp3": spaces.lp(3),
    "sargent_m": spaces.sargent_m(WeightSeq(prefix=(1.0,), tail="sqrt")),
    "garling_mu": spaces.garling_mu(WeightSeq(prefix=(1.0,), tail="geometric:0.5"), 2.0),
    "orlicz": spaces.orlicz(OrliczFunction("power_log", 1.5)),
}


@pytest.mark.parametrize("dom, cod", [("l1:2", "l3:3"), ("l2:3", "l1:2"),
                                      ("linf:2", "l2:3"), ("l3:2", "l2:2")])
@pytest.mark.parametrize("name", list(_MID_SPECS))
def test_pi_mid_is_the_operator_norm(name, dom, cod):
    spec = _MID_SPECS[name]
    D, C = vn.oracle_from_label(dom), vn.oracle_from_label(cod)
    # at linf:2 -> l2:3 this matrix stalls a compass search over 3-term
    # sequences 4% below ||T|| for garling_mu
    M = np.random.default_rng(29).standard_normal((C.dim, D.dim))
    T = summing.OperatorMatrix(D, C, M)
    res = summing.pi_lambda_mid(spec, T, n=3, budget=LIGHT)
    opn = summing.operator_norm(T, budget=LIGHT)
    assert res.value == opn.value
    if spec.family == "lp" and spec.p == D.p:
        # mid = strong on l_r^d with lp(r), so the constant is ||T||
        assert res.bound_direction == opn.bound_direction
        assert res.certified_bound == opn.certified_bound
    else:
        assert res.bound_direction == "lower-of-sup"
        assert res.certified_bound is None
    assert res.converged == opn.converged
    X = res.witness.reshape(3, D.dim)
    assert not np.any(X[1:])

    def strong(Y, oracle):
        return vn.strong_norm(spec, vn.VectorSequence(oracle, Y))

    assert strong(X, D) <= 1.0 + 1e-12
    assert strong(X @ M.T, C) == pytest.approx(res.value, rel=1e-12, abs=0.0)
    if opn.bound_direction == "exact":
        # normality: no sequence beats ||T|| against its strong norm
        rng = np.random.default_rng(60)
        for _ in range(200):
            Y = rng.standard_normal((int(rng.integers(1, 5)), D.dim))
            assert strong(Y @ M.T, C) <= res.value * strong(Y, D) * (1.0 + 1e-12)


def test_pi_mid_keeps_the_operator_norm_certificate():
    # mid = strong on l2 with lp(2), so operator_norm's certificate holds
    # for the mid constant too; pi_lambda_mid once dropped it here
    T = op(np.random.default_rng(0).standard_normal((2, 2)))
    res = summing.pi_lambda_mid(LP2, T, n=3, budget=LIGHT)
    assert res.value == 0.6574817120029182
    assert res.bound_direction == "exact" and res.converged
    assert res.certified_bound == res.value


def test_pi_mid_is_a_lower_bound_where_mid_is_below_strong():
    # on l1:2 with lp(2), x = ((1, 1), (1, -1)) has strong norm 2 sqrt 2 and
    # mid norm 2: for columns s1, s2 of norm <= 1 (the l1 -> l2 ball),
    # |s1 + s2|^2 + |s1 - s2|^2 = 2 |s1|^2 + 2 |s2|^2 <= 4.  So the identity's
    # mid constant is at least sqrt 2, above ||I|| = 1.
    I = op(np.eye(2), dom="l1:2", cod="l1:2")
    x = vn.VectorSequence(I.domain, np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert vn.strong_norm(LP2, x) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert vn.mid_norm(LP2, x, m=2, budget=LIGHT).value == pytest.approx(2.0, rel=1e-12)
    res = summing.pi_lambda_mid(LP2, I, n=2, budget=LIGHT)
    assert res.value == 1.0
    assert res.bound_direction == "lower-of-sup" and res.certified_bound is None


# ---------------------------------------------------------------------------
# w_lambda_mid


@pytest.mark.parametrize("n, m, n_seeds", [(1, 1, 3), (1, 3, 6), (3, 3, 8)])
def test_w_mid_prepares_its_seeds_in_a_fixed_number_of_gauge_calls(monkeypatch, n, m,
                                                                   n_seeds):
    # a rank-one T on l2:3 -> l2:3: the first sequence seed meets the bound,
    # so no restart runs and every gauge call prepares the seeds.  Each of
    # the four is one stacked call, whatever the number of seeds: projecting
    # the sequence seeds and the operator seeds, and admitting (testing and
    # projecting at once) each part of the joint seeds.
    calls = []
    upper = vn.operator_norm_upper

    def counted(*args, **kwargs):
        calls.append(1)
        return upper(*args, **kwargs)

    monkeypatch.setattr(vn, "operator_norm_upper", counted)
    run = optim.maximize_over_ball

    def search(objective, domain, budget=None, seeds=None, target=None):
        assert len(seeds) == n_seeds
        return run(objective, domain, budget=budget, seeds=seeds, target=target)

    monkeypatch.setattr(optim, "maximize_over_ball", search)
    rng = np.random.default_rng(62)
    l2 = vn.lp_oracle(2, 3)
    T = summing.rank_one_operator(l2, l2, rng.standard_normal(3), rng.standard_normal(3))
    res = summing.w_lambda_mid(LP2, T, n=n, m=m, budget=LIGHT)
    assert res.bound_direction == "exact" and res.details["restarts_run"] == 0
    assert len(calls) == 4


def test_w_mid_takes_one_full_svd_of_the_entries(monkeypatch):
    # one thin SVD of the entries: its top left singular vector seeds the
    # rank-one S, its top right one the sequences, and _summing_upper takes
    # its SVD bound from it
    svd, seen = np.linalg.svd, []
    T = op(np.random.default_rng(63).standard_normal((3, 2)), "l2:2", "l3:3")

    def counted(a, *args, **kwargs):
        if a is T.entries:
            seen.append((args, kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    summing.w_lambda_mid(spaces.lp(3), T, n=3, m=2, budget=OptBudget(restarts=1,
                                                                      iterations=5))
    assert seen == [((), {"full_matrices": False})]


def test_pi_meeting_its_bound_at_the_seeds_makes_two_gauge_calls(monkeypatch):
    # l2:3 -> l2:2 with lp(2) and n >= d: the canonical basis meets the
    # Hilbert-Schmidt bound, so the operator-ball gauge runs once to project
    # the sequence seeds and once to admit them, and never after the stop
    calls = []
    upper = vn.operator_norm_upper

    def counted(*args, **kwargs):
        calls.append(1)
        return upper(*args, **kwargs)

    monkeypatch.setattr(vn, "operator_norm_upper", counted)
    T = op(np.random.default_rng(64).standard_normal((2, 3)), "l2:3", "l2:2")
    res = summing.pi_lambda(LP2, T, n=3, budget=LIGHT)
    assert res.details["stop"] == "certificate" and res.details["restarts_run"] == 0
    assert len(calls) == 2


def test_w_mid_identity_scalar():
    T = op([[1.0]], dom="l2:1", cod="l2:1")
    res = summing.w_lambda_mid(spaces.lp(1), T, n=2, m=1, budget=LIGHT)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_w_mid_zero():
    T = op([[0.0, 0.0], [0.0, 0.0]])
    assert summing.w_lambda_mid(LP2, T, n=2, m=2, budget=LIGHT).value == 0.0


def test_w_mid_witness_inequality():
    rng = np.random.default_rng(58)
    for _ in range(5):
        T = op(rng.standard_normal((2, 2)))
        res = summing.w_lambda_mid(LP2, T, n=3, m=2, budget=LIGHT)
        chk = summing.mid_weak_witness_check(LP2, T, res)
        assert chk.ok, (chk.lhs, chk.rhs)


def test_w_mid_dominates_pi_of_witness_composition():
    rng = np.random.default_rng(41)
    for _ in range(4):
        l2 = vn.lp_oracle(2, 2)
        T = summing.OperatorMatrix(l2, l2, rng.standard_normal((2, 2)))
        wm = summing.w_lambda_mid(LP2, T, n=3, m=2, budget=LIGHT)
        S0 = wm.witness[:2 * 2].reshape(2, 2)
        comp = summing.OperatorMatrix(l2, vn.lp_oracle(2, 2), S0 @ T.entries)
        pi_c = summing.pi_lambda(LP2, comp, n=3, budget=LIGHT)
        assert wm.value >= pi_c.value - 1e-6


# ---------------------------------------------------------------------------
# the certified upper bound of pi_lambda and w_lambda_mid


_BOUND_SPECS = {
    "lp1": spaces.lp(1), "lp1.5": spaces.lp(1.5), "lp2": LP2, "lp3": spaces.lp(3),
    "sargent_m": spaces.sargent_m(WeightSeq(prefix=(1.0,), tail="sqrt")),
}
_FACTORS = ["l1", "l1.5", "l2", "l3", "linf"]
_PROPERTY = settings(deadline=None, derandomize=True, max_examples=40)


def _two_sided(spec, T, budget):
    n = m = 3
    return (summing.pi_lambda(spec, T, n=n, budget=budget),
            summing.w_lambda_mid(spec, T, n=n, m=m, budget=budget))


@_PROPERTY
@given(st.sampled_from(list(_BOUND_SPECS)), st.sampled_from(_FACTORS),
       st.sampled_from(_FACTORS), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**16))
def test_summing_bound_is_sound(lam, dom, cod, d, e, seed):
    spec = _BOUND_SPECS[lam]
    T = op(np.random.default_rng(seed).standard_normal((e, d)), f"{dom}:{d}", f"{cod}:{e}")
    pi, wm = _two_sided(spec, T, OptBudget(restarts=2, iterations=40))
    for res in (pi, wm):
        assert res.certified_bound == summing._summing_upper(spec, T,
                                                             summing._svd(T.entries))
        assert res.value <= res.certified_bound * (1.0 + 1e-12)
        assert (res.bound_direction == "exact") == (res.details.get("stop") == "certificate")
        assert res.bound_direction in ("exact", "lower-of-sup")
        if res.bound_direction == "exact":
            assert res.value >= res.certified_bound * (1.0 - 1e-12)
    # the pi witness is weakly bounded and reproduces the value
    X = pi.witness.reshape(3, d)
    assert vn.weak_norm_upper(spec, vn.VectorSequence(T.domain, X)) <= 1.0 + 1e-9
    assert pi.value == summing._image_strong(spec, T, pi.witness, 3)
    assert summing.mid_weak_witness_check(spec, T, wm).ok
    pm = summing.pi_lambda_mid(spec, T, n=3, budget=OptBudget(restarts=2, iterations=40))
    assert summing.strong_mid_witness_check(spec, T, pm).ok


@_PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**16))
def test_hilbert_schmidt_is_met_by_the_seeds(d, e, seed):
    # pi_2 on l2 -> l2 is the Frobenius norm: the canonical basis (n >= d)
    # meets the bound up front, and the padded identity carries it to w^mid
    M = np.random.default_rng(seed).standard_normal((e, d))
    T = op(M, f"l2:{d}", f"l2:{e}")
    fro = float(np.linalg.norm(M))
    for res in _two_sided(LP2, T, LIGHT):
        assert res.bound_direction == "exact"
        assert res.converged
        assert res.details["restarts_run"] == 0
        assert res.value == pytest.approx(fro, rel=1e-12, abs=0.0)
        assert res.certified_bound == pytest.approx(fro, rel=1e-12, abs=0.0)


def test_summing_bound_closed_forms():
    M = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    T = op(M, "linf:3", "l3:2")
    rows = np.abs(M).sum(axis=1)  # dual norms of the rows on an linf domain
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    svd = float(np.sum(s * np.sum(np.abs(U) ** 3, axis=0) ** (1 / 3)
                       * np.abs(Vt).sum(axis=1)))
    factors = summing._svd(M)
    # lp(p) into l3: the row bound is the l_min(p,3) norm of the row norms
    for p, r in ((1.0, 1.0), (2.0, 2.0), (4.0, 3.0)):
        want = min(rows.sum(), float(np.sum(rows**r) ** (1 / r)), svd)
        assert summing._summing_upper(spaces.lp(p), T, factors) == pytest.approx(want,
                                                                                 rel=1e-14)
    assert summing._summing_upper(spaces.lp(4.0), T, factors) < min(rows.sum(), svd)
    # a scale family has only the representation bounds, rows and SVD
    sm = _BOUND_SPECS["sargent_m"]
    assert summing._summing_upper(sm, T, factors) == pytest.approx(min(rows.sum(), svd),
                                                                   rel=1e-14)
    # rank one: the SVD representation is |f|_X* |y|_Y, sharp for every lambda
    f, y = np.array([0.3, -1.2, 0.4]), np.array([2.0, -1.0])
    R = summing.rank_one_operator(vn.lp_oracle(3, 3), vn.lp_oracle(1.5, 2), f, y)
    want = vn.lp_oracle(1.5, 3).norm(f) * vn.lp_oracle(1.5, 2).norm(y)
    assert summing._summing_upper(sm, R, summing._svd(R.entries)) == pytest.approx(
        want, rel=1e-13)


def test_summing_open_gap_runs_the_untargeted_search(monkeypatch):
    # lp(2) on l2 -> l3: the bound stays above both searches, so every
    # restart runs and each result is the untargeted search's, bit for bit.
    # The lockstep driver makes one optim._sweep per restart; with no stop at
    # the certificate, the replay takes every one of them in.
    T = op(np.random.default_rng(1).standard_normal((3, 3)), "l2:3", "l3:3")
    sweeps = []
    sweep = optim._sweep
    monkeypatch.setattr(optim, "_sweep", lambda *a: sweeps.append(1) or sweep(*a))
    targeted = _two_sided(LP2, T, LIGHT)
    assert len(sweeps) == 2 * LIGHT.restarts
    monkeypatch.setattr(summing, "_summing_upper", lambda spec, T, svd: None)
    free = _two_sided(LP2, T, LIGHT)
    for res, res0 in zip(targeted, free):
        assert res.value < res.certified_bound * (1.0 - 1e-3)
        assert res.bound_direction == res0.bound_direction == "lower-of-sup"
        assert "stop" not in res.details
        assert res0.certified_bound is None
        assert np.array_equal(res.witness, res0.witness)
        assert res.value == res0.value
        assert res.details == res0.details
        assert res.converged == res0.converged


_DRIFT = 1.0 - 4 * np.finfo(float).eps


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_witness_checks_are_relative(scale):
    # on l2:1 the unit witness meets each check with equality, so a lowered
    # value breaks it by that much
    T = op([[scale]], dom="l2:1", cod="l2:1")
    cases = [(summing.strong_mid_witness_check, [1.0], {}),
             (summing.mid_weak_witness_check, [1.0, 1.0], {"truncation": 1})]
    for check, witness, details in cases:
        for factor, ok in ((_DRIFT, True), (1.0 - 1e-6, False)):
            res = Witnessed(value=scale * factor, witness=np.array(witness),
                            bound_direction="lower-of-sup", converged=True,
                            details=details)
            assert check(LP2, T, res).ok is ok


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_ideal_check_is_relative(monkeypatch, scale):
    one = op([[1.0]], dom="l2:1", cod="l2:1")
    S = op([[scale]], dom="l2:1", cod="l2:1")
    upper = summing.operator_norm_upper_matrix
    for factor, ok in ((_DRIFT, True), (1.0 - 1e-6, False)):
        monkeypatch.setattr(summing, "operator_norm_upper_matrix",
                            lambda M, f=factor: upper(M) * f)
        rep = summing.ideal_witness_check(LP2, one, one, S, n=1, budget=LIGHT)
        assert rep.left.ok is ok and rep.right.ok is ok


# ---------------------------------------------------------------------------
# ideal property


def test_ideal_identities_tight():
    I = op([[1.0, 0.0], [0.0, 1.0]])
    rep = summing.ideal_witness_check(LP2, I, op([[0.3, 0.7], [-0.2, 1.1]]), I,
                                      n=2, budget=LIGHT)
    assert rep.ok()
    assert rep.left.lhs <= rep.left.rhs + 1e-12
    assert rep.right.lhs <= rep.right.rhs + 1e-12


def test_ideal_scaled_left_factor():
    T = op([[0.5, 0.2], [0.1, 0.9]])
    I = op([[1.0, 0.0], [0.0, 1.0]])
    R2 = op([[2.0, 0.0], [0.0, 2.0]])
    rep1 = summing.ideal_witness_check(LP2, I, T, I, n=2, budget=LIGHT)
    rep2 = summing.ideal_witness_check(LP2, R2, T, I, n=2, budget=LIGHT)
    assert rep1.ok() and rep2.ok()
    # doubling R doubles the operator-norm factor in the right-hand side
    assert rep2.left.rhs == pytest.approx(2.0 * rep1.left.rhs, rel=1e-6)


def test_ideal_random_instances():
    rng = np.random.default_rng(59)
    for _ in range(8):
        R = op(rng.standard_normal((2, 2)))
        T = op(rng.standard_normal((2, 2)))
        S = op(rng.standard_normal((2, 2)))
        rep = summing.ideal_witness_check(LP2, R, T, S, n=2, budget=LIGHT)
        assert rep.ok(), (rep.left, rep.right)


def test_ideal_inner_factor_runs_no_search(monkeypatch):
    # the witness is one vector, so its mid norms are its strong norms
    def boom(*args, **kwargs):
        raise AssertionError("ideal_witness_check ran a vector-norm search")

    rng = np.random.default_rng(61)
    R, T, S = (op(rng.standard_normal((2, 2))) for _ in range(3))
    monkeypatch.setattr(vn, "mid_norm", boom)
    monkeypatch.setattr(vn, "weak_norm", boom)
    rep = summing.ideal_witness_check(LP2, R, T, S, n=2, budget=LIGHT)
    X = summing.pi_lambda_mid(
        LP2, op(R.entries @ T.entries @ S.entries), n=2, budget=LIGHT).witness.reshape(2, 2)
    assert not np.any(X[1:])
    assert rep.right.lhs == vn.strong_norm(LP2, vn.VectorSequence(S.codomain, X @ S.entries.T))
    assert rep.right.rhs == (summing.operator_norm_upper_matrix(S)
                             * vn.strong_norm(LP2, vn.VectorSequence(S.domain, X)))
    assert rep.ok()


def test_ideal_rejects_mismatched_shapes():
    R = op([[1.0, 0.0], [0.0, 1.0]])
    T3 = summing.OperatorMatrix(vn.lp_oracle(2, 3), vn.lp_oracle(2, 3), np.eye(3))
    with pytest.raises(ValueError):
        summing.ideal_witness_check(LP2, R, T3, R, n=2, budget=LIGHT)


# ---------------------------------------------------------------------------
# other scalar families drive the same machinery


def test_pi_with_scale_family():
    sm = spaces.sargent_m(WeightSeq(prefix=(1.0,), tail="sqrt"))
    T = op([[1.0, 0.2], [0.0, 0.8]])
    res = summing.pi_lambda(sm, T, n=2, budget=LIGHT)
    assert res.value > 0.0
    assert res.bound_direction == "lower-of-sup"
    chk = summing.strong_mid_witness_check(
        sm, T, summing.pi_lambda_mid(sm, T, n=2, budget=LIGHT))
    assert chk.ok
