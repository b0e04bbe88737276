"""Tensor norms: nuclear-style upper bounds, injective lower bounds, duality."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as oc
from seqsum import spaces, summing, tensor, vector_norms as vn
from seqsum.optim import OptBudget

LP2 = spaces.lp(2)
LIGHT = OptBudget(restarts=3, iterations=120)


def tens(entries, dom="l2:2", cod="l2:2"):
    return tensor.Tensor(vn.oracle_from_label(dom), vn.oracle_from_label(cod),
                         np.asarray(entries, dtype=float))


# ---------------------------------------------------------------------------
# containers


def test_tensor_json_roundtrip():
    u = tens([[1, 2], [3, 4]])
    back = tensor.Tensor.from_json(json.loads(json.dumps(u.to_json())))
    assert np.allclose(back.entries, u.entries)
    with pytest.raises(ValueError):
        tens([[math.nan, 0], [0, 1]])


def test_representation_reconstructs_exactly():
    u = tens([[1.0, -0.5], [2.0, 0.3]])
    res = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    rep = res.details["representation"]
    assert rep.residual(u) <= 1e-9
    dual = spaces.kothe_dual_spec(LP2)
    cost = sum(vn.strong_norm(LP2, xs) * vn.strong_norm(dual, ys) for xs, ys in rep.blocks)
    assert res.value == pytest.approx(cost, rel=1e-12)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_elementary_bounded_by_product():
    x = np.array([3.0, 4.0])
    y = np.array([1.0, -2.0])
    u = tens(np.outer(x, y))
    res = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    bound = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    assert res.value <= bound + 1e-9
    # on Hilbert factors the trace-duality bound is the nuclear norm, |x||y|
    assert res.bound_direction == "exact"
    assert res.certified_bound == pytest.approx(bound, rel=1e-12, abs=0.0)


def test_gamma_zero():
    res = tensor.gamma_lambda(LP2, tens([[0.0, 0.0], [0.0, 0.0]]), budget=LIGHT)
    assert res.value == res.certified_bound == 0.0
    assert res.bound_direction == "exact"


def test_gamma_identity_matches_factorization_grid():
    # the rotation grid scans rank-2 splits at ~0.25 degree resolution;
    # for the identity it lands on the classical value 2
    u = tens([[1.0, 0.0], [0.0, 1.0]])
    res = tensor.gamma_lambda(LP2, u, budget=OptBudget(restarts=4, iterations=200))
    want = oc.trace_norm_oracle(u.entries)
    assert want == pytest.approx(2.0, abs=1e-4)
    assert res.value == pytest.approx(want, rel=5e-2)
    assert res.value >= want - 1e-6  # certified upper bound never undercuts


def test_gamma_random_upper_bounds_trace_oracle():
    rng = np.random.default_rng(61)
    for _ in range(5):
        M = rng.standard_normal((2, 2))
        res = tensor.gamma_lambda(LP2, tens(M), budget=LIGHT)
        # the angle grid itself overshoots the true minimum by O(step^2)
        assert res.value >= oc.trace_norm_oracle(M, grid=5760) - 1e-5


GEOM_HALF = spaces.WeightSeq(prefix=(1.0,), tail="geometric:0.5")
SQRT = spaces.WeightSeq(prefix=(1.0,), tail="sqrt")
# every scale family with an analytic Koethe dual
_DUALIZABLE = {
    "lp1": spaces.lp(1), "lp1.5": spaces.lp(1.5), "lp2": LP2, "lp3": spaces.lp(3),
    "c0": spaces.c0(),
    "orlicz_power3": spaces.orlicz(spaces.OrliczFunction(kind="power", p=3.0)),
    "garling_mu": spaces.garling_mu(GEOM_HALF, 2.0),
    "garling_nu": spaces.garling_nu(GEOM_HALF, 1.5),
    "sargent_m": spaces.sargent_m(SQRT), "sargent_n": spaces.sargent_n(SQRT),
}


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("factor", ["l1", "l2", "l3", "linf"])
@pytest.mark.parametrize("lam", list(_DUALIZABLE))
def test_gamma_lower_bound_is_sound(lam, factor, shape):
    spec = _DUALIZABLE[lam]
    d, e = shape
    E = np.random.default_rng([list(_LP).index(factor), d, e]).standard_normal(shape)
    u = tens(E, f"{factor}:{d}", f"{factor}:{e}")
    # soundness does not depend on the effort of the search
    budget = OptBudget(restarts=1, iterations=20)
    g = tensor.gamma_lambda(spec, u, budget=budget)
    gc = tensor.gamma_lambda_c(spec, u, budget=budget, single_block=g)
    for res in (g, gc):
        assert res.certified_bound <= res.value * (1.0 + 1e-12)
        met = res.value <= res.certified_bound * (1.0 + 1e-12)
        assert res.bound_direction == ("exact" if met else "upper-of-inf")
        assert ("stop" in res.details) == met
    if factor == "l2" and lam == "lp2":
        # the SVD seed costs the nuclear norm, which the bound equals
        nuclear = float(np.linalg.svd(E, compute_uv=False).sum())
        for res in (g, gc):
            assert res.bound_direction == "exact"
            assert res.details["restarts_run"] == 0
            assert res.value == pytest.approx(nuclear, rel=1e-12, abs=0.0)
            assert res.certified_bound == pytest.approx(nuclear, rel=1e-12, abs=0.0)


def test_gamma_open_gap_runs_the_untargeted_search(monkeypatch):
    # on l3 factors the bound stays below the search, so every restart runs
    # and the result is the untargeted search's, bit for bit
    u = tens([[1.0, -0.4, 0.3], [0.2, 0.9, -1.1]], "l3:2", "l3:3")
    g = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    gc = tensor.gamma_lambda_c(LP2, u, budget=LIGHT, single_block=g)
    monkeypatch.setattr(tensor, "_projective_lower", lambda u: None)
    g0 = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    gc0 = tensor.gamma_lambda_c(LP2, u, budget=LIGHT, single_block=g0)
    for res, free in ((g, g0), (gc, gc0)):
        assert res.certified_bound < res.value * (1.0 - 1e-6)
        assert res.bound_direction == free.bound_direction == "upper-of-inf"
        assert "stop" not in res.details
        assert free.certified_bound is None
        assert np.array_equal(res.witness, free.witness)
        assert res.value == free.value
        assert res.details["evals"] == free.details["evals"]
        assert res.converged == free.converged


@pytest.mark.parametrize("dom, cod", [("l1:2", "l2:3"), ("l1:2", "l3:3"),
                                      ("l2:2", "l1:3"), ("linf:2", "l1:3")])
def test_projective_lower_on_l1_factors(dom, cod):
    # l1 (x) Y = l1(Y): the projective norm is sum_i |row_i|_Y, attained by
    # the duality maps of the rows; on Y = l1 by those of the columns in X
    E = np.random.default_rng(0).standard_normal((2, 3))
    u = tens(E, dom, cod)
    if u.domain.p == 1.0:
        want = float(np.sum(vn.row_lengths(u.codomain, E)))
    else:
        want = float(np.sum(vn.row_lengths(u.domain, E.T)))
    assert tensor._projective_lower(u) == pytest.approx(want, rel=1e-12)
    g = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    assert g.certified_bound == tensor._projective_lower(u)
    assert g.certified_bound <= g.value * (1.0 + 1e-12)
    if (dom, cod) == ("l1:2", "l2:3"):
        # the polar factor alone gave 1.2140 here
        assert g.certified_bound == pytest.approx(1.3206329274118929, rel=1e-12)


# ---------------------------------------------------------------------------
# gamma with blocks


@pytest.mark.parametrize("lam", ["lp1", "lp3", "sargent_m"])
@pytest.mark.parametrize("factor", ["l1", "l3", "linf"])
def test_gamma_c_never_exceeds_single_block(factor, lam):
    # off Hilbert factors the bound mostly stays open, so the seeded search runs
    spec = _DUALIZABLE[lam]
    rng = np.random.default_rng([62, list(_LP).index(factor), list(_DUALIZABLE).index(lam)])
    for d, e in ((2, 2), (2, 3)):
        u = tens(rng.standard_normal((d, e)), f"{factor}:{d}", f"{factor}:{e}")
        g = tensor.gamma_lambda(spec, u, budget=LIGHT)
        gc = tensor.gamma_lambda_c(spec, u, blocks=2, budget=LIGHT, single_block=g)
        assert gc.value <= g.value + 1e-12
        assert gc.details["evals"] > 1 or g.bound_direction == "exact"
        (xs, ys), = gc.details["representation"].blocks
        assert len(xs) == len(ys) == 2 * min(d, e)
        assert gc.details["representation"].residual(u) <= 1e-9 * np.abs(u.entries).max()


@settings(max_examples=30, deadline=None)
@given(draw=st.integers(0, 2**32 - 1), k=st.integers(1, 3), extra=st.integers(1, 4))
def test_mixing_ignores_the_lower_right_block(draw, k, extra):
    # the base has k nonzero terms of r; right-multiplying the last r - k
    # columns of the mixing by an invertible H changes no term, which is why
    # the search holds V's lower-right block at 0
    rng = np.random.default_rng(draw)
    r = k + extra
    X0, Y0 = tensor._base_factors(rng.standard_normal((k, k + 1)), r)
    A = np.eye(r) + 0.3 * rng.standard_normal((r, r))
    H = np.eye(extra) + 0.3 * rng.standard_normal((extra, extra))
    D = np.eye(r)
    D[k:, k:] = H
    assume(max(np.linalg.cond(A), np.linalg.cond(H)) < 1e3)
    Xm, Ym, ok = tensor._mixed_block(X0, Y0, A - np.eye(r))
    Xh, Yh, okh = tensor._mixed_block(X0, Y0, A @ D - np.eye(r))
    assert ok and okh
    assert np.allclose(Xh, Xm, rtol=0.0, atol=1e-12)
    assert np.allclose(Yh, Ym, rtol=0.0, atol=1e-12)


def test_gamma_c_zero():
    assert tensor.gamma_lambda_c(LP2, tens([[0.0, 0.0], [0.0, 0.0]]),
                                 budget=LIGHT).value == 0.0


def test_gamma_c_sandwich_on_elementary():
    rng = np.random.default_rng(63)
    for _ in range(5):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        u = tens(np.outer(x, y))
        gc = tensor.gamma_lambda_c(LP2, u, budget=LIGHT)
        inj = tensor.injective_norm(u, budget=LIGHT)
        prod = float(np.linalg.norm(x) * np.linalg.norm(y))
        assert gc.value <= prod + 1e-9
        assert gc.value >= inj.value - 1e-6
        # for elementary tensors the two ends agree, pinning the value
        assert inj.value == pytest.approx(prod, abs=1e-6)


# ---------------------------------------------------------------------------
# injective


def test_injective_zero():
    assert tensor.injective_norm(tens([[0.0, 0.0], [0.0, 0.0]]),
                                 budget=LIGHT).value == 0.0


def test_injective_elementary_alignment():
    x = np.array([0.6, 0.8])
    y = np.array([2.0, 0.0])
    res = tensor.injective_norm(tens(np.outer(x, y)), budget=LIGHT)
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_injective_matches_spectral_oracle():
    rng = np.random.default_rng(64)
    for _ in range(5):
        M = rng.standard_normal((2, 2))
        res = tensor.injective_norm(tens(M), budget=LIGHT)
        assert res.value == pytest.approx(oc.spectral_norm_grid_oracle(M),
                                          abs=1e-5)
        f, g = res.witness[:2], res.witness[2:]
        assert abs(float(f @ M @ g)) == pytest.approx(res.value, abs=1e-9)


def _injective_reference(E, a, b):
    """sup |f^T E g| over the dual balls of l_a and l_b, by the vertices of
    whichever dual ball is a polytope, or sigma_max when both are l2."""
    d, e = E.shape
    if math.isinf(b):  # g over the l1 ball: its vertices are +-e_j
        return max(np.linalg.norm(E[:, j], a) for j in range(e))
    if b == 1.0:  # g over the linf ball: sign vectors
        return max(np.linalg.norm(E @ s, a) for s in vn._sign_vectors(e))
    if math.isinf(a):
        return max(np.linalg.norm(E[i], b) for i in range(d))
    if a == 1.0:
        return max(np.linalg.norm(s @ E, b) for s in vn._sign_vectors(d))
    assert a == b == 2.0
    return float(np.linalg.svd(E, compute_uv=False)[0])


_LP = {"l1": 1.0, "l2": 2.0, "l3": 3.0, "linf": math.inf}


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("cod", list(_LP))
@pytest.mark.parametrize("dom", list(_LP))
def test_injective_is_the_operator_norm(dom, cod, shape):
    d, e = shape
    a, b = _LP[dom], _LP[cod]
    E = np.random.default_rng([list(_LP).index(dom), list(_LP).index(cod), d, e]
                              ).standard_normal(shape)
    res = tensor.injective_norm(tens(E, f"{dom}:{d}", f"{cod}:{e}"), budget=LIGHT)
    f, g = res.witness[:d], res.witness[d:]
    assert np.linalg.norm(f, spaces.conjugate_exponent(a)) <= 1.0 + 1e-12
    assert np.linalg.norm(g, spaces.conjugate_exponent(b)) <= 1.0 + 1e-12
    assert abs(float(f @ E @ g)) == pytest.approx(res.value, rel=1e-12, abs=0.0)
    # operator_norm of E: l_b* -> l_a has a closed form on these pairs
    if b in (1.0, math.inf) or a == math.inf or (b == 2.0 and a != 3.0):
        assert res.bound_direction == "exact"
        assert res.value == pytest.approx(_injective_reference(E, a, b), rel=1e-12, abs=0.0)
    else:
        # the fallback search is "exact" only where it meets its certified bound
        assert res.value <= res.certified_bound * (1.0 + 1e-12)
        met = res.value >= res.certified_bound * (1.0 - 1e-12)
        assert res.bound_direction == ("exact" if met else "lower-of-sup")



def test_injective_l2_linf_reaches_the_column_maximum():
    # the concat-domain search stalled at 0.69176 on this tensor
    E = [[0.5228708948391112, 0.35786967764803124, -0.6631035145259176],
         [-0.6165061466820784, 0.4348641034709542, -0.197042778476594]]
    res = tensor.injective_norm(tens(E, "l2:2", "linf:3"), budget=LIGHT)
    assert res.bound_direction == "exact"
    assert res.value == pytest.approx(0.8083772643800896, rel=1e-12, abs=0.0)


def test_injective_l3_l3_ascends_past_the_compass():
    # draw 1 of l3 (x) l3 at 2 x 3 in the deck {l1, l2, l3, linf}^2 x
    # {2x2, 2x3, 3x2} x 3 draws of one generator: the compass fallback
    # stalled at 2.9724432556624345, and the concat-domain search before it
    # found 2.972457291102885
    rng, labels = np.random.default_rng(5), ("l1", "l2", "l3", "linf")
    draws = {(a, b, shape, k): rng.standard_normal(shape) for a in labels for b in labels
             for shape in ((2, 2), (2, 3), (3, 2)) for k in range(3)}
    u = tens(draws["l3", "l3", (2, 3), 1], "l3:2", "l3:3")
    res = tensor.injective_norm(u, budget=OptBudget(restarts=3, iterations=100))
    assert res.value >= 2.972457291102885
    assert res.bound_direction == "lower-of-sup" and res.value < res.certified_bound


# ---------------------------------------------------------------------------
# trace duality


def test_trace_zero_operator():
    u = tens([[1.0, 0.3], [0.2, 0.9]])
    gc = tensor.gamma_lambda_c(LP2, u, budget=LIGHT)
    rep = gc.details["representation"]
    T0 = summing.OperatorMatrix(vn.lp_oracle(2, 2), vn.lp_oracle(2, 2),
                                np.zeros((2, 2)))
    chk = tensor.trace_duality_check(LP2, T0, u, rep, gamma_c_value=gc.value)
    assert chk.phi_value == pytest.approx(0.0, abs=1e-12)
    assert chk.ok


def test_trace_elementary_rank_one_duality():
    x = np.array([1.0, 2.0])
    y = np.array([0.5, -1.0])
    u = tens(np.outer(x, y))
    g = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    rep = g.details["representation"]
    rng = np.random.default_rng(65)
    T = summing.OperatorMatrix(vn.lp_oracle(2, 2), vn.lp_oracle(2, 2),
                               np.outer(rng.standard_normal(2),
                                        rng.standard_normal(2)))
    chk = tensor.trace_duality_check(LP2, T, u, rep)
    assert chk.ok
    assert abs(chk.phi_value) <= chk.chain_bound + 1e-9


def test_trace_random_instances():
    rng = np.random.default_rng(66)
    for _ in range(6):
        u = tens(rng.standard_normal((2, 2)))
        gc = tensor.gamma_lambda_c(LP2, u, budget=LIGHT)
        rep = gc.details["representation"]
        T = summing.OperatorMatrix(vn.lp_oracle(2, 2), vn.lp_oracle(2, 2),
                                   rng.standard_normal((2, 2)))
        chk = tensor.trace_duality_check(LP2, T, u, rep, gamma_c_value=gc.value)
        assert chk.ok
        if chk.ratio is not None:
            # the ratio lower-bounds a quotient of certified quantities
            assert chk.ratio == pytest.approx(abs(chk.phi_value) / gc.value,
                                              rel=1e-12)


def test_trace_rejects_wrong_dims():
    u = tens([[1.0, 0.0], [0.0, 1.0]])
    g = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    T_bad = summing.OperatorMatrix(vn.lp_oracle(2, 3), vn.lp_oracle(2, 3),
                                   np.eye(3))
    with pytest.raises(ValueError):
        tensor.trace_duality_check(LP2, T_bad, u, g.details["representation"])


def test_trace_rejects_another_tensor_at_tiny_scale():
    # the reconstruction check is relative to the entries
    u = tens(1e-200 * np.array([[1.0, 0.4], [-0.3, 2.0]]))
    other = tens(1e-200 * np.array([[2.0, -1.0], [0.5, 1.0]]))
    rep = tensor.gamma_lambda(LP2, other, budget=LIGHT).details["representation"]
    T = summing.OperatorMatrix(vn.lp_oracle(2, 2), vn.lp_oracle(2, 2), np.eye(2))
    with pytest.raises(ValueError):
        tensor.trace_duality_check(LP2, T, u, rep, gamma_c_value=1.0)


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_trace_check_is_relative(monkeypatch, scale):
    # one block on l2:1 meets the trace bound with equality
    l1d = vn.lp_oracle(2, 1)
    u = tensor.Tensor(l1d, l1d, np.array([[scale]]))
    rep = tensor.Representation(blocks=((vn.VectorSequence(l1d, [[scale]]),
                                         vn.VectorSequence(l1d, [[1.0]])),))
    T = summing.OperatorMatrix(l1d, l1d, np.array([[1.0]]))
    strong = vn.strong_norm
    for factor, ok in ((1.0 - 4 * np.finfo(float).eps, True), (1.0 - 1e-6, False)):
        monkeypatch.setattr(vn, "strong_norm", lambda *a, f=factor: strong(*a) * f)
        chk = tensor.trace_duality_check(LP2, T, u, rep, gamma_c_value=1.0)
        assert chk.ok is ok


# ---------------------------------------------------------------------------
# non-square and other scalar families


def test_gamma_rectangular():
    rng = np.random.default_rng(67)
    u = tensor.Tensor(vn.lp_oracle(2, 3), vn.lp_oracle(2, 2),
                      rng.standard_normal((3, 2)))
    res = tensor.gamma_lambda(LP2, u, budget=LIGHT)
    rep = res.details["representation"]
    assert rep.residual(u) <= 1e-9
    inj = tensor.injective_norm(u, budget=LIGHT)
    assert res.value >= inj.value - 1e-6


def test_gamma_with_lp1_scale():
    u = tens([[1.0, 0.0], [0.0, 1.0]])
    res = tensor.gamma_lambda(spaces.lp(1), u, budget=LIGHT)
    assert res.value > 0.0
    assert res.details["representation"].residual(u) <= 1e-9
