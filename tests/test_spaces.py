"""Scalar norms, duals, weights, and the iterated-norm check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from seqsum import optim, spaces
from seqsum.optim import OptBudget
from seqsum.spaces import (
    OrliczFunction,
    SpaceSpec,
    SpecValidationError,
    WeightSeq,
    decreasing_rearrangement,
)

GEOM_HALF = WeightSeq(prefix=(1.0,), tail="geometric:0.5")
SQRT = WeightSeq(prefix=(1.0,), tail="sqrt")

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# evaluate_norm


def test_lp2_pythagorean():
    assert spaces.evaluate_norm(spaces.lp(2), [3, 4]) == pytest.approx(5.0, abs=1e-12)


def test_orlicz_power2_matches_l2():
    spec = spaces.orlicz(OrliczFunction(kind="power", p=2.0))
    assert spaces.evaluate_norm(spec, [3, 4]) == pytest.approx(5.0, abs=1e-10)


@pytest.mark.parametrize("scale", [1e-301, 1e-200, 1e-12, 1e12])
def test_orlicz_gauge_is_scale_safe(scale):
    # the gauge is homogeneous, so it tracks lp(2) down to the least normal
    # floats; an absolute bracket floor of 1e-300 would give 5.5e-301 here
    spec = spaces.orlicz(OrliczFunction(kind="power", p=2.0))
    x = [3.0 * scale, 4.0 * scale]
    assert spaces.evaluate_norm(spec, x) == pytest.approx(
        spaces.evaluate_norm(spaces.lp(2), x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_orlicz_power_is_the_lp_norm(p):
    # sum_j (a_j / k)^p <= 1 exactly when k >= |a|_p
    X = np.random.default_rng(12).standard_normal((4, 5))
    X[2] = 0.0
    for scale in (1e-200, 1.0, 1e200):
        got = spaces.evaluate_norms(spaces.orlicz(OrliczFunction(kind="power", p=p)),
                                    X * scale)
        assert np.array_equal(got, spaces.evaluate_norms(spaces.lp(p), X * scale))


def test_lorentz_two_entry_value():
    # frozen from the permutation oracle: max(1*1 + 2*0.5, 2*1 + 1*0.5) = 2.5
    spec = spaces.lorentz(GEOM_HALF, 1.0)
    assert spaces.evaluate_norm(spec, [1, 2]) == pytest.approx(2.5, abs=1e-12)


def test_sargent_m_two_ones():
    # frozen from the subset oracle: max(1/1, 2/sqrt(2)) = sqrt(2)
    spec = spaces.sargent_m(SQRT)
    assert spaces.evaluate_norm(spec, [1, 1]) == pytest.approx(
        1.414213562373095, abs=1e-12
    )


def test_sargent_n_frozen_values():
    # frozen from the injective-placement oracle
    sn = spaces.sargent_n(SQRT)
    assert spaces.evaluate_norm(sn, [1, 1, 1]) == pytest.approx(
        1.7320508075688772, abs=1e-12
    )
    pre = spaces.sargent_n(WeightSeq(prefix=(1.0, 1.4, 1.7), tail="power:0.5"))
    assert spaces.evaluate_norm(pre, [2, -1, 0, 3]) == pytest.approx(4.1, abs=1e-12)


def test_empty_and_zero_sequences():
    for spec in (spaces.lp(2), spaces.lorentz(GEOM_HALF, 1.0), spaces.sargent_m(SQRT),
                 spaces.sargent_n(SQRT), spaces.c0(),
                 spaces.garling_mu(GEOM_HALF, 2.0), spaces.garling_nu(GEOM_HALF, 2.0)):
        assert spaces.evaluate_norm(spec, []) == 0.0
        assert spaces.evaluate_norm(spec, [0.0, 0.0, 0.0]) == 0.0


_SCALED_PAIRS = [
    (spaces.lp(1.5), 2.0 ** (1 / 1.5), "lp1.5"),
    (spaces.lp(2.0), math.sqrt(2.0), "lp2"),
    (spaces.lp(3.0), 2.0 ** (1 / 3), "lp3"),
    (spaces.garling_mu(GEOM_HALF, 2.0), math.sqrt(1.5), "garling_mu"),
    # one pooled block: W = 1.5 and ratio 2x / 1.5, so nu^2 = 1.5 (4x/3)^2
    (spaces.garling_nu(GEOM_HALF, 2.0), math.sqrt(8.0 / 3.0), "garling_nu"),
]


@pytest.mark.parametrize("spec, x, want", [
    pytest.param(spec, [scale, scale], ratio * scale, id=f"{scale!r}-{name}")
    for scale in (1e308, 1e-200) for spec, ratio, name in _SCALED_PAIRS
] + [
    # exponents so large that each term (a / 2^k)^p of a maximum near 2^(k+1)
    # overflows: p + log2(n) >= 1024
    pytest.param(spaces.lp(2000), [1.5, 1.5], 1.5 * 2.0 ** (1 / 2000), id="lp2000"),
    pytest.param(spaces.orlicz(OrliczFunction(kind="power", p=2000.0)), [1.5, 1.5],
                 1.5 * 2.0 ** (1 / 2000), id="orlicz_power2000"),
    # (1.9^1500 + 0.5)^(1/1500) = 1.9 (1 + 0.5 / 1.9^1500)^(1/1500), and
    # 0.5 / 1.9^1500 is below 1e-418
    pytest.param(spaces.garling_mu(GEOM_HALF, 1500), [1.9, 1.0], 1.9, id="garling_mu1500"),
    # past the threshold a subnormal maximum divides its own row, where the
    # least normal float as divisor gives 0
    pytest.param(spaces.lp(1100), [2.0**-1060, 2.0**-1070], 2.0**-1060, id="lp1100-subnormal"),
])
def test_power_sums_neither_overflow_nor_underflow(spec, x, want):
    with np.errstate(over="raise"):
        got = spaces.evaluate_norm(spec, x)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# the tabulated gauge and the per-coordinate list of the benchmark's scalar deck
ORLICZ_TABLE = spaces.orlicz(OrliczFunction(
    kind="tabulated", points=((0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0))))
ORLICZ_LIST = spaces.orlicz([OrliczFunction(kind="power", p=2.0),
                             OrliczFunction(kind="power", p=3.0),
                             OrliczFunction(kind="power_log", p=1.0)])


def test_stacked_norms_equal_row_norms_bit_for_bit():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 4, 6)) * 10.0 ** rng.uniform(-3, 3, (3, 4, 6))
    X[0, 1] = 0.0
    X[1, 2, 3:] = 0.0
    specs = [spaces.lp(1), spaces.lp(2.5), spaces.lp(math.inf), spaces.c0(),
             spaces.orlicz(OrliczFunction(kind="power_log", p=1.5)), ORLICZ_TABLE, ORLICZ_LIST,
             spaces.lorentz(GEOM_HALF, 1.0), spaces.garling_mu(GEOM_HALF, 2.0),
             spaces.garling_nu(GEOM_HALF, 2.0), spaces.garling_nu(GEOM_HALF, 1.0),
             spaces.sargent_m(SQRT), spaces.sargent_n(SQRT)]
    for spec in specs:
        got = spaces.evaluate_norms(spec, X)
        assert got.shape == (3, 4)
        for i in np.ndindex(3, 4):
            assert got[i] == spaces.evaluate_norm(spec, X[i]), (spec.label(), i)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_against_numpy(p):
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = rng.standard_normal(int(rng.integers(1, 8)))
        want = float(np.linalg.norm(a, ord=(np.inf if math.isinf(p) else p)))
        assert spaces.evaluate_norm(spaces.lp(p), a) == pytest.approx(want, rel=1e-12)


def test_lorentz_matches_permutation_oracle():
    specs = [
        spaces.lorentz(GEOM_HALF, 1.0),
        spaces.lorentz(WeightSeq(prefix=(1.0,), tail="power:-0.5"), 2.0),
    ]
    rng = np.random.default_rng(3)
    for spec in specs:
        w = spec.weights.materialize(8)
        for _ in range(40):
            a = rng.standard_normal(int(rng.integers(1, 7)))
            got = spaces.evaluate_norm(spec, a)
            assert got == pytest.approx(oc.lorentz_perm_oracle(w, spec.p, a),
                                        abs=1e-12)


def test_sargent_m_matches_subset_oracle():
    spec = spaces.sargent_m(SQRT)
    rng = np.random.default_rng(4)
    for _ in range(40):
        a = rng.standard_normal(int(rng.integers(1, 9)))
        phi = spec.weights.materialize(a.size + 1)
        assert spaces.evaluate_norm(spec, a) == pytest.approx(
            oc.sargent_m_subset_oracle(phi, a), abs=1e-12
        )


def test_sargent_n_matches_placement_oracle():
    specs = [
        spaces.sargent_n(SQRT),
        spaces.sargent_n(WeightSeq(prefix=(1.0, 1.4, 1.7), tail="power:0.5")),
    ]
    rng = np.random.default_rng(5)
    for spec in specs:
        for _ in range(40):
            a = rng.standard_normal(int(rng.integers(1, 7)))
            nnz = int(np.count_nonzero(a))
            phi = spec.weights.materialize(len(spec.weights.prefix) + nnz + 8)
            assert spaces.evaluate_norm(spec, a) == pytest.approx(
                oc.sargent_n_placement_oracle(phi, a), abs=1e-12
            )


def test_sargent_n_matches_full_permutation_oracle():
    spec = spaces.sargent_n(WeightSeq(prefix=(1.0, 1.4, 1.7), tail="power:0.5"))
    rng = np.random.default_rng(6)
    for _ in range(15):
        a = rng.standard_normal(int(rng.integers(1, 5)))
        nnz = int(np.count_nonzero(a))
        phi = spec.weights.materialize(len(spec.weights.prefix) + nnz + 6)
        want = oc.sargent_n_placement_oracle(phi, a, window=min(len(phi), nnz + 6),
                                             full_permutations=True)
        assert spaces.evaluate_norm(spec, a) == pytest.approx(want, abs=1e-12)


def test_orlicz_matches_secant_oracle():
    fns = [
        OrliczFunction(kind="power", p=1.5),
        OrliczFunction(kind="power_log", p=2.0),
        OrliczFunction(kind="tabulated",
                       points=((0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 3.0))),
        ORLICZ_LIST.orlicz,
    ]
    rng = np.random.default_rng(7)
    for fn in fns:
        spec = spaces.orlicz(fn)
        for _ in range(25):
            a = rng.standard_normal(int(rng.integers(1, 6))) * 3
            got = spaces.evaluate_norm(spec, a)
            want = oc.luxemburg_secant_oracle(fn, a, tol=1e-14)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _modular(spec, a, k):
    fns = list(spec.orlicz) if isinstance(spec.orlicz, tuple) else [spec.orlicz]
    fns += [fns[-1]] * (len(a) - len(fns))
    return math.fsum(float(f(abs(x) / k)) for f, x in zip(fns, a))


@given(
    a=st.lists(st.one_of(st.just(0.0),
                         st.builds(lambda m, e: m * 10.0 ** e,
                                   st.floats(-10.0, -1.0) | st.floats(1.0, 10.0),
                                   st.integers(-12, 12))),
               min_size=1, max_size=12).filter(any),
    spec=st.sampled_from([spaces.orlicz(OrliczFunction(kind="power_log", p=1.5)),
                          spaces.orlicz(OrliczFunction(kind="power_log", p=7.0)),
                          ORLICZ_TABLE, ORLICZ_LIST]),
)
def test_luxemburg_gauge_is_on_the_feasible_side_of_its_root(a, spec):
    # the modular is at most 1 at the returned gauge, and above 1 a little
    # below it, so the gauge is the least feasible k to 1e-12 relative
    k = spaces.evaluate_norm(spec, a)
    assert _modular(spec, a, k) <= 1.0
    assert _modular(spec, a, k * (1.0 - 1e-12)) > 1.0


def test_orlicz_per_coordinate_list():
    fns = [OrliczFunction(kind="power", p=2.0), OrliczFunction(kind="power", p=1.0)]
    spec = spaces.orlicz(fns)
    got = spaces.evaluate_norm(spec, [3.0, 4.0])
    # mixed modular: sum (3/k)^2 + (4/k) = 1, solved independently
    lo, hi = 1.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (3.0 / mid) ** 2 + 4.0 / mid > 1.0:
            lo = mid
        else:
            hi = mid
    assert got == pytest.approx(hi, rel=1e-9)


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
       st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
def test_norm_axioms_triangle_and_scaling(a, b):
    n = max(len(a), len(b))
    a = np.array(a + [0.0] * (n - len(a)))
    b = np.array(b + [0.0] * (n - len(b)))
    for spec in (spaces.lp(1.5), spaces.lorentz(GEOM_HALF, 1.0),
                 spaces.sargent_m(SQRT), spaces.sargent_n(SQRT),
                 spaces.garling_mu(GEOM_HALF, 2.0)):
        na = spaces.evaluate_norm(spec, a)
        nb = spaces.evaluate_norm(spec, b)
        ns = spaces.evaluate_norm(spec, a + b)
        assert ns <= na + nb + 1e-9
        assert spaces.evaluate_norm(spec, 3.0 * a) == pytest.approx(3.0 * na,
                                                                    rel=1e-9,
                                                                    abs=1e-12)


def test_symmetry_under_permutation_and_signs():
    rng = np.random.default_rng(8)
    for spec in (spaces.lorentz(GEOM_HALF, 2.0), spaces.sargent_m(SQRT),
                 spaces.sargent_n(SQRT), spaces.garling_mu(GEOM_HALF, 2.0),
                 spaces.garling_nu(GEOM_HALF, 2.0)):
        a = rng.standard_normal(5)
        base = spaces.evaluate_norm(spec, a)
        perm = rng.permutation(a)
        flip = a * rng.choice([-1.0, 1.0], size=a.size)
        assert spaces.evaluate_norm(spec, perm) == pytest.approx(base, rel=1e-10)
        assert spaces.evaluate_norm(spec, flip) == pytest.approx(base, rel=1e-10)


# ---------------------------------------------------------------------------
# rearrangement


def test_rearrangement_basic():
    assert decreasing_rearrangement([1, -3, 2]).tolist() == [3, 2, 1]
    assert decreasing_rearrangement([0, 0]).tolist() == [0, 0]


def test_rearrangement_matches_sort_oracle():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(8)
    want = np.sort(np.abs(a))[::-1]
    assert np.allclose(decreasing_rearrangement(a), want)


# ---------------------------------------------------------------------------
# duals


def test_analytic_dual_mapping():
    assert spaces.kothe_dual_spec(spaces.lp(2)).family == "lp"
    assert spaces.kothe_dual_spec(spaces.lp(2)).p == 2.0
    assert spaces.kothe_dual_spec(spaces.lp(1)).p == math.inf
    assert spaces.kothe_dual_spec(spaces.c0()).p == 1.0
    mu = spaces.garling_mu(GEOM_HALF, 2.0)
    assert spaces.kothe_dual_spec(mu).family == "garling_nu"
    assert spaces.kothe_dual_spec(spaces.garling_nu(GEOM_HALF, 2.0)).family == "garling_mu"
    assert spaces.kothe_dual_spec(spaces.sargent_m(SQRT)).family == "sargent_n"
    assert spaces.kothe_dual_spec(spaces.sargent_n(SQRT)).family == "sargent_m"
    pw = spaces.orlicz(OrliczFunction(kind="power", p=3.0))
    assert spaces.kothe_dual_spec(pw).p == pytest.approx(1.5)
    tab = spaces.orlicz(OrliczFunction(
        kind="tabulated", points=((0.0, 0.0), (1.0, 1.0), (2.0, 4.0))))
    assert spaces.kothe_dual_spec(tab) is None


def test_dual_norm_l2_self_dual():
    res = spaces.dual_norm(spaces.lp(2), [3, 4])
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.bound_direction == "exact"


def test_dual_norm_l1_is_sup():
    res = spaces.dual_norm(spaces.lp(1), [1, -2, 3])
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_dual_norm_tabulated_near_square():
    # no analytic dual: a plain search, with no bound to stop at
    pts = tuple((t, t * t) for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0))
    spec = spaces.orlicz(OrliczFunction(kind="tabulated", points=pts))
    for method in ("auto", "optimize"):
        res = spaces.dual_norm(spec, [3, 4], budget=OptBudget(restarts=4, iterations=200),
                               method=method)
        assert res.value == pytest.approx(5.0, rel=5e-2)
        assert res.bound_direction == "lower-of-sup"
        assert res.certified_bound is None


def test_dual_norm_numeric_agrees_with_analytic():
    rng = np.random.default_rng(10)
    for spec in (spaces.lp(1.5), spaces.sargent_m(SQRT)):
        b = rng.standard_normal(4)
        ana = spaces.dual_norm(spec, b, method="analytic")
        num = spaces.dual_norm(spec, b, method="optimize",
                               budget=OptBudget(restarts=4, iterations=200))
        assert num.value <= ana.value + 1e-9
        assert num.value == pytest.approx(ana.value, rel=5e-2)


POW_HALF = WeightSeq(prefix=(1.0,), tail="power:-0.5")


@pytest.mark.parametrize("spec", [
    spaces.sargent_n(SQRT),
    spaces.sargent_n(WeightSeq(prefix=(1.0,), tail="power:0.7")),
    spaces.garling_nu(GEOM_HALF, 2.0),
    spaces.garling_nu(POW_HALF, 1.5),
    *(spaces.garling_mu(w, p) for w in (GEOM_HALF, POW_HALF) for p in (1.0, 1.5, 2.0, 3.0)),
    spaces.orlicz(OrliczFunction(kind="power", p=3.0)),
], ids=["sargent_n-sqrt", "sargent_n-power", "garling_nu-geometric", "garling_nu-power",
        *(f"garling_mu-{w}-p{p:g}" for w in ("geometric", "power") for p in (1.0, 1.5, 2.0, 3.0)),
        "orlicz-power3"])
def test_analytic_dual_witness_attains_the_value(spec):
    # the family-sharp pairing seed is feasible and meets the closed form
    rng = np.random.default_rng(13)
    for _ in range(200):
        b = rng.standard_normal(int(rng.integers(1, 9)))
        res = spaces.dual_norm(spec, b)
        assert spaces.evaluate_norm(spec, res.witness) <= 1.0 + 1e-12
        assert float(np.sum(np.abs(res.witness * b))) == pytest.approx(
            res.value, rel=1e-12, abs=0.0)


def test_garling_nu_equals_dual_of_mu():
    mu = spaces.garling_mu(GEOM_HALF, 2.0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        b = rng.standard_normal(4)
        direct = spaces.evaluate_norm(spaces.garling_nu(GEOM_HALF, 2.0), b)
        via_dual = spaces.dual_norm(mu, b, method="optimize",
                                    budget=OptBudget(restarts=4, iterations=200))
        assert via_dual.bound_direction == "exact"
        assert via_dual.value == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", [
    spaces.lp(1), spaces.lp(1.5), spaces.lp(3), spaces.lp(math.inf), spaces.c0(),
    *(spaces.orlicz(OrliczFunction(kind="power", p=p)) for p in (1.0, 1.5, 3.0)),
    spaces.garling_mu(GEOM_HALF, 1.0), spaces.garling_mu(POW_HALF, 3.0),
    spaces.garling_nu(GEOM_HALF, 1.0), spaces.garling_nu(POW_HALF, 3.0),
    spaces.sargent_m(SQRT), spaces.sargent_n(SQRT),
], ids=lambda spec: spec.label())
def test_optimize_stops_at_the_analytic_dual(spec):
    # the analytic value is the search's certified bound, and a seed meets it,
    # on wide-range, zero-padded and subnormal inputs too
    rng = np.random.default_rng(19)
    draws = []
    for k in range(30):
        b = rng.standard_normal(int(rng.integers(1, 13)))
        if k % 3 == 1:
            b *= 10.0 ** rng.uniform(-12.0, 12.0, b.size)
        if k % 3 == 2:
            b = np.concatenate([b, np.zeros(3)])
        draws.append(b)
    draws += [b / np.abs(b).max() * 2.2250738583e-314 for b in draws[:6]]
    draws.append(np.array([2.2250738583e-314] * 2))
    for b in draws:
        res = spaces.dual_norm(spec, b, method="optimize")
        assert res.bound_direction == "exact" and res.converged
        assert res.details["stop"] == "certificate"
        assert res.certified_bound == spaces.dual_norm(spec, b).value
        assert optim.meets(res.value, res.certified_bound)
        assert spaces.evaluate_norm(spec, res.witness) <= 1.0 + 1e-9


@given(
    beta=st.lists(st.one_of(st.just(0.0),
                            st.builds(lambda m, e: m * 10.0 ** e,
                                      st.floats(-10.0, -1.0) | st.floats(1.0, 10.0),
                                      st.integers(-12, 12))),
                  min_size=1, max_size=12).filter(any),
    weights=st.sampled_from([GEOM_HALF, POW_HALF, WeightSeq(prefix=(1.0, 0.9, 0.3),
                                                            tail="power:-1.0")]),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_level_witness_attains_nu(beta, weights, p):
    # the level function's equality witness is a unit vector of mu whose
    # pairing is nu (Halperin; Sinnamon 1994)
    mu = spaces.garling_mu(weights, p)
    yhat = np.sort(np.abs(beta))[::-1]
    alpha = spaces._level_witness(mu, yhat / yhat[0])
    assert spaces.evaluate_norm(mu, alpha) <= 1.0 + 1e-12
    assert optim.meets(float(np.sum(alpha * yhat)),
                       spaces.evaluate_norm(spaces.garling_nu(weights, p), beta))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_garling_nu_matches_partition_oracle(p):
    rng = np.random.default_rng(15)
    for weights in (GEOM_HALF, WeightSeq(prefix=(1.0, 0.9, 0.3), tail="power:-1.0")):
        spec = spaces.garling_nu(weights, p)
        w = weights.materialize(7)
        for _ in range(30):
            y = rng.standard_normal(int(rng.integers(1, 8)))
            y[rng.random(y.size) < 0.2] = 0.0
            assert spaces.evaluate_norm(spec, y) == pytest.approx(
                oc.garling_nu_partition_oracle(w, p, y), rel=1e-12, abs=0.0)


def test_garling_mu_p1_dual_is_max_ratio():
    spec = spaces.garling_mu(GEOM_HALF, 1.0)
    assert spaces.kothe_dual_spec(spec) == spaces.garling_nu(GEOM_HALF, 1.0)
    W = np.cumsum(GEOM_HALF.materialize(6))
    rng = np.random.default_rng(16)
    for _ in range(10):
        y = rng.standard_normal(int(rng.integers(1, 7)))
        Y = np.cumsum(np.sort(np.abs(y))[::-1])
        res = spaces.dual_norm(spec, y)
        assert res.bound_direction == "exact"
        assert res.value == pytest.approx(max(Y / W[:y.size]), rel=1e-12)
        assert float(np.sum(np.abs(res.witness * y))) <= res.value * (1.0 + 1e-12)


def test_garling_nu_e1_vs_three_point_grid():
    spec = spaces.garling_nu(GEOM_HALF, 2.0)
    got = spaces.evaluate_norm(spec, [1.0])
    a = spec.weights.materialize(3)
    b = a ** (1.0 / spec.p)
    q = 2.0
    best = math.inf
    steps = np.linspace(0.0, 1.0, 51)
    A = np.array([1.0, 1.0, 1.0])
    for k1 in steps[1:]:
        for k2 in steps:
            if k2 > k1:
                continue
            for k3 in steps:
                if k3 > k2:
                    continue
                k = np.array([k1, k2, k3])
                nrm = float(np.sum(k**q)) ** (1.0 / q)
                k = k / nrm
                B = np.cumsum(k * b)
                best = min(best, float(np.max(A / B)))
    assert got == pytest.approx(best, rel=5e-2)


def test_holder_inequality_all_analytic_pairs():
    rng = np.random.default_rng(12)
    specs = [spaces.lp(1), spaces.lp(1.5), spaces.lp(2), spaces.lp(4), spaces.c0(),
             spaces.orlicz(OrliczFunction(kind="power", p=2.5)),
             spaces.garling_mu(GEOM_HALF, 2.0), spaces.garling_nu(GEOM_HALF, 2.0),
             spaces.sargent_m(SQRT), spaces.sargent_n(SQRT)]
    for spec in specs:
        dual = spaces.kothe_dual_spec(spec)
        assert dual is not None
        for _ in range(20):
            k = int(rng.integers(1, 7))
            a = rng.standard_normal(k)
            b = rng.standard_normal(k)
            lhs = float(np.sum(np.abs(a * b)))
            rhs = spaces.evaluate_norm(spec, a) * spaces.evaluate_norm(dual, b)
            assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# unit vectors


def test_unit_vector_norms():
    assert spaces.unit_vector_norm(spaces.lp(3), 7) == pytest.approx(1.0)
    assert spaces.unit_vector_norm(spaces.garling_mu(GEOM_HALF, 2.0), 1) == pytest.approx(1.0)
    # frozen from the subset oracle: e1 gives 1/phi_1
    assert spaces.unit_vector_norm(spaces.sargent_m(SQRT), 1) == pytest.approx(1.0)
    pre = spaces.sargent_m(WeightSeq(prefix=(2.0, 2.5), tail="sqrt"))
    assert spaces.unit_vector_norm(pre, 1) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# iterated norms


def test_nip_lp2_identity_like():
    rep = spaces.nip_check(spaces.lp(2), [[1.0, 0.0], [0.0, 1.0]])
    s = math.sqrt(2.0)
    assert rep.row_value == pytest.approx(s, abs=1e-12)
    assert rep.col_value == pytest.approx(s, abs=1e-12)
    assert rep.gap <= 1e-12


def test_nip_lp3_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rep = spaces.nip_check(spaces.lp(3), rng.standard_normal((4, 4)))
        assert rep.gap <= 1e-12


def test_nip_fails_for_scale_families():
    """Iterating by rows and by columns genuinely disagrees for these families.

    Frozen from the subset and permutation oracles on A = [[2,0],[1,1]].
    This is real behaviour, not an optimizer artifact; it pins the
    counterexample on which the scale-family legs of acceptance criterion 3
    rely when they assert that the exchange fails.
    """
    rep = spaces.nip_check(spaces.sargent_m(SQRT), [[2.0, 0.0], [1.0, 1.0]])
    assert rep.row_value == pytest.approx(2.414213562373095, abs=1e-12)
    assert rep.col_value == pytest.approx(2.2071067811865475, abs=1e-12)
    assert rep.gap > 0.2

    rep2 = spaces.nip_check(spaces.garling_mu(GEOM_HALF, 2.0), [[2.0, 0.0], [1.0, 1.0]])
    assert rep2.row_value == pytest.approx(2.179449471770337, abs=1e-12)
    assert rep2.col_value == pytest.approx(2.2360679774997894, abs=1e-12)
    assert rep2.gap > 0.05


# ---------------------------------------------------------------------------
def test_lorentz_is_garling_mu():
    # the DSL, the JSON schema and the constructor all give garling_mu
    spec = spaces.garling_mu(GEOM_HALF, 2.0)
    assert spaces.lorentz(GEOM_HALF, 2.0) == spec
    data = {"family": "lorentz", "params": {"weights": "geometric:0.5", "p": 2}}
    assert SpaceSpec.from_json(data) == spec
    assert spec.to_json()["family"] == "garling_mu"
    with pytest.raises(SpecValidationError):
        SpaceSpec.from_json({"family": "lorentz",
                             "params": {"weights": "sqrt", "p": 2}})  # growing


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_lorentz_dual_is_exact_nu(p):
    spec = spaces.lorentz(GEOM_HALF, p)
    w = GEOM_HALF.materialize(6)
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = rng.standard_normal(int(rng.integers(1, 7)))
        res = spaces.dual_norm(spec, y, method="analytic")
        assert res.bound_direction == "exact"
        assert res.value == pytest.approx(oc.garling_nu_partition_oracle(w, p, y),
                                          rel=1e-12, abs=0.0)


# weights and validation


def test_weightseq_tails():
    g = WeightSeq(prefix=(1.0, 0.5), tail="geometric:0.5")
    assert np.allclose(g.materialize(4), [1.0, 0.5, 0.25, 0.125])
    p = WeightSeq(prefix=(1.0,), tail="power:-1.0")
    assert np.allclose(p.materialize(3), [1.0, 0.5, 1.0 / 3.0])
    s = WeightSeq(prefix=(1.0,), tail="sqrt")
    assert np.allclose(s.materialize(3), [1.0, math.sqrt(2.0), math.sqrt(3.0)])
    c = WeightSeq(prefix=(1.0, 2.0), tail=None)
    assert np.allclose(c.materialize(4), [1.0, 2.0, 2.0, 2.0])


def test_invalid_specs_rejected():
    with pytest.raises(SpecValidationError):
        spaces.lp(0.5)
    with pytest.raises(SpecValidationError):
        spaces.lorentz(WeightSeq(prefix=(1.0,), tail="sqrt"), 1.0)  # growing
    with pytest.raises(SpecValidationError):
        spaces.lorentz(WeightSeq(prefix=(1.0, 1.5), tail=None), 1.0)  # increasing
    with pytest.raises(SpecValidationError):
        spaces.sargent_m(WeightSeq(prefix=(1.0, 3.0), tail=None))  # jump too big
    with pytest.raises(SpecValidationError):
        spaces.sargent_m(WeightSeq(prefix=(1.0, 0.5), tail=None))  # decreasing
    with pytest.raises(SpecValidationError):
        OrliczFunction(kind="power", p=0.5)
    with pytest.raises(SpecValidationError):
        OrliczFunction(kind="tabulated",
                       points=((0.0, 0.0), (1.0, 2.0), (2.0, 2.5)))  # concave
    for pts in (((0.0, 0.0), (1e-200, 1e200)),  # the slope overflows
                ((0.0, 0.0), (1.0, 1.0), (math.nan, 2.0))):
        with pytest.raises(SpecValidationError):
            OrliczFunction(kind="tabulated", points=pts)
    with pytest.raises(SpecValidationError):
        spaces.garling_nu(GEOM_HALF, 0.5)  # needs p >= 1
    # nan compares false with every bound, so each family must reject it
    for make in (spaces.lp, lambda p: spaces.lorentz(GEOM_HALF, p),
                 lambda p: spaces.garling_mu(GEOM_HALF, p),
                 lambda p: spaces.garling_nu(GEOM_HALF, p)):
        with pytest.raises(SpecValidationError):
            make(math.nan)


def test_spacespec_json_roundtrip():
    specs = [
        spaces.lp(2.5),
        spaces.c0(),
        spaces.orlicz(OrliczFunction(kind="power_log", p=2.0)),
        spaces.lorentz(WeightSeq(prefix=(1.0, 0.5), tail="geometric:0.25"), 2.0),
        spaces.garling_mu(GEOM_HALF, 3.0),
        spaces.sargent_n(WeightSeq(prefix=(1.0, 1.4), tail="power:0.5")),
    ]
    for spec in specs:
        data = json.loads(json.dumps(spec.to_json()))
        back = SpaceSpec.from_json(data)
        rng = np.random.default_rng(14)
        a = rng.standard_normal(5)
        assert spaces.evaluate_norm(back, a) == pytest.approx(
            spaces.evaluate_norm(spec, a), rel=1e-9
        )
