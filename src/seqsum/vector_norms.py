"""Vector-valued sequence norms over finite-dimensional normed-space oracles.

A sequence of vectors x_1..x_n in a d-dimensional space X gets four norms
relative to a scalar sequence space: strong (the scalar norm of the vector of
lengths), weak (sup over the dual ball of the scalar norm of the functional
traces), weak-star (the mirror statement for functionals, sup over the primal
ball), and mid (sup over the ball of operators from X into an m-coordinate
truncation of the scalar space).  Sup-defined values are witness-certified
lower bounds; chain ordering weak <= mid <= strong holds by construction, as
mid starts from a rank-one operator built from the weak witness.

Weak and weak-star are operator norms: of the trace map f -> (f(x_n))_n on
the dual ball, and of x -> (f_n(x))_n on the primal ball.  Both are one call
to operator_norm, the witnessed sup of |Mx| over an lp oracle's ball, which
summing.operator_norm also is.  It scores the points where the closed forms
of operator_norm_upper are attained, and if none meets that bound, ascends
from them by the power method, with no search.  Mid stops at the strong
norm; past its exits it ascends so on l1 domains and searches elsewhere.
A value that meets its certified bound to 1e-12 relative is "exact".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iterproduct

import numpy as np

from . import optim, spaces
from .optim import Ball, OptBudget, Witnessed
from .spaces import SpaceSpec, evaluate_norm, evaluate_norms

__all__ = [
    "NormOracle",
    "lp_oracle",
    "oracle_from_label",
    "VectorSequence",
    "strong_norm",
    "weak_norm",
    "weak_norm_upper",
    "weak_star_norm",
    "mid_norm",
    "chain_check",
    "ChainReport",
    "limited_bound_profile",
    "BoundProfile",
    "operator_norm",
    "operator_norm_upper",
    "row_lengths",
]

_SIGN_ENUM_LIMIT = 12


@dataclass(frozen=True)
class NormOracle:
    """The finite-dimensional space l_p^dim and its unit ball; flip() is its dual.

    p is the exponent that operator_norm_upper's closed forms read; anything
    but p >= 1 or inf is rejected.
    """

    dim: int
    p: float
    label: str = "oracle"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("oracle dimension must be >= 1")
        if self.p is None or not (self.p >= 1.0):
            raise ValueError(f"oracle needs p >= 1 or inf, got {self.p!r}")

    def flip(self) -> "NormOracle":
        return NormOracle(dim=self.dim, p=spaces.conjugate_exponent(self.p),
                          label=f"dual[{self.label}]")

    def norm(self, v) -> float:
        return float(row_lengths(self, v))

    def ball(self) -> Ball:
        return optim.gauge_ball(lambda V: row_lengths(self, V), self.dim,
                                f"ball[{self.label}]")


def lp_oracle(p: float, dim: int) -> NormOracle:
    p = float(p)
    name = "linf" if math.isinf(p) else f"l{p:g}"
    return NormOracle(dim=dim, p=p, label=f"{name}:{dim}")


def row_lengths(oracle: NormOracle, M) -> np.ndarray:
    """Oracle norm of each row: along the last axis, with any leading axes."""
    return spaces._pnorm(np.abs(np.asarray(M, dtype=float)), oracle.p)


def _duality_maps(p: float, V) -> np.ndarray:
    """Row j lies in the unit ball of l_p and pairs with row j of the 2-d V
    to that row's norm in the conjugate space l_q: sign(v) times the norming
    map of l_q at |v|, zero for a zero row."""
    V = np.asarray(V, dtype=float)
    return np.sign(V) * spaces._norm_gradient(spaces.lp(spaces.conjugate_exponent(p)), np.abs(V))


def oracle_from_label(label: str) -> NormOracle:
    """Parse "l1:3", "l2:2", "linf:4", or "l2.5:3"."""
    try:
        head, dim_s = label.split(":")
        dim = int(dim_s)
        if head == "linf":
            return lp_oracle(math.inf, dim)
        if head.startswith("l"):
            return lp_oracle(float(head[1:]), dim)
    except (AttributeError, TypeError, ValueError):
        pass
    raise ValueError(f"unrecognized oracle label {label!r}")


@dataclass(frozen=True)
class VectorSequence:
    """Finite list of same-dimension vectors tied to a space oracle."""

    oracle: NormOracle
    vectors: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != self.oracle.dim:
            raise ValueError(
                f"vectors of shape {arr.shape} do not fit oracle dim {self.oracle.dim}"
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("vector entries must be finite")
        object.__setattr__(self, "vectors", arr)

    def __len__(self):
        return self.vectors.shape[0]

    def lengths(self) -> np.ndarray:
        return row_lengths(self.oracle, self.vectors)

    def to_json(self):
        return {"oracle": self.oracle.label, "vectors": self.vectors.tolist()}

    @classmethod
    def from_json(cls, data) -> "VectorSequence":
        return cls(oracle=oracle_from_label(data["oracle"]),
                   vectors=np.asarray(data["vectors"], dtype=float))


# ---------------------------------------------------------------------------
# Operator norms: the table of upper bounds, and the witnessed sup


@lru_cache(maxsize=None)
def _sign_vectors(k: int) -> np.ndarray:
    """The sign vectors of length k with first entry 1, as rows of a
    read-only array: half the cube, since the norms here are even in them."""
    combos = list(_iterproduct((1.0, -1.0), repeat=k - 1)) if k > 1 else [()]
    S = np.array([(1.0,) + c for c in combos])
    S.flags.writeable = False
    return S


def _l2_to_lp_upper(M: np.ndarray, r: float, rows: np.ndarray):
    """The l2 -> lp(r) row of the table, given the l2 lengths of M's rows;
    each branch computes only what it reads."""
    if math.isinf(r):
        return np.maximum.reduce(rows, axis=-1)
    m = M.shape[-2]
    if r < 2.0 and m <= _SIGN_ENUM_LIMIT:
        to_one = np.maximum.reduce(spaces._pnorm(np.abs(_sign_vectors(m) @ M), 2.0), axis=-1)
        if r == 1.0:
            return to_one
    sv = np.linalg.svd(M, compute_uv=False)[..., 0]
    if r == 2.0:
        return sv
    if r > 2.0:
        # pointwise |y|_r <= |y|_2^(2/r) |y|_inf^(1-2/r)
        t = 2.0 / r
        return sv**t * np.maximum.reduce(rows, axis=-1) ** (1.0 - t)
    if m > _SIGN_ENUM_LIMIT:
        to_one = math.sqrt(m) * sv
        if r == 1.0:
            return to_one
    # 1 < r < 2: |y|_r <= |y|_1^th |y|_2^(1-th), th = 2/r - 1
    th = 2.0 / r - 1.0
    return to_one**th * sv ** (1.0 - th)


def operator_norm_upper(M, dom: NormOracle, cod: SpaceSpec):
    """Certified upper bound for the norm of x -> Mx from dom into the
    scalar space: the one table of operator-norm closed forms.

    M is one matrix or a stack of them along leading axes; the value is a
    float or an array of the stack's shape.  It is the smaller of dom's
    formula and the normality bound, the scalar norm of the rows' dual
    lengths.  It is the norm itself from l1 (the largest column), from linf
    (sign enumeration), on l2 into l1 or l2, and into linf or c0 (the
    normality bound); elsewhere it interpolates through l2 and linf.
    operator_norm certifies a norming point against it.  It raises
    ValueError when some row's dual length is not a finite float.
    """
    M = np.asarray(M, dtype=float)
    one = M.ndim <= 2
    if one:
        # a stack of one, so that one matrix takes the stack's array powers
        # and gets the same bits alone as in a stack
        M = np.atleast_2d(M)[None]
    if M.size == 0:
        return 0.0 if one else np.zeros(M.shape[:-2])
    d = M.shape[-1]
    p = dom.p
    # the rows' dual lengths, for the normality bound |(Mx)_i| <= |row_i|_dom* |x|_dom;
    # they are finite exactly when M is and no power sum overflows
    rows = spaces._finite(spaces._pnorm(np.abs(M), spaces.conjugate_exponent(p)))
    if p == 1.0:
        val = np.maximum.reduce(spaces._norms(cod, np.abs(M.swapaxes(-1, -2))), axis=-1)
    elif math.isinf(p):
        if d <= _SIGN_ENUM_LIMIT:
            # column s of M S^T is M s, one image per sign vector
            imgs = (M @ _sign_vectors(d).T).swapaxes(-1, -2)
            val = np.maximum.reduce(evaluate_norms(cod, imgs), axis=-1)
        else:
            val = d * np.maximum.reduce(spaces._norms(cod, np.abs(M.swapaxes(-1, -2))), axis=-1)
    elif p == 2.0 and cod.family in ("lp", "c0"):
        val = _l2_to_lp_upper(M, cod.p if cod.family == "lp" else math.inf, rows)
    elif p == 2.0:
        val = math.inf
    else:
        # route through l2 or linf, whichever embedding constant is smaller
        c2 = 1.0 if p <= 2.0 else d ** (0.5 - 1.0 / p)
        val = np.minimum(c2 * operator_norm_upper(M, lp_oracle(2.0, d), cod),
                         operator_norm_upper(M, lp_oracle(math.inf, d), cod))
    val = np.minimum(val, spaces._norms(cod, rows))
    return float(val[0]) if one else val


def operator_norm(M, dom: NormOracle, cod: SpaceSpec,
                  budget: OptBudget | None = None) -> Witnessed:
    """sup of the scalar norm of Mx over the unit ball of dom, exact where a
    norming point meets operator_norm_upper, which is its certified_bound.

    The points are where the bound's closed forms are attained: the top
    right singular vector, scored first, then in one stacked call with it at
    the head the basis, the sign vectors of an linf domain, and the duality
    maps of the rows and of the signed row sums (at most 6 rows, or 12 into
    lp(1)).  If none meets the bound, all ascend as one stack by the power
    method (Boyd 1974; Higham 1992, section 3) in _power_ascent: x goes to
    the projected duality map of M^T (sign(Mx) g), g cod's norming map at |Mx|.
    """
    M = np.asarray(M, dtype=float)
    e, d = M.shape
    ball = dom.ball()
    bound = operator_norm_upper(M, dom, cod)

    def score(X):
        # one product per row, so a row has the same bits in any stack; finite,
        # as X lies in the ball and bound checked every row's dual length
        Y = (M @ X[..., None])[..., 0]
        return spaces._norms(cod, np.abs(Y)), Y

    def step(Y):
        G = np.sign(Y) * spaces._norm_gradient(cod, np.abs(Y))
        return ball.project(_duality_maps(dom.p, (G[:, None] @ M)[:, 0]))

    def norming_points():
        pts = []  # the singular vector alone, then at the head of the stack
        try:
            pts.append(np.linalg.svd(M)[2][:1])
            yield ball.project(pts[0])
        except np.linalg.LinAlgError:
            pass
        pts.append(np.eye(d))
        if math.isinf(dom.p) and d <= _SIGN_ENUM_LIMIT:
            pts.append(_sign_vectors(d))
        rows = M
        into_l1 = cod.family == "lp" and cod.p == 1.0
        if 1 < e <= (_SIGN_ENUM_LIMIT if into_l1 else 6):
            rows = np.concatenate([M, _sign_vectors(e) @ M])
        pts.append(_duality_maps(dom.p, rows))
        yield ball.project(np.concatenate(pts))

    x, value, direction, converged, _ = _power_ascent(
        norming_points(), score, step, bound, (budget or OptBudget()).iterations)
    return Witnessed(value=float(value), witness=x, bound_direction=direction,
                     converged=converged, certified_bound=bound)


def _power_ascent(blocks, score, step, bound, iterations, ulps=0):
    """(x, value, direction, converged, rows scored) of a sup: the stacks of
    blocks, points of the ball, are scored in turn by score(X) -> (values,
    Y), and the first row to meet bound is "exact".  Else, unless step is
    None (then None), the last block ascends as one stack: step(Y) maps a
    row to the maximizer over the ball of a linear minorant of the objective
    tight at it, kept where the value rises by more than ulps ulp, until a
    row meets bound, none rises, or after iterations steps (converged: the
    best row had stopped)."""
    evals = 0
    for X in blocks:
        vals, Y = score(X)
        evals += len(X)
        if (hit := np.flatnonzero(optim.meets(vals, bound))).size:
            return X[hit[0]], vals[hit[0]], "exact", True, evals
    if step is None:
        return None
    live = np.arange(len(X))
    for _ in range(iterations):
        P = step(Y)
        F, Y = score(P)
        evals += len(P)
        up = F > vals[live] + ulps * np.spacing(vals[live])
        live, Y = live[up], Y[up]
        X[live], vals[live] = P[up], F[up]
        if (hit := live[optim.meets(vals[live], bound)]).size:
            return X[hit[0]], vals[hit[0]], "exact", True, evals
        if not live.size:
            break
    i = int(np.argmax(vals))
    return X[i], vals[i], "lower-of-sup", i not in live, evals


# ---------------------------------------------------------------------------
# The four norms


def strong_norm(spec: SpaceSpec, xs: VectorSequence) -> float:
    """Scalar-space norm of the sequence of vector lengths.  Exact."""
    return evaluate_norm(spec, xs.lengths())


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v|_2 for v != 0, taken after an exact power-of-two rescaling so
    the length neither underflows nor overflows; normal-range bits are kept."""
    v = v / spaces._pow2_floor(np.abs(v).max())
    return v / np.linalg.norm(v)


def weak_norm(spec: SpaceSpec, xs: VectorSequence,
              budget: OptBudget | None = None) -> Witnessed:
    """sup over the dual ball of the scalar norm of (f(x_1), ..., f(x_n)).

    It is the operator norm of the trace map on the dual ball.  Witness is
    the functional f, reported as its coefficient vector; the result carries
    weak_norm_upper as its certified bound.
    """
    return operator_norm(xs.vectors, xs.oracle.flip(), spec, budget)


def weak_norm_upper(spec: SpaceSpec, xs: VectorSequence) -> float:
    """Certified upper bound of the weak norm.

    The trace map f -> (f(x_n))_n is the matrix with the x_n as rows acting on
    the dual space; its operator norm bounds the weak norm.  The normality
    bound of that map is the strong norm.
    """
    return operator_norm_upper(xs.vectors, xs.oracle.flip(), spec)


def weak_star_norm(spec: SpaceSpec, fs: VectorSequence,
                   budget: OptBudget | None = None) -> Witnessed:
    """sup over the primal ball of the scalar norm of (f_1(x), ..., f_n(x)).

    fs holds the functionals' coefficient rows, interpreted in the dual of
    its oracle; the search therefore runs over the primal unit ball, and
    stops at the bound of the trace map on fs's own oracle.
    """
    return operator_norm(fs.vectors, fs.oracle, spec, budget)


def _operator_ball(dom: NormOracle, cod: SpaceSpec, m: int) -> Ball:
    d = dom.dim

    def kappa(flat):
        return operator_norm_upper(flat.reshape(flat.shape[:-1] + (m, d)), dom, cod)

    return optim.gauge_ball(kappa, m * d, f"opball[{dom.label}->{cod.label()}^{m}]")


def _padded(R: np.ndarray, m: int) -> np.ndarray:
    """The m x d operator whose rows are the first m rows of R, then zeros, flat."""
    T = np.zeros((m, R.shape[-1]))
    T[:len(R[:m])] = R[:m]
    return T.ravel()


def _mid_seeds(xs: VectorSequence, m: int, ball: Ball,
               rank_one: list[np.ndarray]) -> list[np.ndarray]:
    A = xs.vectors
    # the rank-one seed is feasible as it is; the rest are projected, as one stack
    rows = [_unit(v) for v in A[:m] if np.any(v)]
    cands = ([_padded(np.array(rows), m)] if rows else []) + [_padded(np.eye(xs.oracle.dim), m)]
    if len(A) and np.any(A):
        try:
            cands.append(_padded(np.linalg.svd(A, full_matrices=False)[2], m))
        except np.linalg.LinAlgError:
            pass
    return rank_one + list(ball.project(np.stack(cands)))


def _column_step(spec: SpaceSpec, dual: SpaceSpec, A: np.ndarray, ball: Ball, imgs):
    """mid's power step on an l1 domain, from the images y_n = T x_n of a
    stack of operators T, x_n the rows of A.  D = sum_n h_n sign(y_n)
    g(|y_n|) x_n^T is a subgradient of the objective, h and g the norming
    maps of the outer and inner norms; the ball is a product of column balls,
    and column j goes to sign(D_j) times the Kothe dual's norming map at
    |D_j| (which reads no positive factor of D_j, so D_j is divided by a
    power of two), the maximizer of <D_j, .> on the scalar space's ball.
    """
    m, d, Y = imgs.shape[-1], A.shape[-1], np.abs(imgs)
    h = spaces._norm_gradient(spec, spaces._norms(spec, Y))
    G = np.sign(imgs) * spaces._norm_gradient(spec, Y.reshape(-1, m)).reshape(Y.shape)
    Dt = A.T @ (h[..., None] * G)  # row j of Dt[k] is column j of D
    Dt = Dt / spaces._pow2_floor(np.maximum.reduce(np.abs(Dt), axis=-1, keepdims=True))
    C = np.sign(Dt) * spaces._norm_gradient(dual, np.abs(Dt).reshape(-1, m)).reshape(Dt.shape)
    return ball.project(C.swapaxes(-1, -2).reshape(len(C), m * d))


def mid_norm(spec: SpaceSpec, xs: VectorSequence, m: int = 4,
             budget: OptBudget | None = None,
             weak_witness: np.ndarray | None = None) -> Witnessed:
    """sup over the operator ball L(X, scalar space truncated to m coords).

    The value of T is the strong-type value of (Tx_n)_n.  Every feasible T
    contracts each vector, so the strong norm bounds it; it is the
    certified_bound, and a value that meets it is "exact".  The exits come
    first: T0 = e_1 f / |e_1|, f the weak witness, of value weak, and for
    m >= d the padded identity, of value strong for lp(r) on l_r^d.  Then an
    l1 domain whose scalar space has an analytic Kothe dual takes the power
    ascent (_column_step) from the mid seeds (T0, the unit rows, the
    identity, the top right singular vectors) and budget.restarts random
    points; elsewhere the compass searches from the mid seeds.  With one
    nonzero vector x, weak, mid and strong all equal c |x|, c = |e_1|.
    """
    if m < 1:
        raise ValueError("truncation length m must be >= 1")
    if weak_witness is None:
        weak_witness = weak_norm(spec, xs, budget=budget).witness
    A, d = xs.vectors, xs.oracle.dim
    ball = _operator_ball(xs.oracle, spec, m)
    strong = strong_norm(spec, xs)
    budget = budget or OptBudget()
    rank_one = ([_padded(weak_witness[None] / spaces.unit_vector_norm(spec, 1), m)]
                if np.any(weak_witness) else [])
    dual = spaces.kothe_dual_spec(spec) if xs.oracle.p == 1.0 else None

    def score(flat):
        # row n holds T x_n; finite, as |T x_n| <= |x_n| and strong checked every |x_n|
        imgs = A @ flat.reshape(flat.shape[:-1] + (m, d)).swapaxes(-1, -2)
        return spaces._norms(spec, spaces._norms(spec, np.abs(imgs))), imgs

    def starts():
        exits = rank_one + ([_padded(np.eye(d), m)] if m >= d else [])
        if exits:
            yield ball.project(np.stack(exits))
        if dual is not None:
            draws = [np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(r,)))
                     .standard_normal(ball.dim) for r in range(budget.restarts)]
            yield ball.project(np.stack(_mid_seeds(xs, m, ball, rank_one) + draws))

    step = dual and (lambda Y: _column_step(spec, dual, A, ball, Y))
    # a rise of a few ulp is rounding in the column maps and the projection
    found = _power_ascent(starts(), score, step, strong, budget.iterations, ulps=4)
    if found is None:
        res = optim.maximize_over_ball(lambda V: score(V)[0], ball, budget=budget,
                                       seeds=_mid_seeds(xs, m, ball, rank_one), target=strong)
        res.details["truncation"] = m
        return res
    x, value, direction, converged, evals = found
    stop = {"stop": "certificate"} if direction == "exact" else {}
    return Witnessed(value=float(value), witness=x, bound_direction=direction, converged=converged,
                     details={"truncation": m, "evals": evals, **stop}, certified_bound=strong)


@dataclass(frozen=True)
class ChainReport:
    weak: Witnessed
    mid: Witnessed
    strong: float
    violations: tuple[str, ...]

    def ok(self) -> bool:
        return not self.violations


def chain_check(spec: SpaceSpec, xs: VectorSequence, m: int = 4,
                budget: OptBudget | None = None) -> ChainReport:
    """Compute weak, mid, strong and verify weak <= mid <= strong.

    Mid starts from the rank-one operator of the weak witness, which is what
    makes the first inequality hold by construction; the second holds because
    every feasible operator contracts each vector and the scalar norm is
    monotone.  The strong norm is read from mid's certified_bound, whether mid
    met it at an exit, in the l1 ascent or in the compass search.
    """
    w = weak_norm(spec, xs, budget=budget)
    mid = mid_norm(spec, xs, m=m, budget=budget, weak_witness=w.witness)
    s = mid.certified_bound
    violations = []
    if optim.exceeds(w.value, mid.value):
        violations.append(f"weak {w.value!r} exceeds mid {mid.value!r}")
    if optim.exceeds(mid.value, s):
        violations.append(f"mid {mid.value!r} exceeds strong {s!r}")
    return ChainReport(weak=w, mid=mid, strong=s, violations=tuple(violations))


@dataclass(frozen=True)
class BoundProfile:
    """Per-functional trace norms beta_j and their own scalar norm."""

    values: np.ndarray
    total: float


_PERFECT_FAMILIES = ("lp", "garling_mu", "garling_nu", "sargent_m", "sargent_n")


def limited_bound_profile(spec: SpaceSpec, xs: VectorSequence,
                          fs: VectorSequence) -> BoundProfile:
    """beta_j = scalar norm of the trace (f_j(x_1), ..., f_j(x_n)).

    Each beta_j dominates |f_j(x_n)| uniformly in n by construction, and for
    the bidual-friendly families it equals the sharp such constant.  The
    total is the scalar norm of beta itself, reported as the finite stand-in
    for the membership assertion.
    """
    if spec.family not in _PERFECT_FAMILIES:
        raise spaces.SpecValidationError(
            f"bound profile requires a bidual-exact family, not {spec.family}"
        )
    if xs.oracle.dim != fs.oracle.dim:
        raise ValueError("xs and fs live over different dimensions")
    traces = fs.vectors @ xs.vectors.T  # row j holds (f_j(x_n))_n
    beta = evaluate_norms(spec, traces)
    return BoundProfile(values=beta, total=evaluate_norm(spec, beta))
