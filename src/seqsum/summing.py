"""Summing-operator norms for finite matrices between lp-style oracles.

The three constants are ratio suprema over finite test sequences: images'
strong norm against the input sequence's weak, mid, or composed handle.  Every
normalizer is a certified over-estimate of the true constraint norm (weak
gets its operator-norm upper bound, mid gets the strong norm), so each witness
is genuinely feasible and each value is at most the constant.  Against the
strong norm the supremum is ||T|| by normality, so the mid constant needs no
search of its own: pi_lambda_mid is operator_norm, with its label and
certified bound where mid = strong on the whole domain, and as a lower bound
elsewhere.  operator_norm is vector_norms.operator_norm, the same sup as the
weak norm of a trace map.  Its witness is a single vector, on which weak,
mid and strong norms agree, so the ideal check compares strong norms and
runs no search either.  The weak-handled ones are searched from singular
directions, canonical bases and rank-one compositions, and stop at
_summing_upper, a closed-form upper bound of both: there they are "exact",
which covers the Hilbert-Schmidt case (lp(2) on l2^d -> l2^e, with n >= d
and, for w^mid, m >= e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optim, spaces, vector_norms as vn
from .optim import Ball, OptBudget, Witnessed
from .spaces import SpaceSpec, evaluate_norms
from .vector_norms import NormOracle, VectorSequence

__all__ = [
    "OperatorMatrix",
    "rank_one_operator",
    "operator_norm",
    "operator_norm_upper_matrix",
    "pi_lambda",
    "pi_lambda_mid",
    "w_lambda_mid",
    "WitnessCheck",
    "strong_mid_witness_check",
    "mid_weak_witness_check",
    "IdealReport",
    "ideal_witness_check",
]

@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix T acting from a d-dim domain oracle to an e-dim codomain oracle."""

    domain: NormOracle
    codomain: NormOracle
    entries: np.ndarray  # shape (e, d)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if arr.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"entries of shape {arr.shape} do not map "
                f"dim {self.domain.dim} into dim {self.codomain.dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", arr)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ x

    def to_json(self):
        return {
            "domain": self.domain.label,
            "codomain": self.codomain.label,
            "rows": self.entries.tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "OperatorMatrix":
        return cls(
            domain=vn.oracle_from_label(data["domain"]),
            codomain=vn.oracle_from_label(data["codomain"]),
            entries=np.asarray(data["rows"], dtype=float),
        )


def rank_one_operator(domain: NormOracle, codomain: NormOracle,
                      f, y) -> OperatorMatrix:
    """The operator x -> f(x) y for a functional f on the domain."""
    f = np.asarray(f, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    return OperatorMatrix(domain=domain, codomain=codomain,
                          entries=np.outer(y, f))


# ---------------------------------------------------------------------------
# Operator norms between the oracles themselves


def operator_norm(T: OperatorMatrix, budget: OptBudget | None = None) -> Witnessed:
    """Operator norm between the lp oracles: vector_norms.operator_norm of
    the entries into lp(q), with q the codomain's exponent."""
    return vn.operator_norm(T.entries, T.domain, spaces.lp(T.codomain.p), budget)


def operator_norm_upper_matrix(T: OperatorMatrix) -> float:
    """Certified upper bound of the operator norm between lp oracles."""
    return vn.operator_norm_upper(T.entries, T.domain, spaces.lp(T.codomain.p))


# ---------------------------------------------------------------------------
# Test sequences


def _svd(M: np.ndarray):
    """The thin SVD (U, s, Vt) of M.  When it does not converge, the first
    basis vectors stand in for the singular ones, with infinite singular
    values, so that _summing_upper's SVD bound bounds nothing."""
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        k = min(M.shape)
        return np.eye(M.shape[0], k), np.full(k, math.inf), np.eye(k, M.shape[1])


def _sequence_seeds(T: OperatorMatrix, n: int, ball: Ball, top: np.ndarray) -> np.ndarray:
    """The test sequences the searches start from, with top the top right
    singular vector of T, projected into ball as one stack."""
    d = T.domain.dim
    seeds = []
    single = np.zeros((n, d))
    single[0] = top
    seeds.append(single.ravel())
    rep = np.tile(top, (n, 1))
    seeds.append(rep.ravel())
    seeds.append(np.eye(n, d).ravel())
    if n >= d and d > 1:
        seeds.append(np.eye(n, d).ravel() / math.sqrt(d))
    return ball.project(np.stack(seeds))


def _image_lengths(T: OperatorMatrix, flat: np.ndarray, n: int) -> np.ndarray:
    """Lengths of the images (T x_i)_i, for one flat sequence or a stack."""
    X = flat.reshape(flat.shape[:-1] + (n, T.domain.dim))
    return vn.row_lengths(T.codomain, X @ T.entries.T)


def _image_strong(spec: SpaceSpec, T: OperatorMatrix, flat: np.ndarray, n: int):
    """Strong norm of the images (T x_i)_i, for one flat sequence or a stack."""
    return evaluate_norms(spec, _image_lengths(T, flat, n))


def _summing_upper(spec: SpaceSpec, T: OperatorMatrix, svd) -> float:
    """Certified upper bound of pi_lambda(T), for every length n, and so of
    w_lambda_mid(T), since the mid handle is below the strong norm; svd is
    _svd(T.entries).

    With weak(x) the weak norm of (x_i) and t_k the rows of T, it is the
    smaller of two bounds of strong((T x_i)_i) / weak(x) (Diestel, Jarchow
    and Tonge 1995, ch. 2):
    - representation: for T = sum_k y_k f_k and any normal lambda,
      |T x_i| <= sum_k |f_k(x_i)| |y_k|, so the ratio is at most
      sum_k |f_k|_X* |y_k|_Y; taken on the rows and on the SVD;
    - rows, lambda = lp(p) into l_q: |(|t_k|_X*)_k| in l_min(p,q), by
      Minkowski's inequality for p >= q, after |.|_q <= |.|_p for p < q.
    On l2 -> l2 with lp(2) it is the Hilbert-Schmidt norm, which is pi_2.
    """
    M = T.entries
    dual = T.domain.flip()
    rows = spaces._finite(vn.row_lengths(dual, M))
    # the codomain's unit vectors have norm one: the rows representation
    bounds = [math.fsum(rows)]
    if spec.family == "lp":
        bounds.append(float(spaces._pnorm(rows, min(spec.p, T.codomain.p))))
    U, s, Vt = svd
    bounds.append(math.fsum(s * vn.row_lengths(T.codomain, U.T) * vn.row_lengths(dual, Vt)))
    return min(bounds)


def pi_lambda(spec: SpaceSpec, T: OperatorMatrix, n: int,
              budget: OptBudget | None = None) -> Witnessed:
    """Summing constant: sup of image strong norm over weakly-bounded xs.

    Feasibility divides by the certified weak upper bound (over-normalizes),
    so the value is at most the length-n constant, which is itself
    nondecreasing in n.  The search stops at _summing_upper, which the
    result carries, and is "exact" where a witness meets it: on l2 -> l2
    with lp(2) and n >= d the canonical basis does, at the Hilbert-Schmidt
    norm.
    """
    if n < 1:
        raise ValueError("sequence length n must be >= 1")
    # the weak handle of (x_i) is the bound of its trace map X* -> lambda
    ball = vn._operator_ball(T.domain.flip(), spec, n)

    def objective(flat):
        # finite: the points lie in the operator ball
        return spaces._norms(spec, _image_lengths(T, flat, n))

    svd = _svd(T.entries)
    seeds = _sequence_seeds(T, n, ball, svd[2][0])
    return optim.maximize_over_ball(objective, ball, budget=budget, seeds=seeds,
                                    target=_summing_upper(spec, T, svd))


def pi_lambda_mid(spec: SpaceSpec, T: OperatorMatrix, n: int, m: int = 4,
                  budget: OptBudget | None = None) -> Witnessed:
    """Mid-summing constant, normalized by the strong norm: ||T||.

    The strong norm dominates the mid norm, so the value is a sound lower
    bound.  By normality ||(T x_i)||_s <= ||T|| ||(x_i)||_s, with equality at
    a single vector, so the sup is operator_norm(T), with its witness as the
    first of n rows, scaled into the strong unit ball.  Where mid = strong
    on every sequence (lambda = lp(r) on l_r^d, where the identity into
    lp(r)^d is a feasible operator, or d = 1), the constant is ||T|| and the
    result is operator_norm's, label and certified_bound included.
    Elsewhere the constant can exceed ||T||, so the value is "lower-of-sup":
    on l1:2 with lp(2), ((1, 1), (1, -1)) has strong norm 2 sqrt 2 and, by
    the parallelogram law, mid norm 2, so the identity's constant is at
    least sqrt 2.  m is unused; it stays only for callers that still pass it.
    """
    if n < 1:
        raise ValueError("sequence length n must be >= 1")
    op = operator_norm(T, budget=budget)
    X = np.zeros((n, T.domain.dim))
    X[0] = op.witness / spaces.unit_vector_norm(spec, 1)
    if T.domain.dim == 1 or (spec.family == "lp" and spec.p == T.domain.p):
        return replace(op, witness=X.ravel())
    return Witnessed(value=op.value, witness=X.ravel(), bound_direction="lower-of-sup",
                     converged=op.converged)


def w_lambda_mid(spec: SpaceSpec, T: OperatorMatrix, n: int, m: int = 4,
                 budget: OptBudget | None = None) -> Witnessed:
    """Weak-mid constant via a joint search over compositions.

    Searches pairs (S, xs) with S in the ball of operators from the codomain
    into the m-truncated scalar space and xs weakly bounded; the objective is
    the image strong norm of (S T x_i)_i.  Both constraint handles are
    certified upper bounds, so the value is at most the constant.  Every S
    contracts, so the mid handle is below the strong norm and the value is
    at most pi_lambda's bound, _summing_upper: the search stops there, and
    the result carries it.  When m >= e the padded identity [I_e; 0], scaled
    into the operator ball, is paired with each sequence seed; into
    lambda = lp(q) from l_q it scores as pi_lambda's seeds do, so w^mid is
    "exact" wherever pi_lambda's seeds meet the bound.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    e, d = T.entries.shape
    op_ball = vn._operator_ball(T.codomain, spec, m)
    xs_ball = vn._operator_ball(T.domain.flip(), spec, n)
    domain = optim.concat_domain([op_ball, xs_ball], label="w-mid")

    def objective(flat):
        S = flat[..., : m * e].reshape(flat.shape[:-1] + (m, e))
        X = flat[..., m * e:].reshape(flat.shape[:-1] + (n, d))
        imgs = X @ T.entries.T @ np.swapaxes(S, -1, -2)
        # finite: both blocks lie in operator balls
        return spaces._norms(spec, spaces._norms(spec, np.abs(imgs)))

    # rank-one S sending the top image direction to the first coordinate;
    # the SVD that finds it gives the sequence seeds their top direction and
    # the target its SVD bound
    U, _, Vt = svd = _svd(T.entries)
    c = spaces.unit_vector_norm(spec, 1)
    S0 = np.zeros((m, e))
    g = U[:, 0] if T.codomain.p == 2.0 else np.sign(U[:, 0])
    gnorm = T.codomain.flip().norm(g)
    if gnorm > 0:
        S0[0] = g / (gnorm * c)
    ops = [S0]
    if m >= e:
        ops.append(np.eye(m, e))
    xs_seeds = _sequence_seeds(T, n, xs_ball, Vt[0])
    op_seeds = op_ball.project(np.stack([S.ravel() for S in ops]))
    seeds = [np.concatenate([S, xs_seed]) for S in op_seeds for xs_seed in xs_seeds]
    res = optim.maximize_over_ball(objective, domain, budget=budget, seeds=seeds,
                                   target=_summing_upper(spec, T, svd))
    res.details["truncation"] = m
    return res


# ---------------------------------------------------------------------------
# Per-witness inequality checks


@dataclass(frozen=True)
class WitnessCheck:
    lhs: float
    rhs: float
    ok: bool
    label: str


def strong_mid_witness_check(spec: SpaceSpec, T: OperatorMatrix,
                         result: Witnessed) -> WitnessCheck:
    """Image strong norm against value times the witness's constraint handle.

    For a pi_lambda_mid result the handle is the strong norm of the witness
    sequence; the inequality holds by construction of the normalizer and is
    recomputed here from scratch.
    """
    flat = result.witness
    n = flat.size // T.domain.dim
    lhs = float(_image_strong(spec, T, flat, n))
    handle = vn.strong_norm(spec, VectorSequence(T.domain,
                                                 flat.reshape(n, T.domain.dim)))
    rhs = result.value * handle
    return WitnessCheck(lhs=lhs, rhs=rhs, ok=not optim.exceeds(lhs, rhs),
                        label="strong-vs-mid")


def mid_weak_witness_check(spec: SpaceSpec, T: OperatorMatrix,
                       result: Witnessed) -> WitnessCheck:
    """Composed image norm against value times the weak handle of the witness."""
    m = result.details.get("truncation")
    flat = result.witness
    e, d = T.entries.shape
    S = flat[:m * e].reshape(m, e)
    X = flat[m * e:].reshape(-1, d)
    imgs = X @ T.entries.T @ S.T
    lhs = float(evaluate_norms(spec, evaluate_norms(spec, imgs)))
    handle = vn.weak_norm_upper(spec, VectorSequence(T.domain, X))
    rhs = result.value * handle
    return WitnessCheck(lhs=lhs, rhs=rhs, ok=not optim.exceeds(lhs, rhs),
                        label="mid-vs-weak")


@dataclass(frozen=True)
class IdealReport:
    left: WitnessCheck
    right: WitnessCheck

    def ok(self) -> bool:
        return self.left.ok and self.right.ok


def ideal_witness_check(spec: SpaceSpec, R: OperatorMatrix, T: OperatorMatrix,
                        S: OperatorMatrix, n: int = 3,
                        budget: OptBudget | None = None) -> IdealReport:
    """Witness-sound form of the two-sided composition inequality.

    Takes the mid-summing witness xs of the composition R T S, then checks
    at it: (a) the outer factor peels off through the operator-norm upper
    bound of R; (b) the inner factor: the image mid norm of xs under S is at
    most the upper bound of S times the mid norm of xs.  The witness has one
    nonzero row x, and for such a sequence weak = mid = strong = c |x| for
    every normal lambda and truncation, with c the norm of the first unit
    vector: every feasible operator contracts, and e_1 (x) f / c, with f
    norming x, is feasible and attains it.  So (b) compares strong norms,
    in closed form.
    """
    if R.domain.dim != T.codomain.dim or T.domain.dim != S.codomain.dim:
        raise ValueError("operators do not compose")
    comp = OperatorMatrix(domain=S.domain, codomain=R.codomain,
                          entries=R.entries @ T.entries @ S.entries)
    TS = OperatorMatrix(domain=S.domain, codomain=T.codomain,
                        entries=T.entries @ S.entries)
    flat = pi_lambda_mid(spec, comp, n=n, budget=budget).witness

    lhs_a = float(_image_strong(spec, comp, flat, n))
    r_up = operator_norm_upper_matrix(R)
    rhs_a = r_up * float(_image_strong(spec, TS, flat, n))
    left = WitnessCheck(lhs=lhs_a, rhs=rhs_a, ok=not optim.exceeds(lhs_a, rhs_a),
                        label="outer-factor")

    lhs_b = float(_image_strong(spec, S, flat, n))
    rhs_b = operator_norm_upper_matrix(S) * vn.strong_norm(
        spec, VectorSequence(S.domain, flat.reshape(n, S.domain.dim)))
    right = WitnessCheck(lhs=lhs_b, rhs=rhs_b, ok=not optim.exceeds(lhs_b, rhs_b),
                         label="inner-factor")
    return IdealReport(left=left, right=right)
