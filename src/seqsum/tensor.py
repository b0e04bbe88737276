"""Tensor norms on finite two-factor tensors via representation search.

A d x e matrix of coefficients stands for an element of the algebraic tensor
product of two oracle spaces.  The projective-style quasi-norm is an infimum
of representation costs (strong factor times a dual-space factor) over exact
factorizations in min(d, e) terms; its convexified variant is the same
search over blocks x min(d, e) terms, started from the first one's witness.
Both are witness-certified upper bounds, each carrying a
certified lower bound by trace duality, which on Hilbert factors is the
norm itself.  The injective norm, the operator norm of the coefficients
from the second factor's dual into the first, is the certified lower
reference of the sandwich.

Factorizations are parametrized so reconstruction is exact by construction:
a base factorization from the SVD is composed with an invertible mixing
matrix, so every search point is a valid representation and no repair step
is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optim, spaces, vector_norms as vn
from .optim import OptBudget, Witnessed
from .spaces import SpaceSpec, evaluate_norm, evaluate_norms
from .summing import OperatorMatrix
from .vector_norms import NormOracle, VectorSequence

__all__ = [
    "Tensor",
    "Representation",
    "gamma_lambda",
    "gamma_lambda_c",
    "injective_norm",
    "TraceReport",
    "trace_duality_check",
]

_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Tensor:
    """Element of X tensor Y as a coefficient matrix over the two oracles."""

    domain: NormOracle
    codomain: NormOracle
    entries: np.ndarray  # shape (domain.dim, codomain.dim)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if arr.shape != (self.domain.dim, self.codomain.dim):
            raise ValueError(
                f"entries of shape {arr.shape} do not match dims "
                f"({self.domain.dim}, {self.codomain.dim})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "entries", arr)

    def to_json(self):
        return {
            "domain": self.domain.label,
            "codomain": self.codomain.label,
            "entries": self.entries.tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "Tensor":
        return cls(
            domain=vn.oracle_from_label(data["domain"]),
            codomain=vn.oracle_from_label(data["codomain"]),
            entries=np.asarray(data["entries"], dtype=float),
        )


@dataclass(frozen=True)
class Representation:
    """Blocks of paired vector sequences summing to a tensor."""

    blocks: tuple  # of (VectorSequence, VectorSequence) pairs

    def __post_init__(self):
        for xs, ys in self.blocks:
            if len(xs) != len(ys):
                raise ValueError("block sequences must have equal length")

    def reconstruct(self) -> np.ndarray:
        pieces = [xs.vectors.T @ ys.vectors for xs, ys in self.blocks]
        return np.sum(pieces, axis=0)

    def residual(self, u: Tensor) -> float:
        return float(np.max(np.abs(self.reconstruct() - u.entries)))


def _require_dual(spec: SpaceSpec) -> SpaceSpec:
    dual = spaces.kothe_dual_spec(spec)
    if dual is None:
        raise spaces.SpecValidationError(
            f"tensor norms need an analytic dual space; none for {spec.label()}"
        )
    return dual


def _require_reconstructs(rep: Representation, u: Tensor):
    # relative to the entries, so the check means the same at every scale
    if rep.residual(u) > _RESIDUAL_TOL * np.abs(u.entries).max():
        raise ValueError("representation does not reconstruct the tensor")


def _base_factors(E: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced factorization X0^T Y0 = E from the SVD (deterministic), in
    r >= min(d, e) terms; the terms past min(d, e) are zero."""
    d, e = E.shape
    k = min(d, e)
    P, s, Qt = np.linalg.svd(E)
    root = np.sqrt(s)
    X0 = np.zeros((r, d))
    Y0 = np.zeros((r, e))
    X0[:k] = (P[:, :k] * root).T
    Y0[:k] = root[:, None] * Qt[:k]
    return X0, Y0


def _mixed_block(X0: np.ndarray, Y0: np.ndarray, V: np.ndarray):
    """Apply the invertible mixing I+V: reconstruction is unchanged exactly.

    V may be a stack of mixings.  Returns (Xm, Ym, ok), where ok marks the
    mixings that are invertible with finite factors; the others are zeroed.
    """
    r = X0.shape[-2]
    A = np.eye(r) + V
    At = np.swapaxes(A, -1, -2)
    try:
        Xm = np.linalg.solve(At, X0)
    except np.linalg.LinAlgError:
        # one singular mixing fails the whole stacked solve
        Xm = np.full(A.shape[:-2] + X0.shape, math.nan)
        for i in np.ndindex(A.shape[:-2]):
            try:
                Xm[i] = np.linalg.solve(At[i], X0)
            except np.linalg.LinAlgError:
                pass
    Ym = A @ Y0
    ok = np.isfinite(Xm).all(axis=(-2, -1)) & np.isfinite(Ym).all(axis=(-2, -1))
    mask = ok[..., None, None]
    return np.where(mask, Xm, 0.0), np.where(mask, Ym, 0.0), ok


def _block_cost(spec, dual_spec, u: Tensor, Xm, Ym):
    lx = evaluate_norms(spec, vn.row_lengths(u.domain, Xm))
    ly = evaluate_norms(dual_spec, vn.row_lengths(u.codomain, Ym))
    return lx * ly


def _projective_lower(u: Tensor) -> float:
    """Certified lower bound of every representation cost, by trace duality.

    For any exact representation, Hoelder for the Koethe pair gives
    sum_j |x_j| |y_j| <= strong(x) strong_dual(y), and for any matrix T
    |<T, E>| = |sum_j x_j . T y_j| <= ||T : Y -> X*|| sum_j |x_j| |y_j|.  The
    largest bound over a few T is kept.  The polar factor P Q^T of E's SVD
    makes it the nuclear norm of E on Hilbert factors (Ryan 2002, section
    2.2).  On X = l1 the duality maps of E's rows in Y make it
    sum_i |row_i|_Y, which is the projective norm of l1 (x) Y = l1(Y); on
    Y = l1 those of the columns in X give sum_j |col_j|_X.
    """
    E = u.entries
    P, _, Qt = np.linalg.svd(E, full_matrices=False)
    cands = [P @ Qt]
    if u.domain.p == 1.0:
        cands.append(vn._duality_maps(u.codomain.flip().p, E))
    if u.codomain.p == 1.0:
        cands.append(vn._duality_maps(u.domain.flip().p, E.T).T)
    best = 0.0
    for T in cands:
        norm = vn.operator_norm_upper(T, u.codomain, spaces.lp(u.domain.flip().p))
        best = max(best, abs(float(np.sum(T * E))) / norm)
    return best


def _cheapest_representation(spec: SpaceSpec, u: Tensor, r: int, seed: np.ndarray,
                              budget: OptBudget | None) -> Witnessed:
    """Cheapest r-term representation over the mixings I+V of the SVD base.

    seed is the k x k mixing to start from, k = min(d, e).  Only the first k
    terms of the base are nonzero, so right-multiplying the last r - k
    columns of I+V by an invertible H changes no term.  With H the inverse
    of the lower-right block of I+V, that block becomes I; so V's
    lower-right (r - k) x (r - k) block is held at 0 and the search runs
    over the rest.  The value is the certified cost strong(spec) x
    strong(dual spec); the search stops at the trace-duality lower bound,
    carried as certified_bound, and a value that meets it is "exact".
    """
    dual_spec = _require_dual(spec)
    E = u.entries
    if not np.any(E):
        return Witnessed(value=0.0, witness=np.zeros(0), bound_direction="exact",
                         converged=True, certified_bound=0.0)
    k = min(E.shape)
    X0, Y0 = _base_factors(E, r)
    free = np.ones((r, r), dtype=bool)
    free[k:, k:] = False

    def mixing(flat):
        V = np.zeros(flat.shape[:-1] + (r, r))
        V[..., free] = flat
        return V

    def objective(flat):
        Xm, Ym, ok = _mixed_block(X0, Y0, mixing(flat))
        return np.where(ok, _block_cost(spec, dual_spec, u, Xm, Ym), math.inf)

    start = np.zeros((r, r))
    start[:k, :k] = np.reshape(seed, (k, k))
    domain = optim.free_domain(int(free.sum()), scale=0.4, label="mixing")
    res = optim.minimize_over_family(objective, domain, budget=budget, seeds=[start[free]],
                                     target=_projective_lower(u))
    Xm, Ym, _ = _mixed_block(X0, Y0, mixing(res.witness))
    rep = Representation(blocks=((VectorSequence(u.domain, Xm),
                                  VectorSequence(u.codomain, Ym)),))
    _require_reconstructs(rep, u)
    res.details["representation"] = rep
    return res


def gamma_lambda(spec: SpaceSpec, u: Tensor, budget: OptBudget | None = None) -> Witnessed:
    """Representation cost in k = min(d, e) terms, minimized over exact
    factorizations.

    The search starts at the SVD factorization itself (a zero mixing).  The
    reported value uses the certified cost strong(spec) x strong(dual spec)
    and is a true upper bound.  The search stops at the trace-duality lower
    bound, carried as certified_bound; a value that meets it is "exact", as
    on Hilbert factors with spec lp(2), where the SVD seed attains it.  The
    witness is the flat k x k mixing; the representation is one block of k
    terms.
    """
    k = min(u.entries.shape)
    return _cheapest_representation(spec, u, k, np.zeros(k * k), budget)


def gamma_lambda_c(spec: SpaceSpec, u: Tensor, blocks: int = 3,
                   budget: OptBudget | None = None,
                   single_block: Witnessed | None = None) -> Witnessed:
    """Convexified representation cost: gamma_lambda's search over
    blocks x min(d, e) terms.

    Any sum of `blocks` representations of k = min(d, e) terms is one exact
    factorization in blocks x k terms (Ryan 2002, sections 2.2-2.3), so the
    search runs over those directly.  It starts at the gamma_lambda witness
    (computed here when single_block is not passed) in the top-left k x k
    corner of the mixing, which is the same representation, so the value
    never exceeds gamma_lambda's beyond float noise.  It stops at the same
    certified lower bound.  The representation is one block of blocks x k
    terms.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    if single_block is None:
        single_block = gamma_lambda(spec, u, budget=budget)
    return _cheapest_representation(spec, u, blocks * min(u.entries.shape),
                                    single_block.witness, budget)


def injective_norm(u: Tensor, budget: OptBudget | None = None) -> Witnessed:
    """sup of |f^T E g| over the two dual balls: the norm of E from the
    codomain's dual into the domain, by operator_norm.  The witness is (f, g),
    with g operator_norm's witness and f the functional that norms E g."""
    E = u.entries
    op = vn.operator_norm(E, u.codomain.flip(), spaces.lp(u.domain.p), budget)
    g = op.witness
    f = vn._duality_maps(u.domain.flip().p, (E @ g)[None])[0]
    return replace(op, witness=np.concatenate([f, g]))


@dataclass(frozen=True)
class TraceReport:
    phi_value: float
    chain_bound: float
    ok: bool
    ratio: float | None

    def __iter__(self):
        yield from (self.phi_value, self.chain_bound, self.ok, self.ratio)


def trace_duality_check(spec: SpaceSpec, T: OperatorMatrix, u: Tensor,
                        rep: Representation,
                        gamma_c_value: float | None = None) -> TraceReport:
    """Evaluate the trace pairing of T against u and its per-block bound.

    T maps the second factor space into the dual of the first; the pairing
    sums x . (T y) over the representation.  The bound chains absolute values
    through the vector-space duality and then the scalar-space duality per
    block, so it holds for every exact representation.  When a convexified
    upper value is supplied (or computed), the ratio |phi| / gamma_c is a
    sound lower bound for the mid-summing constant of T in the dual space.
    """
    dual_spec = _require_dual(spec)
    _require_reconstructs(rep, u)
    if T.domain.dim != u.codomain.dim or T.codomain.dim != u.domain.dim:
        raise ValueError("operator dimensions do not match the tensor factors")
    phi = 0.0
    bound = 0.0
    dual_oracle = u.domain.flip()
    for xs, ys in rep.blocks:
        imgs = ys.vectors @ T.entries.T  # row j holds T y_j, an X* vector
        phi += float(np.sum(xs.vectors * imgs))
        img_strong = evaluate_norm(dual_spec, vn.row_lengths(dual_oracle, imgs))
        bound += img_strong * vn.strong_norm(spec, xs)
    ok = not optim.exceeds(abs(phi), bound)
    ratio = None
    if gamma_c_value is None:
        gamma_c_value = gamma_lambda_c(spec, u).value
    if gamma_c_value > 1e-12:
        ratio = abs(phi) / gamma_c_value
    return TraceReport(phi_value=phi, chain_bound=bound, ok=ok, ratio=ratio)
