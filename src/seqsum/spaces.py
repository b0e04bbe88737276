"""Scalar sequence-space norms over finite truncations.

Every evaluator works on finitely supported sequences, where the defining
formulas are exact.  Supported families: lp, Orlicz (Luxemburg gauge, with an
optional per-coordinate list of Orlicz functions), the two Garling families
(mu, a weighted rearranged sum of Lorentz type, and its Kothe dual nu,
computed by Halperin's level function), the two Sargent families, and c0 with
the sup norm.  lorentz(w, p) is another name for garling_mu(w, p).

Conventions: a finite sequence is any 1-d array-like of reals; the zero tail
is implicit, so trailing zeros never change a norm.  All norms here are
symmetric (permutation invariant) and normal (monotone under coordinatewise
domination of moduli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optim

__all__ = [
    "SpecValidationError",
    "OrliczFunction",
    "WeightSeq",
    "SpaceSpec",
    "lp",
    "c0",
    "orlicz",
    "lorentz",
    "garling_mu",
    "garling_nu",
    "sargent_m",
    "sargent_n",
    "decreasing_rearrangement",
    "evaluate_norm",
    "evaluate_norms",
    "unit_vector_norm",
    "kothe_dual_spec",
    "dual_norm",
    "space_ball",
    "nip_check",
    "NipReport",
    "conjugate_exponent",
]

_FAMILIES = (
    "lp",
    "orlicz",
    "garling_mu",
    "garling_nu",
    "sargent_m",
    "sargent_n",
    "c0",
)

# a Luxemburg gauge stops within _GAUGE_TOL of its root, relative, and steps
# out by _GAUGE_MARGIN, which exceeds the rounding of its modular
_GAUGE_TOL = 2.0**-42
_GAUGE_MARGIN = 2.0**-46


class SpecValidationError(ValueError):
    """A space description violates its family's constraints."""


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Orlicz functions


@dataclass(frozen=True)
class OrliczFunction:
    """Convex gauge function M with M(0) = 0, nondecreasing, M(t) > 0 for t > 0.

    kinds:
      power      M(t) = t**p, p >= 1
      power_log  M(t) = t**p * log(1 + t), p >= 1
      tabulated  convex piecewise-linear interpolation of (t, M(t)) breakpoints,
                 extended past the last breakpoint with the final slope
    """

    kind: str
    p: float | None = None
    points: tuple[tuple[float, float], ...] | None = None
    # Set by __post_init__: _gauge = (u, r) for the gauge solver, with
    # M(u) >= 1 and M^(1/r) convex: r = p for a power and for power_log,
    # whose (t**p log(1 + t))^(1/p) is convex, and 1 for a table.  _table
    # holds a table's interior breakpoints, breakpoints, values and slopes.
    _gauge: tuple[float, float] = field(init=False, repr=False, compare=False)
    _table: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def __post_init__(self):
        if self.kind in ("power", "power_log"):
            if self.p is None or not (self.p >= 1.0) or math.isinf(self.p):
                raise SpecValidationError(
                    f"orlicz {self.kind} needs a finite exponent p >= 1, got {self.p!r}"
                )
            # M(2^(1/p)) = 2 log(1 + 2^(1/p)) > 1 for power_log
            unit = 1.0 if self.kind == "power" else 2.0 ** (1.0 / self.p)
            object.__setattr__(self, "_gauge", (unit, self.p))
        elif self.kind == "tabulated":
            pts = self.points
            if not pts or len(pts) < 2:
                raise SpecValidationError("tabulated orlicz needs at least 2 breakpoints")
            ts = np.array([float(t) for t, _ in pts])
            ms = np.array([float(m) for _, m in pts])
            if ts[0] != 0.0 or ms[0] != 0.0:
                raise SpecValidationError("tabulated orlicz must start at (0, 0)")
            if np.any(ts[1:] <= ts[:-1]):
                raise SpecValidationError("tabulated breakpoints must be strictly increasing in t")
            with np.errstate(over="ignore", invalid="ignore"):
                slopes = np.diff(ms) / np.diff(ts)
            if not np.all(np.isfinite(slopes)):
                raise SpecValidationError("tabulated orlicz needs finite slopes")
            if np.any(slopes < -1e-12):
                raise SpecValidationError("tabulated orlicz must be nondecreasing")
            if np.any(slopes[1:] < slopes[:-1] - 1e-12):
                raise SpecValidationError("tabulated orlicz must be convex (nondecreasing slopes)")
            if np.any(ms[1:] <= 0.0):
                raise SpecValidationError("tabulated orlicz must be positive for t > 0")
            object.__setattr__(self, "_table", (ts[1:-1], ts, ms, slopes))
            # the root of M(u) = 1, up to rounding
            i = min(int(np.searchsorted(ms, 1.0)), ts.size - 1) - 1
            object.__setattr__(self, "_gauge", (float(ts[i] + (1.0 - ms[i]) / slopes[i]), 1.0))
        else:
            raise SpecValidationError(f"unknown orlicz kind {self.kind!r}")

    def __call__(self, t):
        return self._terms(np.asarray(t, dtype=float))[0]

    def _terms(self, t):
        """M(t) and t M'(t), with M' the left derivative on a table."""
        if self.kind == "power":
            m = t**self.p
            return m, self.p * m
        if self.kind == "power_log":
            tp = t**self.p
            m = tp * np.log1p(t)
            return m, self.p * m + tp * t / (1.0 + t)
        inner, ts, ms, slopes = self._table
        # the segment left of each t, and the last one past the table
        i = np.searchsorted(inner, t)
        return ms[i] + slopes[i] * (t - ts[i]), t * slopes[i]

    def to_json(self):
        if self.kind == "tabulated":
            return {"kind": "tabulated", "points": [list(q) for q in self.points]}
        return {"kind": self.kind, "p": self.p}

    @classmethod
    def from_json(cls, data) -> "OrliczFunction":
        kind = data.get("kind")
        if kind == "tabulated":
            return cls(kind="tabulated", points=tuple(tuple(map(float, q)) for q in data["points"]))
        return cls(kind=kind, p=float(data["p"]))


# ---------------------------------------------------------------------------
# Weight sequences: explicit prefix plus a named tail rule


@dataclass(frozen=True)
class WeightSeq:
    """Weight sequence stored as an explicit prefix plus a tail rule.

    The tail continues from the last prefix entry w_L at index L:
      geometric:r   w_j = w_L * r**(j - L)
      power:e       w_j = w_L * (j / L)**e   (signed exponent)
      sqrt          w_j = w_L * sqrt(j / L)
      none          w_j = w_L
    """

    prefix: tuple[float, ...] = (1.0,)
    tail: str | None = None

    def __post_init__(self):
        if not self.prefix:
            raise SpecValidationError("weight prefix must be nonempty")
        if any(not math.isfinite(w) for w in self.prefix):
            raise SpecValidationError("weight prefix entries must be finite")
        self._tail_kind_param()  # validates syntax

    def _tail_kind_param(self):
        if self.tail is None:
            return ("constant", None)
        parts = self.tail.split(":")
        if parts[0] == "sqrt" and len(parts) == 1:
            return ("sqrt", None)
        if parts[0] in ("geometric", "power") and len(parts) == 2:
            try:
                val = float(parts[1])
            except ValueError:
                raise SpecValidationError(f"bad tail rule parameter in {self.tail!r}") from None
            if not math.isfinite(val):
                raise SpecValidationError(f"tail rule parameter must be finite in {self.tail!r}")
            if parts[0] == "geometric" and val <= 0:
                raise SpecValidationError("geometric tail ratio must be positive")
            return (parts[0], val)
        raise SpecValidationError(f"unknown tail rule {self.tail!r}")

    def materialize(self, n: int) -> np.ndarray:
        n = int(n)
        out = np.empty(max(n, 0))
        L = len(self.prefix)
        k = min(n, L)
        out[:k] = self.prefix[:k]
        if n > L:
            kind, val = self._tail_kind_param()
            j = np.arange(L + 1, n + 1, dtype=float)
            last = self.prefix[-1]
            if kind == "geometric":
                out[L:] = last * val ** (j - L)
            elif kind == "power":
                out[L:] = last * (j / L) ** val
            elif kind == "sqrt":
                out[L:] = last * np.sqrt(j / L)
            else:
                out[L:] = last
        return out

    def to_json(self):
        return {"prefix": list(self.prefix), "tail": self.tail}

    @classmethod
    def from_json(cls, data) -> "WeightSeq":
        if isinstance(data, str):
            return cls(prefix=(1.0,), tail=None if data in ("", "none") else data)
        if isinstance(data, (list, tuple)):
            return cls(prefix=tuple(float(w) for w in data), tail=None)
        prefix = tuple(float(w) for w in data.get("prefix", (1.0,)))
        tail = data.get("tail")
        return cls(prefix=prefix, tail=tail)


def _validate_decreasing_weights(w: WeightSeq, label: str):
    pre = w.prefix
    if abs(pre[0] - 1.0) > 1e-12:
        raise SpecValidationError(f"{label} weights must start at 1, got {pre[0]}")
    if any(x <= 0 for x in pre):
        raise SpecValidationError(f"{label} weights must be positive")
    if any(b > a + 1e-12 for a, b in zip(pre, pre[1:])):
        raise SpecValidationError(f"{label} weights must be nonincreasing")
    kind, val = w._tail_kind_param()
    if kind == "sqrt" or (kind == "geometric" and val > 1.0) or (kind == "power" and val > 0):
        raise SpecValidationError(f"{label} tail rule {w.tail!r} would grow; weights must decay")


def _validate_scale_weights(w: WeightSeq, label: str):
    # scale sequences phi: 0 < phi_1 <= phi_j <= phi_{j+1} and (j+1) phi_j > j phi_{j+1}
    pre = w.prefix
    if pre[0] <= 0:
        raise SpecValidationError(f"{label} scale must start positive")
    for j, (a, b) in enumerate(zip(pre, pre[1:]), start=1):
        if b < a - 1e-12:
            raise SpecValidationError(f"{label} scale must be nondecreasing")
        if (j + 1) * a <= j * b:
            raise SpecValidationError(
                f"{label} scale violates (j+1)*phi_j > j*phi_(j+1) at j={j}"
            )
    kind, val = w._tail_kind_param()
    ok = (
        kind == "constant"
        or kind == "sqrt"
        or (kind == "power" and 0 < val < 1)
        or (kind == "geometric" and val == 1.0)
    )
    if not ok:
        raise SpecValidationError(
            f"{label} tail rule {w.tail!r} invalid; use sqrt, power:e with 0<e<1, or a constant tail"
        )


# ---------------------------------------------------------------------------
# Space descriptors


@dataclass(frozen=True)
class SpaceSpec:
    family: str
    p: float | None = None
    weights: WeightSeq | None = None
    orlicz: OrliczFunction | tuple[OrliczFunction, ...] | None = None

    def __post_init__(self):
        fam = self.family
        if fam not in _FAMILIES:
            raise SpecValidationError(f"unknown family {fam!r}")
        if fam == "lp":
            if self.p is None or not (self.p >= 1.0):
                raise SpecValidationError(f"lp needs p >= 1 or inf, got {self.p!r}")
        elif fam == "c0":
            pass
        elif fam == "orlicz":
            M = self.orlicz
            if M is None:
                raise SpecValidationError("orlicz spec needs an Orlicz function")
            if isinstance(M, tuple):
                if not M:
                    raise SpecValidationError("orlicz function list must be nonempty")
                for f in M:
                    if not isinstance(f, OrliczFunction):
                        raise SpecValidationError("orlicz list entries must be OrliczFunction")
            elif not isinstance(M, OrliczFunction):
                raise SpecValidationError("orlicz spec needs an OrliczFunction")
        elif fam in ("garling_mu", "garling_nu"):
            if self.weights is None or self.p is None or not (1.0 <= self.p < math.inf):
                raise SpecValidationError(f"{fam} needs weights and finite p >= 1")
            _validate_decreasing_weights(self.weights, fam)
        elif fam in ("sargent_m", "sargent_n"):
            if self.weights is None:
                raise SpecValidationError(f"{fam} needs a scale sequence")
            _validate_scale_weights(self.weights, fam)

    def label(self) -> str:
        if self.family == "lp":
            return "lp(inf)" if math.isinf(self.p) else f"lp({self.p:g})"
        if self.family == "c0":
            return "c0"
        if self.family == "orlicz":
            M = self.orlicz
            if isinstance(M, tuple):
                return f"orlicz[{len(M)} fns]"
            return f"orlicz({M.kind}{'' if M.p is None else f':{M.p:g}'})"
        w = self.weights
        tail = w.tail or "const"
        if self.family in ("sargent_m", "sargent_n"):
            return f"{self.family}({tail})"
        return f"{self.family}({tail},p={self.p:g})"

    def to_json(self):
        params: dict = {}
        if self.family == "lp":
            params["p"] = "inf" if math.isinf(self.p) else self.p
        elif self.family == "orlicz":
            M = self.orlicz
            params["M"] = [f.to_json() for f in M] if isinstance(M, tuple) else M.to_json()
        elif self.family in ("garling_mu", "garling_nu"):
            params["weights"] = self.weights.to_json()
            params["p"] = self.p
        elif self.family in ("sargent_m", "sargent_n"):
            params["weights"] = self.weights.to_json()
        return {"family": self.family, "params": params}

    @classmethod
    def from_json(cls, data) -> "SpaceSpec":
        """Parse a to_json body; a body of the wrong shape is a SpecValidationError."""
        try:
            fam = data["family"]
            params = data.get("params", {})
            if fam == "lp":
                raw = params.get("p")
                p = math.inf if raw in ("inf", "Infinity") else float(raw)
                return lp(p)
            if fam == "c0":
                return c0()
            if fam == "orlicz":
                M = params.get("M")
                if isinstance(M, list):
                    return orlicz(tuple(OrliczFunction.from_json(f) for f in M))
                return orlicz(OrliczFunction.from_json(M))
            if fam == "lorentz":
                fam = "garling_mu"  # the same norm under its older name
            if fam in ("garling_mu", "garling_nu"):
                w = WeightSeq.from_json(params.get("weights"))
                p = float(params.get("p"))
                return cls(family=fam, p=p, weights=w)
            if fam in ("sargent_m", "sargent_n"):
                return cls(family=fam, weights=WeightSeq.from_json(params.get("weights")))
        except SpecValidationError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecValidationError(f"malformed space spec {data!r}: {exc}") from exc
        raise SpecValidationError(f"unknown family {fam!r}")


def lp(p: float) -> SpaceSpec:
    return SpaceSpec(family="lp", p=float(p))


def c0() -> SpaceSpec:
    return SpaceSpec(family="c0")


def orlicz(M) -> SpaceSpec:
    if isinstance(M, (list, tuple)):
        return SpaceSpec(family="orlicz", orlicz=tuple(M))
    return SpaceSpec(family="orlicz", orlicz=M)


def lorentz(weights: WeightSeq, p: float) -> SpaceSpec:
    """The Lorentz-type space, which is garling_mu(weights, p)."""
    return garling_mu(weights, p)


def garling_mu(weights: WeightSeq, p: float) -> SpaceSpec:
    return SpaceSpec(family="garling_mu", p=float(p), weights=weights)


def garling_nu(weights: WeightSeq, p: float) -> SpaceSpec:
    return SpaceSpec(family="garling_nu", p=float(p), weights=weights)


def sargent_m(weights: WeightSeq) -> SpaceSpec:
    return SpaceSpec(family="sargent_m", weights=weights)


def sargent_n(weights: WeightSeq) -> SpaceSpec:
    return SpaceSpec(family="sargent_n", weights=weights)


# ---------------------------------------------------------------------------
# Evaluators


def _sequence(coeffs) -> np.ndarray:
    """A sequence as a float array; anything but a 1-d array is refused."""
    x = np.asarray(coeffs, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"a sequence must be a 1-d array, not {x.ndim}-d")
    return x


def decreasing_rearrangement(coeffs) -> np.ndarray:
    """Moduli sorted in nonincreasing order.

    Ties keep the order of their original indices, so the result is a
    deterministic function of the input.
    """
    m = np.abs(_sequence(coeffs))
    if not np.all(np.isfinite(m)):
        raise ValueError("sequence entries must be finite")
    order = np.argsort(-m, kind="stable")
    return m[order]


def _pow2_floor(mx):
    """Largest power of two at or below each positive maximum, subnormals
    included, and 1/2 for a zero; dividing by it and multiplying back are
    exact unless a result underflows."""
    return np.ldexp(0.5, np.frexp(mx)[1])


def _orlicz_groups(fns, n: int):
    """(M_j, columns): the j-th of fns, the last one repeated, or fns itself."""
    if isinstance(fns, OrliczFunction):
        return [(fns, slice(None))]
    m = min(len(fns), n)
    return ([(f, slice(j, j + 1)) for j, f in enumerate(fns[:m - 1])]
            + [(fns[m - 1], slice(m - 1, None))])


def _modular_terms(groups, T):
    """M_j(t) and t M_j'(t) for each entry t of the 2-d stack T."""
    if len(groups) == 1:
        return groups[0][0]._terms(T)
    M, D = np.empty_like(T), np.empty_like(T)
    for f, cols in groups:
        M[:, cols], D[:, cols] = f._terms(T[:, cols])
    return M, D


def _luxemburg(A: np.ndarray, fns) -> np.ndarray:
    """Luxemburg gauge of each row of a finite, nonnegative 2-d array: the
    least k with sum_j M_j(a_j / k) <= 1, with M_j the j-th of fns (the last
    one repeated), or fns itself.

    Each row is divided by a power of two at or below its maximum, which is
    exact and keeps every power finite.  In s = 1/k the modular
    F(s) = sum_j M_j(a_j s) is convex and increasing, and so is G = F^(1/r),
    with r the least of the functions' r, as each M_j^(1/r) is convex.
    Newton steps on G(s) = 1 start where some a_j s reaches its unit, right
    of the root, and fall to it.  G is close to linear for powers and
    power_log, and on a table it is piecewise linear, so the step from the
    segment that holds the root lands on it.  A row stops on its own once
    G <= 1 + _GAUGE_TOL, where s is within that of the root, relative (G is
    convex with G(0) = 0), or once a step no longer moves s left, which
    rounding alone can cause.  Then s / max(G, 1) is at or left of the root,
    for the same reason, and k is its inverse raised by _GAUGE_MARGIN
    against rounding: the modular at k is at most 1.
    """
    out = np.zeros(A.shape[0])
    mx = A.max(axis=-1)
    rows = np.flatnonzero(mx)
    scale = _pow2_floor(mx[rows])
    a = A[rows] / scale[:, None]
    groups = _orlicz_groups(fns, A.shape[-1])
    units = np.empty(A.shape[-1])
    for f, cols in groups:
        units[cols] = f._gauge[0]
    r = min(f._gauge[1] for f, _ in groups)
    # the least s at which some a_j s reaches its unit, where F(s) >= 1
    s = 1.0 / (a / units).max(axis=-1)
    while rows.size:
        M, D = _modular_terms(groups, a * s[:, None])
        F, H = M.sum(axis=-1), D.sum(axis=-1)
        G = F ** (1.0 / r)
        # the Newton step on G, whose derivative is G H / (r F s)
        s_next = s - s * (r * F * (1.0 - 1.0 / G) / H)
        stop = (G <= 1.0 + _GAUGE_TOL) | ~(s_next < s)
        if stop.any():
            out[rows[stop]] = scale[stop] * (np.maximum(G[stop], 1.0) / s[stop]
                                             * (1.0 + _GAUGE_MARGIN))
            go = ~stop
            rows, scale, a, s_next = rows[go], scale[go], a[go], s_next[go]
        s = s_next
    return out


def _sargent_delta_top(weights: WeightSeq, nnz: int) -> np.ndarray:
    # Largest nnz increments of the scale sequence.  The window covers the
    # whole stored prefix plus nnz rule-generated terms; beyond that the rule
    # tails have nonincreasing increments, so no larger increment exists.
    W = len(weights.prefix) + nnz
    phi = weights.materialize(W)
    delta = np.diff(phi, prepend=0.0)
    return np.sort(delta)[::-1][:nnz]


def _pnorm(A: np.ndarray, p: float, weights: np.ndarray | None = None) -> np.ndarray:
    """(sum_j w_j a_j^p)^(1/p) along the last axis of a nonnegative array.

    Each row is computed as mx (sum_j w_j (a_j/mx)^p)^(1/p), with mx its
    maximum rounded down to a power of two, so no power overflows or
    underflows: a nonzero row never gets norm 0 and a representable norm is
    never inf.  Dividing and multiplying by a power of two is exact, so for
    p = 2 the bits are those of the unscaled formula wherever it is finite.
    Each term (a_j/mx)^p is then below 2^p, so n terms can overflow only when
    p + log2(n) >= 1024; only there is each row divided by its maximum
    itself, which puts every term at or below 1.
    """
    if p == 1.0:
        return np.add.reduce(A if weights is None else weights * A, axis=-1)
    mx = np.maximum.reduce(A, axis=-1, keepdims=True)
    if math.isinf(p):
        return mx[..., 0]
    if p + math.log2(max(A.shape[-1], 1)) < 1024.0:
        # a zero row is divided by 1/2 and keeps norm 0
        scale = _pow2_floor(mx)
    else:
        scale = np.where(mx > 0.0, mx, 1.0)
    t = (A / scale) ** p
    if weights is not None:
        t = weights * t
    # the power acts on an array even for one row, so a bare row has the bits
    # it has inside a stack (a 0-d power takes the scalar pow path)
    return (scale * np.add.reduce(t, axis=-1, keepdims=True) ** (1.0 / p))[..., 0]


def _level_blocks(yhat: np.ndarray, w: np.ndarray):
    """Halperin's level function of one nonincreasing, nonnegative row.

    Pool adjacent violators on yhat against the weights until the block
    ratios Y_B / W_B decrease.  The row is first divided by scale, a power
    of two at or below its maximum, so no block sum overflows or
    underflows.  Returns scale and the block sums Y_B (of yhat / scale) and
    W_B, and the block sizes, in order.
    """
    scale = _pow2_floor(yhat[0])
    Ys, Ws, sizes = [], [], []
    for Y, W in zip((yhat / scale).tolist(), w.tolist()):
        size = 1
        while Ys and Ys[-1] * W <= Y * Ws[-1]:
            Y += Ys.pop()
            W += Ws.pop()
            size += sizes.pop()
        Ys.append(Y)
        Ws.append(W)
        sizes.append(size)
    return scale, Ys, Ws, sizes


def _level_nu(yhat: np.ndarray, w: np.ndarray, q: float) -> float:
    """Garling nu norm of one nonincreasing, nonnegative row: with g the
    level function's block ratio over each block,
    nu(y)^q = sum_B W_B (Y_B / W_B)^q (Sinnamon 1994), which at q = inf is
    max_n Y_n / W_n."""
    scale, Ys, Ws, sizes = _level_blocks(yhat, w)
    g = np.repeat(np.divide(Ys, Ws), sizes)
    return float(scale * _pnorm(g, q, w))


def _orlicz_power_exponent(M) -> float | None:
    """p when M is the single function t**p, whose Luxemburg gauge is the lp
    norm (sum_j (a_j / k)^p <= 1 exactly when k >= |a|_p); else None."""
    return M.p if isinstance(M, OrliczFunction) and M.kind == "power" else None


def evaluate_norms(spec: SpaceSpec, X) -> np.ndarray:
    """Norm of each sequence along the last axis of X, one per leading index.

    Every family but Garling nu, which goes row by row, is computed for the
    whole stack at once: the Orlicz gauge of a power is the lp norm, and
    other Orlicz gauges take Newton steps on all rows together, each row
    stopping on its own.  Each row's value does not depend on the other rows.
    """
    return _norms(spec, _finite(np.abs(np.asarray(X, dtype=float))))


def _finite(A: np.ndarray) -> np.ndarray:
    """The nonnegative array A, refused unless every entry is finite."""
    # the maximum is inf or nan exactly when some entry is
    if A.size and not np.maximum.reduce(A, axis=None) < math.inf:
        raise ValueError("sequence entries must be finite")
    return A


def _norms(spec: SpaceSpec, A: np.ndarray) -> np.ndarray:
    """evaluate_norms of a stack A that is nonnegative and finite already:
    the family dispatch without the input checks."""
    n = A.shape[-1]
    if A.size == 0:
        return np.zeros(A.shape[:-1])
    fam = spec.family
    if fam == "lp":
        return _pnorm(A, spec.p)
    if fam == "c0":
        return np.maximum.reduce(A, axis=-1)
    if fam == "orlicz":
        p = _orlicz_power_exponent(spec.orlicz)
        if p is not None:
            return _pnorm(A, p)
        return _luxemburg(A.reshape(-1, n), spec.orlicz).reshape(A.shape[:-1])
    # trailing zeros of the rearrangement add nothing to any of these forms
    ahat = -np.sort(-A, axis=-1)
    if fam == "garling_nu":
        w, q = spec.weights.materialize(n), conjugate_exponent(spec.p)
        vals = [_level_nu(r, w, q) for r in ahat.reshape(-1, n)]
        return np.array(vals, dtype=float).reshape(A.shape[:-1])
    if fam == "garling_mu":
        return _pnorm(ahat, spec.p, spec.weights.materialize(n))
    if fam == "sargent_m":
        return (np.cumsum(ahat, axis=-1) / spec.weights.materialize(n)).max(axis=-1)
    if fam == "sargent_n":
        return (ahat * _sargent_delta_top(spec.weights, n)).sum(axis=-1)
    raise SpecValidationError(f"unknown family {fam!r}")


def evaluate_norm(spec: SpaceSpec, coeffs) -> float:
    """Norm of a finite sequence in the given space; the one-row evaluate_norms.

    No family runs a search: Garling nu has the closed form of the level
    function, and an Orlicz gauge other than a power's is the root of its
    modular found by Newton's method, on the feasible side and within 4e-13
    of it, relative.
    """
    return float(evaluate_norms(spec, _sequence(coeffs)[None])[0])


def unit_vector_norm(spec: SpaceSpec, n: int) -> float:
    """Norm of the n-th canonical unit vector (1-based)."""
    if n < 1:
        raise ValueError("unit vector index is 1-based")
    e = np.zeros(n)
    e[n - 1] = 1.0
    return evaluate_norm(spec, e)


# ---------------------------------------------------------------------------
# Kothe duality


def kothe_dual_spec(spec: SpaceSpec) -> SpaceSpec | None:
    """Analytic dual space description, or None when no closed form is wired in.
    Sargent M and N are duals only where phi's increments do not increase:
    past the prefix and the step into the tail, no tail rule's do."""
    fam = spec.family
    if fam in ("sargent_m", "sargent_n"):
        delta = np.diff(spec.weights.materialize(len(spec.weights.prefix) + 1), prepend=0.0)
        if np.all(delta[1:] <= delta[:-1] + 1e-12):
            other = "sargent_n" if fam == "sargent_m" else "sargent_m"
            return SpaceSpec(family=other, weights=spec.weights)
    if fam == "lp":
        return lp(conjugate_exponent(spec.p))
    if fam == "c0":
        return lp(1.0)
    if fam == "orlicz":
        p = _orlicz_power_exponent(spec.orlicz)
        return None if p is None else lp(conjugate_exponent(p))
    if fam == "garling_mu":
        return garling_nu(spec.weights, spec.p)
    if fam == "garling_nu":
        return garling_mu(spec.weights, spec.p)
    return None


def space_ball(spec: SpaceSpec, length: int) -> optim.Ball:
    """Unit ball of the space, truncated to sequences of the given length."""
    return optim.gauge_ball(lambda V: evaluate_norms(spec, V), int(length),
                            f"ball[{spec.label()}]")


def _norm_gradient(spec: SpaceSpec, A: np.ndarray) -> np.ndarray:
    """The norming map: for each row a of the finite, nonnegative 2-d stack
    A, a subgradient g >= 0 of the norm at a, zero where a is, with
    Kothe-dual norm at most 1 and sum_j g_j a_j = |a|.  lp(p), c0 and the
    Orlicz power: (a / |a|_p)^(p - 1), the first maximal entry at p = inf,
    the support at p = 1.  mu, nu and Sargent put the dual profile on the
    positions of a's decreasing rearrangement ahat: w_j (ahat_j / mu)^(p - 1);
    (g / nu)^(q - 1), g the level function, or 1 / W_1 on its first block at
    p = 1; 1 / phi_s on the first s entries, s the first maximizer of the
    partial sums over phi; the largest increments of phi.  Other Orlicz
    gauges k: M'(a/k) / sum_j (a_j/k) M'(a_j/k), in the ball of the Orlicz
    norm of M* by Young's equality M*(M'(t)) = t M'(t) - M(t).
    """
    n = A.shape[-1]
    fam = spec.family
    p = spec.p if fam == "lp" else math.inf if fam == "c0" else None
    if fam == "orlicz":
        p = _orlicz_power_exponent(spec.orlicz)
        if p is None:
            k = _luxemburg(A, spec.orlicz)[:, None]
            T = A / np.where(k > 0.0, k, 1.0)
            D = _modular_terms(_orlicz_groups(spec.orlicz, n), T)[1]
            S = D.sum(axis=-1, keepdims=True)
            return np.divide(D, T * S, out=np.zeros_like(T), where=T > 0.0)
    if p is not None:
        if p == 1.0:
            return (A > 0.0).astype(float)
        if math.isinf(p):
            return ((np.arange(n) == A.argmax(axis=-1)[:, None]) & (A > 0.0)).astype(float)
        norms = _pnorm(A, p)[:, None]
        return (A / np.where(norms > 0.0, norms, 1.0)) ** (p - 1.0)
    order = np.argsort(-A, axis=-1, kind="stable")
    ahat = np.take_along_axis(A, order, axis=-1)
    w = spec.weights.materialize(n)
    if fam == "garling_mu":
        mu = _pnorm(ahat, spec.p, w)[:, None]
        G = w * (ahat / np.where(mu > 0.0, mu, 1.0)) ** (spec.p - 1.0)
    elif fam == "garling_nu":
        G, q = np.zeros_like(ahat), conjugate_exponent(spec.p)
        for row, r in zip(G, ahat):
            _, Ys, Ws, sizes = _level_blocks(r, w)
            if spec.p == 1.0:
                row[: sizes[0]] = 1.0 / Ws[0]
            elif r[0] > 0.0:
                g = np.repeat(np.divide(Ys, Ws), sizes)
                row[:] = (g / _pnorm(g, q, w)) ** (q - 1.0)
    elif fam == "sargent_m":
        s = (np.cumsum(ahat, axis=-1) / w).argmax(axis=-1)[:, None]
        G = (np.arange(n) <= s) / w[s]
    else:
        G = _sargent_delta_top(spec.weights, n)
    out = np.zeros_like(A)
    np.put_along_axis(out, order, G * (ahat > 0.0), axis=-1)
    return out


def dual_norm(spec: SpaceSpec, coeffs, budget: optim.OptBudget | None = None,
              method: str = "auto") -> optim.Witnessed:
    """Kothe-dual norm sup { sum |alpha_j beta_j| : alpha in the unit ball }.

    Where an analytic dual space is known its norm is the exact value, and
    the witness is that dual's norming map at |beta|, projected into the
    unit ball, which attains it; methods "auto" and "analytic" return both.
    With method "optimize" the pairing is maximized over the ball from that
    one seed, with the analytic value as target and certified_bound, so the
    search stops at the seed, "exact".  With no analytic dual (an Orlicz
    gauge but a power's, Sargent with increasing increments) the search
    starts from e_top, the support, |beta| and |beta|^2: a lower bound.
    """
    if method not in ("auto", "analytic", "optimize"):
        raise ValueError(f"unknown method {method!r}")
    beta = _sequence(coeffs)
    dual = kothe_dual_spec(spec)
    if dual is None and method == "analytic":
        raise SpecValidationError(f"no analytic dual for {spec.label()}")
    if beta.size == 0 or not np.any(beta):
        return optim.Witnessed(value=0.0, witness=np.zeros(beta.size),
                               bound_direction="lower-of-sup" if dual is None else "exact",
                               converged=True)
    # the pairing and the analytic value are computed for beta / scale, with
    # scale the power of two at or below the largest modulus, subnormal or
    # not, so that no product or norm rounds to a subnormal; dividing by it
    # is exact, and so is multiplying back wherever the result is normal
    scale = float(_pow2_floor(np.abs(beta).max()))
    b = beta / scale
    target = None if dual is None else evaluate_norm(dual, b)

    def objective(alphas):
        return np.abs(alphas * b).sum(axis=-1)

    ball = space_ball(spec, beta.size)
    if dual is None:
        # seeds are directions only, so scaled moduli keep their powers finite
        mod = np.abs(beta) / np.abs(beta).max()
        seeds = ball.project(np.stack([np.arange(mod.size) == np.argmax(mod), mod > 0.0,
                                       mod, mod**2.0]))
    else:
        seeds = ball.project(_norm_gradient(dual, np.abs(b)[None]))
        if method != "optimize":
            return optim.Witnessed(value=scale * target, witness=seeds[0],
                                   bound_direction="exact", converged=True)
    res = optim.maximize_over_ball(objective, ball, budget=budget, seeds=seeds, target=target)
    res.value *= scale
    if target is not None:
        res.certified_bound = scale * target
    return res


# ---------------------------------------------------------------------------
# Norm iteration


@dataclass(frozen=True)
class NipReport:
    row_value: float
    col_value: float
    gap: float


def nip_check(spec: SpaceSpec, array) -> NipReport:
    """Compare the two iterated norms of a 2-d array.

    Rows first: the norm of the sequence of row norms.  Columns first: the
    norm of the sequence of column norms.  The gap is their absolute
    difference; no tolerance is enforced here.
    """
    A = np.asarray(array, dtype=float)
    if A.ndim != 2:
        raise ValueError("nip_check expects a 2-d array")
    rv = evaluate_norm(spec, evaluate_norms(spec, A))
    cv = evaluate_norm(spec, evaluate_norms(spec, A.T))
    return NipReport(row_value=rv, col_value=cv, gap=abs(rv - cv))
