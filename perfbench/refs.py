"""Reference values and membership tests the benchmark computes on its own.

Nothing here calls seqsum: every formula is re-derived from the definitions,
with plain Python floats, math.fsum and max-scaling so that no power
overflows or underflows.  The matrix references use eigvalsh of the Gram
matrix or the 2x2 closed forms, never the SVD the library itself uses.

check_refs.py compares these functions with the brute-force oracles in
tests/oracles.py on small inputs.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

# Checks are made to this relative resolution: values that agree this far
# agree to float noise, and a reference gap below it is reported as this value.
NOISE = 1e-10
# Slack a witness may have on its unit-ball constraint, as in seqsum's balls.
MEMBER_TOL = 1e-9


# ---------------------------------------------------------------------------
# Scalar norms


def weights(prefix, tail, n: int) -> list[float]:
    """First n terms of a weight sequence: explicit prefix, then a tail rule."""
    L = len(prefix)
    last = float(prefix[-1])
    kind, _, param = (tail or "").partition(":")
    out = []
    for j in range(1, n + 1):
        if j <= L:
            out.append(float(prefix[j - 1]))
        elif kind == "geometric":
            out.append(last * float(param) ** (j - L))
        elif kind == "power":
            out.append(last * (j / L) ** float(param))
        elif kind == "sqrt":
            out.append(last * math.sqrt(j / L))
        else:
            out.append(last)
    return out


def _moduli(x) -> list[float]:
    return [abs(float(v)) for v in np.ravel(np.asarray(x, dtype=float))]


def _pnorm(mods: list[float], p: float) -> float:
    top = max(mods, default=0.0)
    if top == 0.0:
        return 0.0
    if math.isinf(p):
        return top
    if p == 1.0:
        return math.fsum(mods)
    return top * math.fsum((a / top) ** p for a in mods) ** (1.0 / p)


def _orlicz_value(fn, t: float) -> float:
    if fn.kind == "power":
        return t ** fn.p
    if fn.kind == "power_log":
        return t ** fn.p * math.log1p(t)
    ts = [float(a) for a, _ in fn.points]
    ms = [float(b) for _, b in fn.points]
    if t >= ts[-1]:
        return ms[-1] + (ms[-1] - ms[-2]) / (ts[-1] - ts[-2]) * (t - ts[-1])
    i = bisect.bisect_right(ts, t) - 1
    return ms[i] + (ms[i + 1] - ms[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])


def _luxemburg(mods: list[float], fns: list) -> float:
    """Smallest k with sum_j M_j(a_j / k) <= 1, bisected on a fresh bracket."""
    if not any(mods):
        return 0.0
    fns = fns + [fns[-1]] * (len(mods) - len(fns))

    def excess(k):
        return math.fsum(_orlicz_value(fn, a / k) for fn, a in zip(fns, mods)) > 1.0

    hi = max(mods)
    while excess(hi):
        hi *= 2.0
    lo = hi
    while not excess(lo):
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid):
            lo = mid
        else:
            hi = mid
    return hi


def nu_level(w: list[float], p: float, y) -> float:
    """Garling nu norm by the level function (Halperin; Sinnamon 1994).

    Pool adjacent violators on the decreasing rearrangement against the
    weights makes the block ratios Y_B / W_B nonincreasing; then
    nu(y)^q = sum_B W_B (Y_B / W_B)^q, and at p = 1 nu(y) = max_B Y_B / W_B.
    """
    yh = sorted((a for a in _moduli(y) if a > 0.0), reverse=True)
    blocks: list[list[float]] = []
    for yv, wv in zip(yh, w):
        Y, W = yv, wv
        while blocks and blocks[-1][0] / blocks[-1][1] <= Y / W:
            Y0, W0 = blocks.pop()
            Y, W = Y + Y0, W + W0
        blocks.append([Y, W])
    if not blocks:
        return 0.0
    top = max(Y / W for Y, W in blocks)
    if p == 1.0:
        return top
    q = p / (p - 1.0)
    return top * math.fsum(W * (Y / W / top) ** q for Y, W in blocks) ** (1.0 / q)


def norm(spec, x) -> float:
    """Reference value of evaluate_norm(spec, x) for every family."""
    mods = _moduli(x)
    fam = spec.family
    if fam == "lp":
        return _pnorm(mods, spec.p)
    if fam == "c0":
        return max(mods, default=0.0)
    if fam == "orlicz":
        M = spec.orlicz
        fns = list(M) if isinstance(M, tuple) else [M]
        return _luxemburg(mods, fns)
    ah = sorted((a for a in mods if a > 0.0), reverse=True)
    k = len(ah)
    if k == 0:
        return 0.0
    wp = spec.weights
    if fam in ("lorentz", "garling_mu"):
        w = weights(wp.prefix, wp.tail, k)
        top = ah[0]
        return top * math.fsum(wj * (a / top) ** spec.p
                               for wj, a in zip(w, ah)) ** (1.0 / spec.p)
    if fam == "garling_nu":
        return nu_level(weights(wp.prefix, wp.tail, k), spec.p, ah)
    if fam == "sargent_m":
        phi = weights(wp.prefix, wp.tail, k)
        return max(math.fsum(ah[: j + 1]) / phi[j] for j in range(k))
    if fam == "sargent_n":
        # the largest k increments of the scale; a window well past the
        # prefix holds them, since the tails' increments do not grow
        phi = weights(wp.prefix, wp.tail, len(wp.prefix) + k + 32)
        inc = sorted((b - a for a, b in zip([0.0] + phi, phi)), reverse=True)
        return math.fsum(a * d for a, d in zip(ah, inc))
    raise ValueError(f"no reference for family {fam!r}")


def dual_norm(spec, y) -> float:
    """Reference Koethe-dual norm sup{sum |x_j y_j| : ||x|| <= 1}."""
    fam = spec.family
    mods = _moduli(y)
    if fam == "lp":
        return _pnorm(mods, conj(spec.p))
    if fam == "c0":
        return _pnorm(mods, 1.0)
    if fam == "orlicz" and not isinstance(spec.orlicz, tuple) and spec.orlicz.kind == "power":
        return _pnorm(mods, conj(spec.orlicz.p))
    wp = spec.weights
    k = sum(1 for a in mods if a > 0.0)
    if fam in ("lorentz", "garling_mu"):
        return nu_level(weights(wp.prefix, wp.tail, k), spec.p, mods)
    if fam == "garling_nu":
        return norm(type(spec)(family="garling_mu", p=spec.p, weights=wp), mods)
    if fam == "sargent_m":
        return norm(type(spec)(family="sargent_n", weights=wp), mods)
    if fam == "sargent_n":
        return norm(type(spec)(family="sargent_m", weights=wp), mods)
    raise ValueError(f"no dual reference for {fam!r}")


# ---------------------------------------------------------------------------
# Matrices


def conj(p: float) -> float:
    return math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def vec_norm(v, r: float) -> float:
    return _pnorm(_moduli(v), r)


def sigma_max(M) -> float:
    """Largest singular value from the Gram matrix's top eigenvalue."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.any(M):
        return 0.0
    s = float(np.max(np.abs(M)))
    A = M / s
    G = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    return s * math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))


def frobenius(M) -> float:
    return _pnorm(_moduli(M), 2.0)


def nuclear_2x2(M) -> float:
    """sigma_1 + sigma_2 = sqrt(||M||_F^2 + 2 |det M|) for a 2x2 matrix."""
    M = np.asarray(M, dtype=float)
    s = float(np.max(np.abs(M)))
    if s == 0.0:
        return 0.0
    (a, b), (c, d) = M / s
    return s * math.sqrt(a * a + b * b + c * c + d * d + 2.0 * abs(a * d - b * c))


def signs(k: int):
    return [np.array(s) for s in itertools.product((1.0, -1.0), repeat=k)]


def op_norm_bound(T, r: float, p: float) -> tuple[float, bool]:
    """(bound, exact) for the norm of T: l_r^d -> l_p^m, T of shape (m, d).

    Exact where a formula exists: a vertex enumeration for r in {1, inf},
    and sigma_max, the row maximum or a sign enumeration for r = 2 with
    p in {2, inf, 1}.  Otherwise a certified upper bound: the smaller of
    Riesz-Thorin interpolation and the row-length bound |(Tx)_i| <= |T_i|_2.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    m, d = T.shape
    if r == 1.0:
        return max(vec_norm(T[:, j], p) for j in range(d)), True
    if math.isinf(r):
        return max(vec_norm(T @ s, p) for s in signs(d)), True
    if r != 2.0:
        raise ValueError("domain exponent must be 1, 2 or inf")
    rows = [vec_norm(row, 2.0) for row in T]
    if p == 2.0:
        return sigma_max(T), True
    if math.isinf(p):
        return max(rows), True
    if p == 1.0:
        return max(vec_norm(s @ T, 2.0) for s in signs(m)), True
    sv = sigma_max(T)
    if p > 2.0:
        t = 2.0 / p
        interp = sv ** t * max(rows) ** (1.0 - t)
    else:
        th = 2.0 / p - 1.0
        interp = op_norm_bound(T, 2.0, 1.0)[0] ** th * sv ** (1.0 - th)
    return min(interp, _pnorm(rows, p)), False


def in_unit_ball(bound: float) -> bool:
    return bound <= 1.0 + MEMBER_TOL


def weak_ref(X, r: float, p: float) -> float | None:
    """Weak norm of the rows of X (in l_r) against lp(p), where it is known.

    sup over the dual ball of |(<x_i, f>)_i|_p: a maximum over the vertices
    of that ball for r in {1, inf}, sigma_max for r = p = 2, and a sign
    enumeration for r = 2, p = 1.
    """
    bound, exact = op_norm_bound(X, conj(r), p)
    return bound if exact else None


def rel_gap(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(ref), 1e-300)
