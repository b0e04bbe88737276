"""Independent reference implementations used to freeze expected test values.

Everything here recomputes a quantity by a route the library does not take:
exhaustive enumeration over permutations or subsets, power iteration instead
of a packaged SVD, or a second root-finder.  Oracles are deliberately slow
and simple; keep supports small.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from seqsum import optim


def lorentz_perm_oracle(weights: np.ndarray, p: float, seq) -> float:
    """Maximise (sum w_j |a_sigma(j)|^p)^(1/p) over all permutations sigma."""
    a = np.abs(np.asarray(seq, dtype=float))
    a = a[a > 0]
    k = a.size
    if k == 0:
        return 0.0
    if k > 7:
        raise ValueError("support too large for permutation oracle")
    w = np.asarray(weights, dtype=float)[:k]
    best = 0.0
    for perm in itertools.permutations(range(k)):
        val = float(np.sum(w * a[list(perm)] ** p)) ** (1.0 / p)
        best = max(best, val)
    return best


def sargent_m_subset_oracle(phi: np.ndarray, seq) -> float:
    """Maximise sum_{i in S} |a_i| / phi_{|S|} over every nonempty subset S."""
    a = np.abs(np.asarray(seq, dtype=float))
    idx = [i for i in range(a.size) if a[i] > 0]
    if not idx:
        return 0.0
    if len(idx) > 12:
        raise ValueError("support too large for subset oracle")
    phi = np.asarray(phi, dtype=float)
    best = 0.0
    for k in range(1, len(idx) + 1):
        for S in itertools.combinations(idx, k):
            best = max(best, float(sum(a[i] for i in S)) / phi[k - 1])
    return best


def sargent_n_placement_oracle(phi: np.ndarray, seq, window: int | None = None,
                               full_permutations: bool = False) -> float:
    """Maximise sum |a_i| * (phi_j - phi_{j-1}) over injective placements.

    Each nonzero coordinate is assigned a distinct position j in the first
    `window` slots and collects the increment of phi there.  With
    full_permutations every assignment is tried; otherwise each subset of
    positions is paired largest-with-largest, which the rearrangement
    inequality makes optimal.
    """
    a = np.sort(np.abs(np.asarray(seq, dtype=float)))[::-1]
    a = a[a > 0]
    k = a.size
    if k == 0:
        return 0.0
    phi = np.asarray(phi, dtype=float)
    W = window if window is not None else min(phi.size, k + 8)
    if W > phi.size:
        raise ValueError("window exceeds materialised weights")
    delta = np.diff(phi[:W], prepend=0.0)
    best = 0.0
    if full_permutations:
        if k > 5 or W > 11:
            raise ValueError("too large for full permutation enumeration")
        for pos in itertools.permutations(range(W), k):
            best = max(best, float(np.sum(a * delta[list(pos)])))
        return best
    for pos in itertools.combinations(range(W), k):
        d = np.sort(delta[list(pos)])[::-1]
        best = max(best, float(np.sum(a * d)))
    return best


def luxemburg_secant_oracle(fn, seq, tol: float = 1e-12) -> float:
    """Solve sum_i fn_i(|a_i|/t) = 1 for t by bisection on a fresh bracket.

    fn is a scalar convex function with fn(0) = 0, or a list of them, one
    for each coordinate with the last one repeated, as spaces.orlicz takes
    them.  Independent of the library gauge: different bracket construction
    and termination rule.
    """
    a = np.abs(np.asarray(seq, dtype=float))
    fns = list(fn) if isinstance(fn, (list, tuple)) else [fn]
    fns += [fns[-1]] * (a.size - len(fns))
    terms = [(f, x) for f, x in zip(fns, a) if x > 0]
    if not terms:
        return 0.0

    def excess(t):
        return sum(f(x / t) for f, x in terms) - 1.0

    hi = float(np.max(a)) * max(1.0, float(a.size))
    while excess(hi) > 0:
        hi *= 2.0
    lo = hi
    while excess(lo) <= 0:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return hi


def garling_nu_partition_oracle(weights: np.ndarray, p: float, seq) -> float:
    """Garling nu norm as the best of all splits of y* into consecutive blocks.

    nu is the Kothe dual of mu(x) = (sum_j w_j x*_j^p)^(1/p).  Each split
    of the decreasing rearrangement y* gives a feasible direction x, equal
    to (Y_B / W_B)^(q - 1) on each block B (at p = 1, the indicator of the
    leading block), and sum x y* / mu(x) is a lower bound for nu(y).  The
    level function's split attains nu, so the best of all 2^(n-1) splits is
    the norm.  mu is a plain sort and fsum.
    """
    y = sorted((abs(float(v)) for v in np.ravel(seq) if v != 0.0), reverse=True)
    n = len(y)
    if n == 0:
        return 0.0
    if n > 7:
        raise ValueError("support too large for partition oracle")
    w = [float(v) for v in np.asarray(weights, dtype=float)[:n]]
    q = lp_dual_exponent_oracle(p)

    def mu(x):
        xs = sorted(x, reverse=True)
        return math.fsum(wj * xj**p for wj, xj in zip(w, xs)) ** (1.0 / p)

    best = 0.0
    for cuts in itertools.product((False, True), repeat=n - 1):
        ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
        x, start = [], 0
        for end in ends:
            if p == 1.0:
                level = 1.0 if start == 0 else 0.0
            else:
                ratio = math.fsum(y[start:end]) / math.fsum(w[start:end])
                level = ratio ** (q - 1.0)
            x += [level] * (end - start)
            start = end
        best = max(best, math.fsum(a * b for a, b in zip(x, y)) / mu(x))
    return best


def top_singular_value_oracle(M, iters: int = 2000, tol: float = 1e-14) -> float:
    """Largest singular value via power iteration on M^T M."""
    M = np.asarray(M, dtype=float)
    if M.size == 0 or not np.any(M):
        return 0.0
    G = M.T @ M
    v = np.ones(G.shape[0]) / math.sqrt(G.shape[0])
    prev = 0.0
    for _ in range(iters):
        w = G @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(nrm - prev) <= tol * max(1.0, nrm):
            prev = nrm
            break
        prev = nrm
    return math.sqrt(prev)


def lp_dual_exponent_oracle(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def holder_products(rng: np.random.Generator, k: int):
    a = rng.standard_normal(k)
    b = rng.standard_normal(k)
    return a, b, float(np.sum(np.abs(a * b)))


def hilbert_schmidt_oracle(M) -> float:
    M = np.asarray(M, dtype=float)
    return math.sqrt(float(np.sum(M * M)))


def weak_l2_lp2_oracle(vectors) -> float:
    """Weak norm of a system in l2 against the square-summable scale.

    sup over unit f of (sum <x_i, f>^2)^(1/2) is the top singular value of
    the stacked matrix; computed here by power iteration.
    """
    return top_singular_value_oracle(np.asarray(vectors, dtype=float))


def weak_l1_vertex_oracle(vectors, p: float) -> float:
    """Weak norm of a system in l1 against lp, by the vertices of the cube.

    The dual ball of l1 is the cube [-1, 1]^d, and f -> |(<x_i, f>)_i|_p is
    convex, so its maximum sits at one of the 2^d sign vectors.
    """
    X = np.asarray(vectors, dtype=float)
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=X.shape[1]):
        images = X @ np.array(signs)
        if math.isinf(p):
            val = float(np.max(np.abs(images)))
        else:
            val = math.fsum(abs(t) ** p for t in images) ** (1.0 / p)
        best = max(best, val)
    return best


def trace_norm_oracle(M, grid: int = 720) -> float:
    """Nuclear norm of a 2x2 matrix by dense rotation search.

    Writes M = sum_i s_i u_i v_i^T through an angle grid: for each rotation
    angle of the right factor, the cost of the induced rank-one split is
    the sum of the column lengths of M R; the minimum over angles is the
    trace norm.  Independent of any SVD routine.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError("rotation-search oracle is 2x2 only")
    best = math.inf
    for k in range(grid):
        th = math.pi * k / grid
        c, s = math.cos(th), math.sin(th)
        R = np.array([[c, -s], [s, c]])
        cols = M @ R
        cost = float(np.linalg.norm(cols[:, 0]) + np.linalg.norm(cols[:, 1]))
        best = min(best, cost)
    return best


def spectral_norm_grid_oracle(M, grid: int = 2880) -> float:
    """Operator l2->l2 norm of a 2x2 matrix by angle grid."""
    M = np.asarray(M, dtype=float)
    if M.shape[1] != 2:
        raise ValueError("grid oracle expects two columns")
    best = 0.0
    for k in range(grid):
        th = 2.0 * math.pi * k / grid
        v = np.array([math.cos(th), math.sin(th)])
        best = max(best, float(np.linalg.norm(M @ v)))
    return best


def sequential_sweep_search(objective, domain, x0, budget):
    """Compass search with the one-candidate-at-a-time poll, on optim's steps.

    The reference for the speculative poll of optim._sweep: each candidate
    is built, projected and scored on its own, as the one-row stack
    C[i:i+1], and the sweep moves on at the first improvement.  x0 is a
    point of the domain, and is scored as it is.
    Returns (best_x, best_f, converged, evals).
    """
    x = np.array(x0, dtype=float)
    best = float(objective(x[None])[0])
    if math.isnan(best):
        raise ValueError("objective returned NaN")
    step = optim._INIT_STEP
    evals = 1
    converged = False
    for _ in range(budget.iterations):
        moved = False
        for i in range(domain.dim):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step
                cand = domain.project(cand[None])
                f = float(objective(cand)[0])
                if math.isnan(f):
                    raise ValueError("objective returned NaN")
                evals += 1
                if f > best:
                    best = f
                    x = cand[0]
                    moved = True
                    break
        if not moved:
            step *= optim._SHRINK
            if step < optim._MIN_STEP:
                converged = True
                break
    return x, best, converged, evals


def sequential_run(objective, domain, budget, seeds=(), sign=1.0, target=None):
    """Multi-start compass search with its restarts run one after another.

    The reference for the lockstep restarts of optim's searches.  The seeds
    are projected and scored one at a time; then, while the target is not
    met, restart r runs sequential_sweep_search from projected seed r, or
    from the point that domain.random_point draws from the generator of
    SeedSequence(entropy=budget.seed, spawn_key=(r,)).  Unless the target is
    met, the best point is rescaled onto the sphere of the domain if that
    scores no worse; a search that meets its target keeps its best point as
    it is.  The best point is then rescored.  sign is 1 for a sup and -1 for
    an inf, target a certified bound on the other side.  Returns (witness, value, converged, details),
    the value in the objective's own units.
    """
    def f(V):
        vals = sign * np.asarray(objective(V), dtype=float)
        if np.isnan(vals).any():
            raise ValueError("objective returned NaN")
        return vals

    goal = None if target is None else sign * float(target)
    prepared = [domain.project(np.asarray(s, dtype=float).ravel()) for s in seeds]
    best_x, best_f, winner, evals = None, -math.inf, None, 0
    for i, x in enumerate(prepared):
        val = float(f(x[None])[0])
        evals += 1
        if val > best_f:
            best_f, best_x, winner = val, x, i

    def met():
        return goal is not None and best_f >= goal - 1e-12 * abs(goal)

    flags = []
    for r in range(budget.restarts):
        if met():
            break
        if r < len(prepared):
            x0 = prepared[r]
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=budget.seed, spawn_key=(r,)))
            x0 = np.asarray(domain.random_point(rng), dtype=float)
        x, val, conv, ev = sequential_sweep_search(f, domain, x0, budget)
        evals += ev
        flags.append(conv)
        if val > best_f:
            best_f, best_x, winner = val, x, r

    if domain.to_boundary is not None and not met():
        xb = domain.to_boundary(best_x)
        if np.all(np.isfinite(xb)) and domain.membership(xb):
            vb = float(f(xb[None])[0])
            evals += 1
            if vb >= best_f:
                best_f, best_x = vb, xb
    best_f = float(f(best_x[None])[0])
    details = {"evals": evals, "restarts": budget.restarts, "domain": domain.label}
    if met():
        details.update(stop="certificate", restarts_run=len(flags))
        return best_x, sign * best_f, True, details
    converged = winner is not None and winner < len(flags) and flags[winner]
    return best_x, sign * best_f, converged, details
