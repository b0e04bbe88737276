"""Check the benchmark's references against independent oracles.

Run from the root of a checkout:

    python3 perfbench/check_refs.py

Compares every function in perfbench/refs.py on small random inputs with
the brute-force oracles in tests/oracles.py (enumeration, power iteration,
angle grids, a second root-finder), and checks the level-function value of
the Garling nu norm by sandwiching it between a witnessed lower bound,
dual_norm(garling_mu, method="optimize") (lorentz at p = 1), and the
certified upper bound evaluate_norm(garling_nu).  Exits 1 if any check fails.
"""

import math
import os
import sys

import numpy as np

import refs

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracles as oc  # noqa: E402
from seqsum import optim, spaces  # noqa: E402

W = spaces.WeightSeq
FAILED = []


def report(name: str, worst: float, limit: float):
    ok = worst <= limit
    print(f"{'ok  ' if ok else 'FAIL'} {name:<44} worst {worst:.3g} (limit {limit:g})")
    if not ok:
        FAILED.append(name)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def main() -> int:
    rng = np.random.default_rng(20240517)

    worst = 0.0
    for tail, p in (("geometric:0.5", 1.0), ("power:-1.0", 2.0), ("power:-0.5", 3.0)):
        spec = spaces.garling_mu(W((1.0,), tail), p)
        w = spec.weights.materialize(8)
        for _ in range(60):
            a = rng.standard_normal(int(rng.integers(1, 7)))
            worst = max(worst, rel(refs.norm(spec, a), oc.lorentz_perm_oracle(w, p, a)))
    report("lorentz/garling_mu vs permutations", worst, 1e-13)

    worst_m = worst_n = 0.0
    for tail in ("sqrt", "power:0.7"):
        sm, sn = spaces.sargent_m(W((1.0,), tail)), spaces.sargent_n(W((1.0,), tail))
        for _ in range(60):
            a = rng.standard_normal(int(rng.integers(1, 8)))
            phi = sm.weights.materialize(a.size + 9)
            worst_m = max(worst_m, rel(refs.norm(sm, a), oc.sargent_m_subset_oracle(phi, a)))
            worst_n = max(worst_n, rel(refs.norm(sn, a), oc.sargent_n_placement_oracle(phi, a)))
    report("sargent_m vs subsets", worst_m, 1e-13)
    report("sargent_n vs placements", worst_n, 1e-13)

    O = spaces.OrliczFunction
    table = ((0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0))
    ts, ms = np.array([t for t, _ in table]), np.array([m for _, m in table])
    cases = [
        (O("power", 2.0), lambda t: t ** 2.0),
        (O("power_log", 1.5), lambda t: t ** 1.5 * math.log1p(t)),
        (O("tabulated", points=table),
         lambda t: float(np.interp(t, ts, ms)) if t <= 4.0 else 9.0 + 3.0 * (t - 4.0)),
    ]
    worst = 0.0
    for fn, scalar in cases:
        for _ in range(40):
            a = rng.standard_normal(int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-3, 3)
            worst = max(worst, rel(refs.norm(spaces.orlicz(fn), a),
                                   oc.luxemburg_secant_oracle(scalar, a)))
    report("orlicz vs second root-finder", worst, 1e-11)

    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        a = rng.standard_normal(7)
        b = refs.dual_norm(spaces.lp(p), a)
        q = oc.lp_dual_exponent_oracle(p)
        worst = max(worst, rel(b, float(np.linalg.norm(a, q))))
    report("lp duals vs numpy norms", worst, 1e-14)

    worst_sv = worst_hs = worst_weak = worst_nuc = worst_grid = 0.0
    for _ in range(40):
        X = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 4))))
        worst_sv = max(worst_sv, rel(refs.sigma_max(X), oc.top_singular_value_oracle(X)))
        worst_hs = max(worst_hs, rel(refs.frobenius(X), oc.hilbert_schmidt_oracle(X)))
        worst_weak = max(worst_weak, rel(refs.weak_ref(X, 2.0, 2.0), oc.weak_l2_lp2_oracle(X)))
        E = rng.standard_normal((2, 2))
        worst_nuc = max(worst_nuc, rel(refs.nuclear_2x2(E), oc.trace_norm_oracle(E)))
        worst_grid = max(worst_grid, rel(refs.sigma_max(E), oc.spectral_norm_grid_oracle(E)))
    report("sigma_max vs power iteration", worst_sv, 1e-9)
    report("frobenius vs Hilbert-Schmidt", worst_hs, 1e-14)
    report("weak lp(2) over l2 vs power iteration", worst_weak, 1e-9)
    report("nuclear 2x2 vs rotation grid", worst_nuc, 1e-4)
    report("sigma_max 2x2 vs angle grid", worst_grid, 1e-5)

    # exact operator norms: never below a dense sample of the domain ball,
    # and reached by it; certified bounds never below it
    worst_exact = worst_cert = 0.0
    for r in (1.0, 2.0, math.inf):
        for p in (1.0, 2.0, 3.0):
            for _ in range(6):
                T = rng.standard_normal((4, int(rng.integers(1, 4))))
                d = T.shape[1]
                x = rng.standard_normal((20000, d))
                x /= np.linalg.norm(x, ord=r, axis=1, keepdims=True)
                sampled = float(np.max(np.linalg.norm(x @ T.T, ord=p, axis=1)))
                bound, exact = refs.op_norm_bound(T, r, p)
                worst_cert = max(worst_cert, (sampled - bound) / bound)
                if exact:
                    worst_exact = max(worst_exact, rel(sampled, bound))
    report("op_norm_bound never below a sample", worst_cert, 1e-12)
    report("op_norm_bound exact cases vs sample", worst_exact, 0.05)

    worst_lo = worst_up = 0.0
    budget = optim.OptBudget(restarts=3, iterations=100)
    for tail in ("geometric:0.5", "power:-1.0", "power:-0.5"):
        for p in (1.0, 1.5, 2.0, 3.0):
            w = W((1.0,), tail)
            for k in (1, 2, 4, 7, 11):
                y = rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2)
                level = refs.nu_level(w.materialize(k), p, y)
                # at p = 1 dual_norm(garling_mu) raises before it searches;
                # lorentz is the same norm and has no analytic dual
                mu = spaces.garling_mu(w, p) if p > 1.0 else spaces.lorentz(w, p)
                lower = spaces.dual_norm(mu, y, budget=budget, method="optimize").value
                worst_lo = max(worst_lo, (lower - level) / level)
                if p > 1.0:
                    upper = spaces.evaluate_norm(spaces.garling_nu(w, p), y)
                    worst_up = max(worst_up, (level - upper) / level)
    report("nu level value >= witnessed lower bound", worst_lo, 1e-12)
    report("nu level value <= certified upper bound", worst_up, 1e-12)

    print("all references agree" if not FAILED else f"{len(FAILED)} checks failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
