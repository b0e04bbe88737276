"""The three workloads: seeded decks of library calls, each with its check.

A deck is a fixed list of ops built from the seed.  Its shape (families,
lengths, sizes, op kinds and their counts) is the same for every seed; the
seed draws only the numbers, so runs on different seeds do the same mix of
work.  Every op is one library entry-point call, followed for the mid
summing constants by the library's own witness check.  The benchmark's check
of each op runs after the timed loop and uses only perfbench.refs, never
seqsum's own balls or norms.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs

# Known defects the checks reproduce.  They count as failed ops; `correct`
# stays true while these are the only failures.
KNOWN_DEFECTS = {
    "garling_mu-dual-exact": "dual_norm(garling_mu) labels a compass upper "
                             "bound of the nu norm 'exact' (ROADMAP item 2)",
    "garling_mu-dual-p1": "dual_norm(garling_mu) at p = 1, the CLI default, "
                          "raises (ROADMAP item 2)",
}

SEARCH_BUDGET = dict(restarts=3, iterations=100)


class Raised:
    """An op that raised, kept as its result so that it can be checked."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"Raised({type(self.exc).__name__}: {self.exc})"


@dataclass
class Verdict:
    ok: bool
    gaps: list[float]
    reasons: list[str]
    defect: str | None = None


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


class Audit:
    """Collects the failed conditions and reference gaps of one op."""

    def __init__(self):
        self.reasons: list[str] = []
        self.gaps: list[float] = []

    def require(self, cond: bool, reason: str):
        if not cond:
            self.reasons.append(reason)

    def member(self, bound: float, what: str):
        self.require(refs.in_unit_ball(bound), f"{what} outside its unit ball ({bound!r})")

    def recomputed(self, reported: float, again: float, what: str):
        self.require(refs.rel_gap(reported, again) <= 1e-9,
                     f"{what}: reported {reported!r}, recomputed at witness {again!r}")

    def against(self, direction: str, value: float, ref: float, what: str):
        """Bound direction against the reference, and the gap to it."""
        self.gaps.append(max(refs.rel_gap(value, ref), refs.NOISE))
        tol = refs.NOISE * abs(ref)
        if direction == "exact":
            self.require(abs(value - ref) <= tol, f"{what}: 'exact' {value!r} off reference {ref!r}")
        elif direction == "lower-of-sup":
            self.require(value <= ref + tol, f"{what}: lower bound {value!r} above reference {ref!r}")
        elif direction == "upper-of-inf":
            self.require(value >= ref - tol, f"{what}: upper bound {value!r} below reference {ref!r}")
        else:
            self.reasons.append(f"{what}: unknown bound direction {direction!r}")

    def verdict(self) -> Verdict:
        return Verdict(ok=not self.reasons, gaps=self.gaps, reasons=self.reasons)


def _audited(body, raised_defect: str | None = None):
    """A check from body(audit, result), which may name the known defect it hit.

    An op that raised fails with its exception as the reason; a
    SpecValidationError is the known defect raised_defect, when one is given.
    """
    def check(res):
        if isinstance(res, Raised):
            spec_error = type(res.exc).__name__ == "SpecValidationError"
            return Verdict(False, [], [repr(res)], raised_defect if spec_error else None)
        a = Audit()
        defect = body(a, res)
        v = a.verdict()
        v.defect = None if v.ok else defect
        return v
    return check


# ---------------------------------------------------------------------------
# scalar


def _scalar_specs(sq):
    sp = sq.spaces
    W, O = sp.WeightSeq, sp.OrliczFunction
    geo, dec1, dec05 = W((1.0,), "geometric:0.5"), W((1.0,), "power:-1.0"), W((1.0,), "power:-0.5")
    sqrt, grow07 = W((1.0,), "sqrt"), W((1.0,), "power:0.7")
    table = O("tabulated", points=((0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)))
    per_coord = (O("power", 2.0), O("power", 3.0), O("power_log", 1.0))
    return {
        "lp1": sp.lp(1), "lp1.5": sp.lp(1.5), "lp2": sp.lp(2), "lp3": sp.lp(3),
        "lpinf": sp.lp(math.inf), "c0": sp.c0(),
        "orlicz-pow2": sp.orlicz(O("power", 2.0)),
        "orlicz-powlog1.5": sp.orlicz(O("power_log", 1.5)),
        "orlicz-table": sp.orlicz(table), "orlicz-list": sp.orlicz(per_coord),
        "lorentz-geo-p1": sp.lorentz(geo, 1.0), "lorentz-pow-p2": sp.lorentz(dec1, 2.0),
        "mu-geo-p1": sp.garling_mu(geo, 1.0), "mu-pow-p2": sp.garling_mu(dec05, 2.0),
        "nu-geo-p2": sp.garling_nu(geo, 2.0), "nu-pow-p1.5": sp.garling_nu(dec05, 1.5),
        "nu-pow-p3": sp.garling_nu(dec1, 3.0),
        "sm-sqrt": sp.sargent_m(sqrt), "sm-pow": sp.sargent_m(grow07),
        "sn-sqrt": sp.sargent_n(sqrt), "sn-pow": sp.sargent_n(grow07),
    }


def _check_norm(spec, x):
    direction = "upper-of-inf" if spec.family == "garling_nu" else "exact"

    def body(a, res):
        a.against(direction, res, refs.norm(spec, x), f"evaluate_norm[{spec.label()}]")
    return _audited(body)


def _exact_defect(spec, a: Audit) -> str | None:
    """The garling_mu dual whose only fault is its 'exact' label."""
    if spec.family == "garling_mu" and all("off reference" in r for r in a.reasons):
        return "garling_mu-dual-exact"
    return None


def _p1_defect(spec) -> str | None:
    return "garling_mu-dual-p1" if spec.family == "garling_mu" and spec.p == 1.0 else None


def _check_dual(spec, y):
    def body(a, res):
        _audit_dual(a, spec, y, res.value, res.bound_direction, res.witness)
        return _exact_defect(spec, a)
    return _audited(body, _p1_defect(spec))


def _audit_dual(a: Audit, spec, y, value, direction, witness):
    what = f"dual_norm[{spec.label()}]"
    alpha = np.asarray(witness, dtype=float)
    a.member(refs.norm(spec, alpha), f"{what} witness")
    pairing = math.fsum(abs(float(s * t)) for s, t in zip(alpha, np.ravel(y)))
    if direction == "exact":
        a.require(pairing <= value * (1.0 + refs.NOISE), f"{what}: witness pairs above the value")
    else:
        a.recomputed(value, pairing, what)
    a.against(direction, value, refs.dual_norm(spec, y), what)


def _check_nip(spec, A):
    def body(a, res):
        rows = refs.norm(spec, [refs.norm(spec, r) for r in A])
        cols = refs.norm(spec, [refs.norm(spec, c) for c in A.T])
        a.against("exact", res.row_value, rows, f"nip_check[{spec.label()}] rows")
        a.against("exact", res.col_value, cols, f"nip_check[{spec.label()}] cols")
        a.recomputed(res.gap, abs(res.row_value - res.col_value), "nip gap")
    return _audited(body)


def _cli_call(sq, argv, out_path):
    def call():
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = sq.cli.run(argv + ["--out", out_path])
        report = None
        if code == 0:
            with open(out_path) as fh:
                report = json.load(fh)
            os.remove(out_path)
        return {"code": code, "stdout": buf.getvalue(), "stderr": err.getvalue(),
                "report": report}
    return call


def _check_cli(spec, x, command):
    def body(a, res):
        what = f"cli {command} {spec.label()}"
        if res["code"] != 0:
            a.reasons.append(f"{what}: exit {res['code']}: {res['stderr'].strip()}")
            invalid_space = command == "dual-norm" and res["code"] == 3
            return _p1_defect(spec) if invalid_space else None
        row = res["report"]["results"][0]
        value, direction = float(row["value"]), row["bound_direction"]
        a.require(refs.rel_gap(float(res["stdout"].split()[0]), value) <= 1e-11,
                  f"{what}: printed value differs from the report")
        if command == "norm":
            a.against(direction, value, refs.norm(spec, x), what)
            return None
        _audit_dual(a, spec, x, value, direction, row["witness"])
        return _exact_defect(spec, a)
    return _audited(body)


def scalar_deck(sq, rng: np.random.Generator, out_dir: str) -> list[Op]:
    sp = sq.spaces
    specs = _scalar_specs(sq)
    budget = sq.optim.OptBudget(**SEARCH_BUDGET)
    ops: list[Op] = []

    def draw(n, wide=False):
        x = rng.standard_normal(n)
        if wide:
            x *= 10.0 ** rng.uniform(-12.0, 12.0, n)
        return x

    # Every family at lengths 1..12, Orlicz at every other length.  Of the
    # ops, about 60% take tens of microseconds, 20% a millisecond or less and
    # 15% run a compass search, so that p50 and p90 fall inside a cluster of
    # similar ops rather than at an edge between two.  One input in six
    # spans 24 decades.
    i = 0
    for k, (name, spec) in enumerate(specs.items()):
        lengths = range(1 + k % 2, 13, 2) if spec.family == "orlicz" else range(1, 13)
        for n in lengths:
            x = draw(n, wide=(i % 6 == 5))
            i += 1
            ops.append(Op(f"evaluate_norm/{name}/{n}",
                          lambda s=spec, v=x: sp.evaluate_norm(s, v), _check_norm(spec, x)))
    # analytic duals, including garling_mu at p = 1
    for name in ("lp1", "lp2", "lp3", "lpinf", "c0", "orlicz-pow2", "mu-geo-p1", "mu-pow-p2",
                 "nu-geo-p2", "nu-pow-p1.5", "sm-sqrt", "sm-pow", "sn-sqrt", "sn-pow"):
        spec = specs[name]
        for n in (3, 8):
            y = draw(n)
            ops.append(Op(f"dual_norm/{name}/{n}",
                          lambda s=spec, v=y: sp.dual_norm(s, v), _check_dual(spec, y)))
    for name in ("lorentz-geo-p1", "lorentz-pow-p2"):
        spec = specs[name]
        for n in (4, 9):
            y = draw(n)
            ops.append(Op(f"dual_norm_optimize/{name}/{n}",
                          lambda s=spec, v=y: sp.dual_norm(s, v, budget=budget, method="optimize"),
                          _check_dual(spec, y)))
    for name in ("lp1", "lp1.5", "c0", "orlicz-powlog1.5", "lorentz-geo-p1", "mu-pow-p2",
                 "sm-sqrt", "sn-sqrt"):
        spec = specs[name]
        for shape in ((5, 5), (3, 4)):
            A = rng.standard_normal(shape)
            ops.append(Op(f"nip_check/{name}/{shape}",
                          lambda s=spec, m=A: sp.nip_check(s, m), _check_nip(spec, A)))
    cli_cases = [("norm", "lp:2", "lp2"), ("norm", "orlicz:powerlog:1.5", "orlicz-powlog1.5"),
                 ("norm", "sargent_m:sqrt", "sm-sqrt"), ("norm", "lorentz:geometric:0.5:p=1",
                                                         "lorentz-geo-p1"),
                 ("dual-norm", "lp:3", "lp3"), ("dual-norm", "sargent_n:sqrt", "sn-sqrt"),
                 ("dual-norm", "c0", "c0"), ("dual-norm", "garling_mu:geometric:0.5", "mu-geo-p1")]
    for j, (command, dsl, name) in enumerate(cli_cases):
        x = draw(6)
        argv = [command, "--space", dsl, "--seq", json.dumps([float(v) for v in x])]
        path = os.path.join(out_dir, f"cli-report-{j}.json")
        ops.append(Op(f"cli/{command}/{dsl}", _cli_call(sq, argv, path),
                      _check_cli(specs[name], x, command)))
    return ops


# ---------------------------------------------------------------------------
# chain


def _check_chain(X, r: float, p: float, m: int):
    def body(a, res):
        a.require(not res.violations, f"chain_check violations: {res.violations}")
        f = res.weak.witness
        a.member(refs.vec_norm(f, refs.conj(r)), "weak witness")
        a.recomputed(res.weak.value, refs.vec_norm(X @ f, p), "weak")
        weak = refs.weak_ref(X, r, p)
        if weak is not None:
            a.against(res.weak.bound_direction, res.weak.value, weak, "weak")
        T = res.mid.witness.reshape(m, -1)
        a.member(refs.op_norm_bound(T, r, p)[0], "mid witness")
        imgs = X @ T.T
        a.recomputed(res.mid.value, refs.vec_norm([refs.vec_norm(v, p) for v in imgs], p), "mid")
        if r == 2.0 and p == 2.0 and m >= X.shape[1]:
            a.against(res.mid.bound_direction, res.mid.value, refs.frobenius(X), "mid")
        strong = refs.vec_norm([refs.vec_norm(v, r) for v in X], p)
        a.against("exact", res.strong, strong, "strong")
    return _audited(body)


def chain_deck(sq, rng: np.random.Generator, out_dir: str) -> list[Op]:
    vn, sp = sq.vector_norms, sq.spaces
    budget = sq.optim.OptBudget(**SEARCH_BUDGET)
    m = 4
    shapes = [(2.0, n, d) for n in range(1, 6) for d in range(1, 4)]
    # the l1 and linf oracles reach the exact branches of operator_norm_upper
    shapes += [(r, n, d) for r in (1.0, math.inf) for n, d in ((2, 3), (4, 2))]
    ops = []
    for r, n, d in shapes:
        for p in (1.0, 2.0, 3.0):
            X = rng.standard_normal((n, d))
            xs = vn.VectorSequence(vn.lp_oracle(r, d), X)
            ops.append(Op(f"chain_check/l{r:g}/lp{p:g}/n{n}d{d}",
                          lambda s=sp.lp(p), v=xs: vn.chain_check(s, v, m=m, budget=budget),
                          _check_chain(X, r, p, m)))
    return ops


# ---------------------------------------------------------------------------
# operators


def _with_check(res, witness_check):
    """An entry point's result together with its library witness check."""
    return res, witness_check(res)


def _check_pi(M, n, mid: bool):
    def body(a, out):
        res = _checked(a, out) if mid else out
        X = res.witness.reshape(n, M.shape[1])
        if mid:
            a.member(refs.frobenius(X), "pi_mid witness (strong norm)")
        else:
            a.member(refs.sigma_max(X), "pi witness (weak norm)")
        a.recomputed(res.value, refs.frobenius(X @ M.T), "pi value")
        ref = refs.sigma_max(M) if mid else refs.frobenius(M)
        a.against(res.bound_direction, res.value, ref, "pi_lambda_mid" if mid else "pi_lambda")
    return _audited(body)


def _check_wmid(M, n, m):
    def body(a, out):
        res = _checked(a, out)
        e, d = M.shape
        S = res.witness[: m * e].reshape(m, e)
        X = res.witness[m * e:].reshape(n, d)
        a.member(refs.sigma_max(S), "w_mid operator witness")
        a.member(refs.sigma_max(X), "w_mid sequence witness (weak norm)")
        a.recomputed(res.value, refs.frobenius(X @ M.T @ S.T), "w_mid value")
        a.against(res.bound_direction, res.value, refs.frobenius(M), "w_lambda_mid")
    return _audited(body)


def _checked(a: Audit, out):
    res, wc = out
    a.require(wc.ok, f"witness check {wc.label} failed: {wc.lhs!r} > {wc.rhs!r}")
    return res


def _audit_rep(a: Audit, E, res, what):
    rep = res.details["representation"]
    total = np.zeros_like(E)
    cost = []
    for xs, ys in rep.blocks:
        total += xs.vectors.T @ ys.vectors
        cost.append(refs.vec_norm([refs.vec_norm(v, 2.0) for v in xs.vectors], 2.0)
                    * refs.vec_norm([refs.vec_norm(v, 2.0) for v in ys.vectors], 2.0))
    a.require(float(np.max(np.abs(total - E))) <= 1e-9, f"{what}: representation misses the tensor")
    a.recomputed(res.value, math.fsum(cost), what)
    a.against(res.bound_direction, res.value, refs.nuclear_2x2(E), what)


def _check_gamma(E, single=None):
    def body(a, res):
        _audit_rep(a, E, res, "gamma_c" if single else "gamma")
        if single:
            g = single()
            a.require(res.value <= g.value + 1e-12, "gamma_c exceeds its single-block seed")
    return _audited(body)


def _check_injective(E):
    def body(a, res):
        f, g = res.witness[:2], res.witness[2:]
        a.member(refs.vec_norm(f, 2.0), "injective f")
        a.member(refs.vec_norm(g, 2.0), "injective g")
        a.recomputed(res.value, abs(float(f @ E @ g)), "injective value")
        a.against(res.bound_direction, res.value, refs.sigma_max(E), "injective_norm")
    return _audited(body)


def _check_trace(E, T):
    def body(a, res):
        a.require(res.ok, f"trace duality violated: {res.phi_value!r} > {res.chain_bound!r}")
        a.against("exact", res.phi_value, math.fsum((T * E).ravel()), "trace pairing")
    return _audited(body)


def operators_deck(sq, rng: np.random.Generator, out_dir: str) -> list[Op]:
    vn, sm, tn, sp = sq.vector_norms, sq.summing, sq.tensor, sq.spaces
    lam = sp.lp(2)
    budget = sq.optim.OptBudget(**SEARCH_BUDGET)
    n, m = 3, 3
    # ops that feed a later op (the seeded gamma_c, the trace check) keep
    # their result here; the deck order runs them first
    memo: dict = {}

    def keep(key, fn):
        def call():
            memo[key] = fn()
            return memo[key]
        return call

    ops = []
    for d in range(1, 4):
        for e in range(1, 4):
            M = rng.standard_normal((e, d))
            T = sm.OperatorMatrix(vn.lp_oracle(2, d), vn.lp_oracle(2, e), M)
            tag = f"d{d}e{e}"
            ops += [
                Op(f"pi_lambda/{tag}",
                   lambda T=T: sm.pi_lambda(lam, T, n=n, budget=budget), _check_pi(M, n, False)),
                Op(f"pi_lambda_mid/{tag}",
                   lambda T=T: _with_check(sm.pi_lambda_mid(lam, T, n=n, m=m, budget=budget),
                                           lambda r: sm.strong_mid_witness_check(lam, T, r)),
                   _check_pi(M, n, True)),
                Op(f"w_lambda_mid/{tag}",
                   lambda T=T: _with_check(sm.w_lambda_mid(lam, T, n=n, m=m, budget=budget),
                                           lambda r: sm.mid_weak_witness_check(lam, T, r)),
                   _check_wmid(M, n, m)),
            ]
    l2 = vn.lp_oracle(2, 2)
    for t in range(9):
        E = rng.standard_normal((2, 2))
        u = tn.Tensor(l2, l2, E)
        Tm = rng.standard_normal((2, 2))
        T = sm.OperatorMatrix(l2, l2, Tm)
        g, gc = ("g", t), ("gc", t)
        ops += [
            Op(f"gamma_lambda/{t}",
               keep(g, lambda u=u: tn.gamma_lambda(lam, u, budget=budget)), _check_gamma(E)),
            Op(f"gamma_lambda_c/{t}",
               keep(gc, lambda u=u, k=g: tn.gamma_lambda_c(lam, u, budget=budget,
                                                           single_block=memo[k])),
               _check_gamma(E, single=lambda k=g: memo[k])),
            Op(f"injective_norm/{t}",
               lambda u=u: tn.injective_norm(u, budget=budget), _check_injective(E)),
            Op(f"trace_duality_check/{t}",
               lambda u=u, T=T, k=gc: tn.trace_duality_check(
                   lam, T, u, memo[k].details["representation"], gamma_c_value=memo[k].value),
               _check_trace(E, Tm)),
        ]
    return ops


# A deck repeats its round of ops this many times, with fresh draws, so that
# one pass takes about 30 s (seqsum 0.1.0, one x86-64 core): averaging over
# more inputs keeps the figures of different seeds close.
DECKS = {"scalar": (scalar_deck, 14), "chain": (chain_deck, 2), "operators": (operators_deck, 2)}


def build_deck(sq, workload: str, rng: np.random.Generator, out_dir: str) -> list[Op]:
    make_round, rounds = DECKS[workload]
    deck = []
    for r in range(rounds):
        for op in make_round(sq, rng, out_dir):
            op.key = f"{r}/{op.key}"
            deck.append(op)
    return deck
