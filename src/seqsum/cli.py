"""Command-line surface: compute norms, run verification suites, emit reports.

Reports are deterministic for a fixed argv and seed: every randomized
computation draws from generators derived from the seed, so two runs differ
only in their elapsed_ms fields.  Exit codes: 0 success, 1 verification
violations, 2 malformed input, 3 invalid space description, 4 unwritable
output path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__, optim, spaces, summing, tensor, vector_norms as vn
from .optim import OptBudget, Witnessed
from .spaces import SpaceSpec, SpecValidationError, WeightSeq

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_SPEC = 3
EXIT_BAD_OUTPUT = 4

_DECAY_FAMILIES = ("lorentz", "garling_mu", "garling_nu")
_SCALE_FAMILIES = ("sargent_m", "sargent_n")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Space mini-DSL


def parse_space(text: str) -> SpaceSpec:
    """lp:2, c0, orlicz:power:2, lorentz:geometric:0.5:p=1, sargent_m:sqrt, ...

    For the decaying-weight families the power rule takes the decay rate as a
    positive number (power:1.5 means weights j^-1.5); for the Sargent scale
    families it is the growth exponent (power:0.5 means j^0.5).
    """
    fam, *args = text.strip().split(":")
    try:
        if fam == "lp":
            (raw,) = args
            p = math.inf if raw in ("inf", "oo") else float(raw)
            return spaces.lp(p)
        if fam == "c0":
            if args:
                raise SpecValidationError(f"c0 takes no parameters, got {args}")
            return spaces.c0()
        if fam == "orlicz":
            kind, *rest = args
            fn = {"power": "power", "powerlog": "power_log", "power_log": "power_log"}.get(kind)
            if fn is None:
                raise CliError(f"orlicz DSL supports power/powerlog, not {kind!r}; "
                               "use --space-file for tabulated functions", EXIT_BAD_SPEC)
            (raw,) = rest
            return spaces.orlicz(spaces.OrliczFunction(kind=fn, p=float(raw)))
        if fam in _DECAY_FAMILIES or fam in _SCALE_FAMILIES:
            p = None
            tail_parts = []
            for piece in args:
                # only the decay families have an exponent, and only one
                if piece.startswith("p=") and fam in _DECAY_FAMILIES and p is None:
                    p = float(piece[2:])
                else:
                    tail_parts.append(piece)
            tail = _parse_tail(fam, tail_parts)
            w = WeightSeq(prefix=(1.0,), tail=tail)
            if fam in ("lorentz", "garling_mu"):
                return spaces.garling_mu(w, p if p is not None else 1.0)
            if fam == "garling_nu":
                return spaces.garling_nu(w, p if p is not None else 2.0)
            if fam == "sargent_m":
                return spaces.sargent_m(w)
            return spaces.sargent_n(w)
    except CliError:
        raise
    except SpecValidationError:
        raise
    except ValueError as exc:
        raise SpecValidationError(f"cannot parse space {text!r}: {exc}") from exc
    raise SpecValidationError(f"unknown space family {fam!r}")


def _parse_tail(fam: str, tail_parts: list[str]) -> str | None:
    kind, *args = tail_parts or ["const"]
    if kind in ("const", "sqrt") and not args:
        return None if kind == "const" else "sqrt"
    if kind in ("geometric", "power") and len(args) == 1:
        rate = float(args[0])
        if kind == "geometric":
            return f"geometric:{rate}"
        return f"power:{-rate if fam in _DECAY_FAMILIES else rate}"
    raise SpecValidationError(f"unknown tail rule {':'.join(tail_parts)!r} for {fam}")


def _load_space(args) -> SpaceSpec:
    if getattr(args, "space_file", None):
        try:
            with open(args.space_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read space file: {exc}", EXIT_BAD_INPUT) from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"space file is not valid JSON: {exc}", EXIT_BAD_INPUT) from exc
        return SpaceSpec.from_json(data)
    if not getattr(args, "space", None):
        raise CliError("a --space or --space-file is required", EXIT_BAD_INPUT)
    return parse_space(args.space)


def _load(text: str, what: str, from_json):
    """from_json of the parsed text; a failure of either is exit 2, a bad space exit 3."""
    try:
        return from_json(json.loads(text))
    except SpecValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {what}: {exc}", EXIT_BAD_INPUT) from exc


def _budget_from(args) -> OptBudget:
    """The default budget, with the --seed, --restarts and --iterations given."""
    given = {key: getattr(args, key) for key in ("restarts", "iterations")
             if getattr(args, key) is not None}
    return OptBudget(seed=args.seed, **given)


# integer options and the least value each accepts
_MINIMA = {"m": 1, "n": 1, "blocks": 1, "restarts": 1, "iterations": 1, "trials": 1,
           "seed": 0}


def _check_counts(args):
    for key, least in _MINIMA.items():
        val = getattr(args, key, None)
        if val is not None and val < least:
            raise CliError(f"--{key} must be >= {least}, got {val}", EXIT_BAD_INPUT)


# ---------------------------------------------------------------------------
# Reports


def _clean(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def result_row(name: str, res: Witnessed, elapsed_ms: float) -> dict:
    """The one place a report row is built; the witness and the certified
    bound on the other side of the value are kept when the result has them."""
    row = {
        "name": name,
        "value": _clean(res.value),
        "bound_direction": res.bound_direction,
        "converged": bool(res.converged),
        "elapsed_ms": round(float(elapsed_ms), 3),
    }
    if res.witness is not None:
        row["witness"] = _clean(res.witness)
    if res.certified_bound is not None:
        row["certified_bound"] = _clean(res.certified_bound)
    return row


def _exact(value: float, converged: bool = True) -> Witnessed:
    return Witnessed(value=float(value), witness=None, bound_direction="exact",
                     converged=converged)


def emit_report(results: list[dict], config: dict, fmt: str = "json") -> str:
    if not results:
        raise ValueError("results must be nonempty")
    if fmt == "json":
        report = {"version": __version__, "config": config, "results": results}
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "value", "bound_direction", "converged", "elapsed_ms",
                         "certified_bound"])
        for row in results:
            writer.writerow([row["name"], row["value"], row["bound_direction"],
                             row["converged"], row["elapsed_ms"],
                             row.get("certified_bound", "")])
        return buf.getvalue()
    raise CliError(f"unknown format {fmt!r}", EXIT_BAD_INPUT)


def parse_report(text: str) -> dict:
    return json.loads(text)


def _write_report(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write report to {path!r}: {exc}", EXIT_BAD_OUTPUT) from exc


def _config_echo(args) -> dict:
    """The subcommand and every option that is set: given, or with a default."""
    cfg = {k: v for k, v in vars(args).items() if v is not None and k != "command"}
    cfg["subcommand"] = args.command
    return cfg


# ---------------------------------------------------------------------------
# Subcommands: each runner parses its input and returns [(name, Witnessed)]
# together with the chain verdict (None when there is no chain to check).


def _run_norm(args, spec, budget):
    value = _load(args.seq, "sequence", lambda seq: spaces.evaluate_norm(spec, seq))
    return [(f"norm[{spec.label()}]", _exact(value))], None


def _run_dual_norm(args, spec, budget):
    res = _load(args.seq, "sequence",
                lambda seq: spaces.dual_norm(spec, seq, budget=budget, method=args.method))
    return [(f"dual-norm[{spec.label()}]", res)], None


def _run_vecnorm(args, spec, budget):
    xs = _load(args.vectors, "vector sequence", vn.VectorSequence.from_json)
    if args.kind == "chain":
        rep = vn.chain_check(spec, xs, m=args.m, budget=budget)
        return [("weak", rep.weak), ("mid", rep.mid), ("strong", _exact(rep.strong))], rep.ok()
    if args.kind == "strong":
        res = _exact(vn.strong_norm(spec, xs))
    elif args.kind == "weak":
        res = vn.weak_norm(spec, xs, budget=budget)
    elif args.kind == "weak-star":
        res = vn.weak_star_norm(spec, xs, budget=budget)
    else:
        res = vn.mid_norm(spec, xs, m=args.m, budget=budget)
    return [(args.kind, res)], None


def _run_summing(args, spec, budget):
    T = _load(args.operator, "operator", summing.OperatorMatrix.from_json)
    if args.kind == "pi":
        res = summing.pi_lambda(spec, T, n=args.n, budget=budget)
    elif args.kind == "pi-mid":
        res = summing.pi_lambda_mid(spec, T, n=args.n, budget=budget)
    else:
        res = summing.w_lambda_mid(spec, T, n=args.n, m=args.m, budget=budget)
    return [(f"{args.kind}[n={args.n}]", res)], None


def _run_tensor(args, spec, budget):
    u = _load(args.tensor, "tensor", tensor.Tensor.from_json)
    if args.kind == "gamma":
        res = tensor.gamma_lambda(spec, u, budget=budget)
    elif args.kind == "gamma-c":
        res = tensor.gamma_lambda_c(spec, u, blocks=args.blocks, budget=budget)
    else:
        res = tensor.injective_norm(u, budget=budget)
    return [(args.kind, res)], None


_RUNNERS = {"norm": _run_norm, "dual-norm": _run_dual_norm, "vecnorm": _run_vecnorm,
            "summing": _run_summing, "tensor": _run_tensor}


def _cmd_compute(args) -> int:
    """Print the values (and the chain verdict); exit 1 only on a failed chain,
    and 2 on input the runner finds out of range, such as norms that overflow,
    with one error line and no NumPy warning."""
    spec = _load_space(args)
    budget = _budget_from(args)
    t0 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            results, ok = _RUNNERS[args.command](args, spec, budget)
    except SpecValidationError:
        raise
    except (ValueError, OverflowError) as exc:
        raise CliError(f"input out of range: {exc}", EXIT_BAD_INPUT) from exc
    ms = (time.perf_counter() - t0) * 1e3
    print(" ".join(f"{res.value:.12g}" for _, res in results)
          + ("" if ok is None else f" ok={ok}"))
    if args.out is not None:
        rows = [result_row(name, res, ms) for name, res in results]
        _write_report(emit_report(rows, _config_echo(args), args.format), args.out)
    return EXIT_VIOLATION if ok is False else EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites


def _suite_rng(seed: int, suite: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(suite, trial))
    )


def _suite_chain(trials: int, seed: int) -> tuple[list[dict], int]:
    rows, violations = [], 0
    lams = [spaces.lp(1), spaces.lp(2), spaces.lp(3)]
    for t in range(trials):
        rng = _suite_rng(seed, 1, t)
        lam = lams[t % len(lams)]
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        xs = vn.VectorSequence(vn.lp_oracle(2, d), rng.standard_normal((n, d)))
        t0 = time.perf_counter()
        rep = vn.chain_check(lam, xs, m=4, budget=OptBudget(seed=seed + t))
        ms = (time.perf_counter() - t0) * 1e3
        ok = rep.ok()
        if not ok:
            violations += 1
        rows.append(result_row(
            f"chain[{t}] {lam.label()} d={d} n={n} "
            f"w={rep.weak.value:.9g} mid={rep.mid.value:.9g} s={rep.strong:.9g}",
            _exact(ok, rep.weak.converged), ms))
    return rows, violations


def _suite_iteration(trials: int, seed: int) -> tuple[list[dict], int]:
    fams = [
        spaces.lp(1),
        spaces.lp(2.5),
        spaces.sargent_m(WeightSeq(prefix=(1.0,), tail="sqrt")),
        spaces.garling_mu(WeightSeq(prefix=(1.0,), tail="geometric:0.5"), 2.0),
    ]
    rows, violations = [], 0
    per = max(1, trials // len(fams))
    for fi, fam in enumerate(fams):
        worst = 0.0
        t0 = time.perf_counter()
        for t in range(per):
            rng = _suite_rng(seed, 2, fi * per + t)
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            arr = rng.standard_normal(shape)
            rep = spaces.nip_check(fam, arr)
            worst = max(worst, rep.gap)
        ms = (time.perf_counter() - t0) * 1e3
        ok = worst <= 1e-9
        if not ok:
            violations += 1
        rows.append(result_row(f"iteration[{fam.label()}] max_gap={worst:.6g}",
                               _exact(worst), ms))
    return rows, violations


def _holder_pairs() -> list[SpaceSpec]:
    return [
        spaces.lp(1),
        spaces.lp(1.5),
        spaces.lp(2),
        spaces.lp(3),
        spaces.garling_mu(WeightSeq(prefix=(1.0,), tail="geometric:0.5"), 2.0),
        spaces.sargent_m(WeightSeq(prefix=(1.0,), tail="sqrt")),
    ]


def _suite_holder(trials: int, seed: int) -> tuple[list[dict], int]:
    specs = _holder_pairs()
    rows, violations = [], 0
    per = max(1, trials // len(specs))
    for si, spec in enumerate(specs):
        dual = spaces.kothe_dual_spec(spec)
        bad = 0
        t0 = time.perf_counter()
        for t in range(per):
            rng = _suite_rng(seed, 3, si * per + t)
            k = int(rng.integers(1, 7))
            a = rng.standard_normal(k)
            b = rng.standard_normal(k)
            lhs = float(np.sum(np.abs(a * b)))
            rhs = spaces.evaluate_norm(spec, a) * spaces.evaluate_norm(dual, b)
            if optim.exceeds(lhs, rhs):
                bad += 1
        ms = (time.perf_counter() - t0) * 1e3
        if bad:
            violations += 1
        rows.append(result_row(
            f"holder[{spec.label()}~{dual.label()}] violations={bad}", _exact(bad), ms))
    return rows, violations


def _suite_summing(trials: int, seed: int) -> tuple[list[dict], int]:
    rows, violations = [], 0
    lam = spaces.lp(2)
    budget = OptBudget(restarts=3, iterations=100, seed=seed)
    for t in range(trials):
        rng = _suite_rng(seed, 4, t)
        d = int(rng.integers(1, 3))
        e = int(rng.integers(1, 3))
        dom, cod = vn.lp_oracle(2, d), vn.lp_oracle(2, e)
        T = summing.OperatorMatrix(dom, cod, rng.standard_normal((e, d)))
        t0 = time.perf_counter()
        pm = summing.pi_lambda_mid(lam, T, n=3, budget=budget)
        c1 = summing.strong_mid_witness_check(lam, T, pm)
        wm = summing.w_lambda_mid(lam, T, n=3, m=3, budget=budget)
        c2 = summing.mid_weak_witness_check(lam, T, wm)
        ms = (time.perf_counter() - t0) * 1e3
        ok = c1.ok and c2.ok
        if not ok:
            violations += 1
        rows.append(result_row(
            f"summing[{t}] d={d} e={e} pi_mid={pm.value:.9g} w_mid={wm.value:.9g}",
            _exact(ok, pm.converged and wm.converged), ms))
    return rows, violations


def _suite_tensor(trials: int, seed: int) -> tuple[list[dict], int]:
    rows, violations = [], 0
    lam = spaces.lp(2)
    budget = OptBudget(restarts=3, iterations=100, seed=seed)
    for t in range(trials):
        rng = _suite_rng(seed, 5, t)
        l2 = vn.lp_oracle(2, 2)
        u = tensor.Tensor(l2, l2, rng.standard_normal((2, 2)))
        t0 = time.perf_counter()
        g = tensor.gamma_lambda(lam, u, budget=budget)
        gc = tensor.gamma_lambda_c(lam, u, budget=budget, single_block=g)
        inj = tensor.injective_norm(u, budget=budget)
        T = summing.OperatorMatrix(l2, l2, rng.standard_normal((2, 2)))
        rep = gc.details["representation"]
        trace = tensor.trace_duality_check(lam, T, u, rep, gamma_c_value=gc.value)
        ms = (time.perf_counter() - t0) * 1e3
        ok = (gc.value <= g.value + 1e-12
              and inj.value - 1e-6 <= gc.value
              and trace.ok)
        if not ok:
            violations += 1
        rows.append(result_row(
            f"tensor[{t}] gamma={g.value:.9g} gamma_c={gc.value:.9g} "
            f"inj={inj.value:.9g}", _exact(ok, g.converged and gc.converged), ms))
    return rows, violations


_SUITES = {
    "chain": (_suite_chain, 6),
    "iteration": (_suite_iteration, 80),
    "holder": (_suite_holder, 120),
    "summing": (_suite_summing, 4),
    "tensor": (_suite_tensor, 4),
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    total_violations = 0
    for name in names:
        fn, default_trials = _SUITES[name]
        trials = args.trials if args.trials is not None else default_trials
        rows, violations = fn(trials, args.seed)
        results.extend(rows)
        results.append(result_row(f"{name}-violations", _exact(violations), 0.0))
        total_violations += violations
    _write_report(emit_report(results, _config_echo(args), args.format), args.out)
    if args.out is not None:
        print(f"violations={total_violations}")
    return EXIT_VIOLATION if total_violations else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="seqsum",
                                 description="Sequence-space and operator norms "
                                             "with witness-certified bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, space=True):
        if space:
            p.add_argument("--space", help="space DSL, e.g. lp:2 or sargent_m:sqrt")
            p.add_argument("--space-file", help="JSON file with a full space spec")
        p.add_argument("--seed", type=int, default=1729)
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="report path (default: stdout)")

    p = sub.add_parser("norm", help="scalar sequence norm")
    common(p)
    p.add_argument("--seq", required=True, help="JSON array of numbers")

    p = sub.add_parser("dual-norm", help="Kothe dual norm")
    common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--method", choices=("auto", "analytic", "optimize"),
                   default="auto")

    p = sub.add_parser("vecnorm", help="vector-sequence norms")
    common(p)
    p.add_argument("--kind", choices=("strong", "weak", "weak-star", "mid", "chain"),
                   required=True)
    p.add_argument("--vectors", required=True,
                   help='JSON {"oracle": "l2:2", "vectors": [[...], ...]}')
    p.add_argument("--m", type=int, default=4)

    p = sub.add_parser("summing", help="summing-operator norms")
    common(p)
    p.add_argument("--kind", choices=("pi", "pi-mid", "w-mid"), required=True)
    p.add_argument("--operator", required=True,
                   help='JSON {"domain": "l2:2", "codomain": "l2:2", "rows": [...]}')
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=4)

    p = sub.add_parser("tensor", help="tensor norms")
    common(p)
    p.add_argument("--kind", choices=("gamma", "gamma-c", "injective"),
                   required=True)
    p.add_argument("--tensor", required=True,
                   help='JSON {"domain": "l2:2", "codomain": "l2:2", "entries": [...]}')
    p.add_argument("--blocks", type=int, default=3,
                   help="gamma-c searches representations of blocks x min(d, e) terms")

    p = sub.add_parser("verify", help="run invariant suites")
    common(p, space=False)
    p.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p.add_argument("--trials", type=int, default=None)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_counts(args)
        return _cmd_verify(args) if args.command == "verify" else _cmd_compute(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SpecValidationError as exc:
        print(f"invalid space: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
