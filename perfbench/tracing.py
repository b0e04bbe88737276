"""Layer measurements taken from outside the seqsum package.

Each traced public function is replaced at every module binding that holds
it: evaluate_norm, for one, is imported by name into vector_norms, summing
and tensor, so patching seqsum.spaces alone would miss most calls.  The
originals come back on restore().

Two modes:

* Counter, for untraced runs: only the two search entry points are wrapped,
  to add up details["evals"].  It costs two Python calls per search.
* Tracer: one span per op and per call of an entry point or search, each
  with its parent span and op id.  The hot inner functions (evaluate_norm,
  operator_norm_upper, row_lengths) are called millions of times, so they
  are aggregated per parent span as count, total and self time instead.
  A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

MODULES = ("seqsum", "seqsum.spaces", "seqsum.optim", "seqsum.vector_norms",
           "seqsum.summing", "seqsum.tensor", "seqsum.cli")
SEARCHES = ("optim.maximize_over_ball", "optim.minimize_over_family")
SPANS = SEARCHES + (
    "spaces.dual_norm", "spaces.nip_check",
    "vector_norms.weak_norm", "vector_norms.mid_norm", "vector_norms.chain_check",
    "summing.pi_lambda", "summing.pi_lambda_mid", "summing.w_lambda_mid",
    "summing.strong_mid_witness_check", "summing.mid_weak_witness_check",
    "tensor.gamma_lambda", "tensor.gamma_lambda_c", "tensor.injective_norm",
    "tensor.trace_duality_check",
    "cli.run",
)
HOT = ("spaces.evaluate_norm", "vector_norms.operator_norm_upper", "vector_norms.row_lengths")
FAMILIES = ("lp", "c0", "orlicz", "lorentz", "garling_mu", "garling_nu", "sargent_m", "sargent_n")
SHORT_MAX = 4  # lengths 1-4 are "short", 5 and up "long"


class Patches:
    """Replaces a function at every binding of it in the seqsum modules."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.saved: list[tuple] = []
        self.bindings: dict[str, int] = {}

    def original(self, qualname: str):
        mod, name = qualname.split(".")
        return getattr(self.modules["seqsum." + mod], name)

    def replace(self, qualname: str, wrapper):
        target = self.original(qualname)
        count = 0
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, attr, wrapper)
                    self.saved.append((mod, attr, val))
                    count += 1
        self.bindings[qualname] = count

    def restore(self):
        for mod, attr, val in reversed(self.saved):
            setattr(mod, attr, val)
        self.saved.clear()


class Counter:
    """Search calls and evaluation counts, at the cost of a wrapper per search."""

    def __init__(self, modules: dict):
        self.patches = Patches(modules)
        self.calls = dict.fromkeys(SEARCHES, 0)
        self.evals = dict.fromkeys(SEARCHES, 0)
        for name in SEARCHES:
            self.patches.replace(name, self._wrap(name, self.patches.original(name)))

    def _wrap(self, name, fn):
        calls, evals = self.calls, self.evals

        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            calls[name] += 1
            evals[name] += res.details.get("evals", 0)
            return res
        return counted

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "evals": dict(self.evals)}

    def restore(self):
        self.patches.restore()


class Tracer:
    """Spans at the layer boundaries, with aggregated hot inner calls."""

    def __init__(self, modules: dict):
        # span record: [name, parent, op, start, end, child_s, evals]
        self.spans: list[list] = []
        # frame: [time covered by children, index of the enclosing span]
        self.stack: list[list] = []
        self.hot: dict[tuple, list] = {}  # (span, name) -> [count, total_s, self_s]
        self.by_family: dict[tuple, list] = {}  # (family, short) -> [count, total_s]
        self.op = -1
        self.patches = Patches(modules)
        for name in SPANS:
            self.patches.replace(name, self._span(name, self.patches.original(name)))
        for name in HOT:
            self.patches.replace(name, self._hot(name, self.patches.original(name)))

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        search = name in SEARCHES

        def traced(*args, **kwargs):
            rec = [name, stack[-1][1] if stack else -1, self.op, 0.0, 0.0, 0.0, None]
            frame = [0.0, len(spans)]
            spans.append(rec)
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                rec[3], rec[4], rec[5] = t0, t1, frame[0]
            if search:
                rec[6] = res.details.get("evals", 0)
            return res
        return traced

    def _hot(self, name, fn):
        stack, agg, fam = self.stack, self.hot, self.by_family
        evaluate = name == "spaces.evaluate_norm"

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key = (frame[1], name)
                a = agg.get(key)
                if a is None:
                    agg[key] = [1, dur, dur - frame[0]]
                else:
                    a[0] += 1
                    a[1] += dur
                    a[2] += dur - frame[0]
                if evaluate:
                    c = args[1]
                    n = c.size if isinstance(c, np.ndarray) else len(c)
                    fk = (args[0].family, n <= SHORT_MAX)
                    f = fam.get(fk)
                    if f is None:
                        fam[fk] = [1, dur]
                    else:
                        f[0] += 1
                        f[1] += dur
        return traced

    def run_op(self, index: int, call):
        self.op = index
        return self._span("op", call)()

    def restore(self):
        self.patches.restore()

    def totals(self) -> dict:
        calls = dict.fromkeys(SEARCHES, 0)
        evals = dict.fromkeys(SEARCHES, 0)
        for rec in self.spans:
            if rec[0] in calls:
                calls[rec[0]] += 1
                evals[rec[0]] += rec[6]
        return {"calls": calls, "evals": evals}

    def evaluate_calls(self) -> int:
        return sum(a[0] for (_, name), a in self.hot.items() if name == "spaces.evaluate_norm")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics; counts and self times are per pass of the deck."""
        out: dict[str, float] = {}
        dur: dict[str, list] = {}
        self_s: dict[str, float] = {}
        evals: dict[str, int] = {}
        for name, _, _, t0, t1, child, ev in self.spans:
            dur.setdefault(name, []).append(t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child)
            if ev is not None:
                evals[name] = evals.get(name, 0) + ev
        hot: dict[str, list] = {}  # name -> [count, self_s]
        for (_, name), (c, _, own) in self.hot.items():
            h = hot.setdefault(name, [0, 0.0])
            h[0] += c
            h[1] += own

        def calls(name):
            return len(dur.get(name, ()))

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        for name in HOT:
            c, own = hot.get(name, (0, 0.0))
            out[f"{name}.calls"] = c / passes
            out[f"{name}.self_s"] = own / passes
        for family in FAMILIES:
            for short, label in ((True, "short_us"), (False, "long_us")):
                c, tot = self.by_family.get((family, short), (0, 0.0))
                out[f"spaces.evaluate_norm.{family}.{label}"] = 1e6 * tot / c if c else 0.0
        out["spaces.dual_norm.calls"] = calls("spaces.dual_norm") / passes
        out["spaces.dual_norm.self_s"] = self_s.get("spaces.dual_norm", 0.0) / passes
        out["spaces.nip_check.self_s"] = self_s.get("spaces.nip_check", 0.0) / passes
        for name in SEARCHES:
            total = sum(dur.get(name, ()))
            out[f"{name}.calls"] = calls(name) / passes
            out[f"{name}.evals"] = evals.get(name, 0) / passes
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
            out[f"{name}.evals_per_s"] = evals.get(name, 0) / total if total else 0.0
        for name in ("vector_norms.weak_norm", "vector_norms.mid_norm", "vector_norms.chain_check",
                     "summing.pi_lambda", "summing.pi_lambda_mid", "summing.w_lambda_mid",
                     "tensor.gamma_lambda", "tensor.gamma_lambda_c", "tensor.injective_norm",
                     "tensor.trace_duality_check"):
            out[f"{name}.s_per_call"] = mean(dur.get(name, []))
        out["summing.witness_check.s_per_call"] = mean(
            dur.get("summing.strong_mid_witness_check", [])
            + dur.get("summing.mid_weak_witness_check", []))
        for parent in ("summing.pi_lambda_mid", "tensor.gamma_lambda"):
            out[f"{parent}.inner_mid_s"] = self._inner(parent, "vector_norms.mid_norm")
        out["cli.run.calls"] = calls("cli.run") / passes
        out["cli.run.self_s"] = self_s.get("cli.run", 0.0) / passes
        return {k: float(v) for k, v in out.items()}

    def _inner(self, parent: str, child: str) -> float:
        """Mean time per `parent` call spent in `child` calls made directly by it."""
        parents = {i for i, rec in enumerate(self.spans) if rec[0] == parent}
        if not parents:
            return 0.0
        inner = sum(rec[4] - rec[3] for rec in self.spans
                    if rec[0] == child and rec[1] in parents)
        return inner / len(parents)

    def write(self, path: str, ops: list[str]):
        """Write the spans and the per-span hot aggregates as JSON."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][3] if self.spans else 0.0
        doc = {
            "span_fields": ["name", "parent", "op", "start_s", "end_s", "self_s", "evals"],
            "names": names,
            "ops": ops,
            "spans": [[index[n], p, op, round(t0 - t_base, 9), round(t1 - t_base, 9),
                       round(t1 - t0 - ch, 9), ev]
                      for n, p, op, t0, t1, ch, ev in self.spans],
            "hot_fields": ["span", "name", "calls", "total_s", "self_s"],
            "hot": [[s, n, c, round(tot, 9), round(own, 9)]
                    for (s, n), (c, tot, own) in sorted(self.hot.items())],
            "evaluate_norm_by_family": [[f, "short" if sh else "long", c, round(tot, 9)]
                                        for (f, sh), (c, tot) in sorted(self.by_family.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"), allow_nan=False)
