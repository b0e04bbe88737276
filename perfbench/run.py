"""seqsum benchmark: one closed-loop client, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

The workload's deck of ops is built from --seed.  The loop runs whole passes
of the deck, one op at a time, for about --seconds seconds (at least one
pass, and enough for ten latency samples beyond p90).  Every op's result is
then checked against references the benchmark computes itself, and every
repeated op must give the same result bit for bit.

--trace 0 prints the end-to-end metrics BENCHMARK.json names.  --trace 1
spends half the time untraced and half traced, prints the per-layer metrics,
and writes the spans to .perfbench_out/.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# BLAS and OpenMP get one thread, before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KNOWN_DEFECTS, Raised  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 7
MIN_SAMPLES = 100  # ten latency samples beyond p90
DEADLINE_S = 150.0  # no new pass starts if it would end past this
# ops run in each workload's warm-up, so that lazy imports and first calls
# happen before timing
WARMUP = {
    "scalar": ("0/evaluate_norm/lp2/3", "0/dual_norm/lp2/3", "0/nip_check/lp1/(3, 4)",
               "0/cli/norm/lp:2"),
    "chain": ("0/chain_check/l2/lp2/n1d1",),
    "operators": ("0/pi_lambda/d1e1", "0/injective_norm/0"),
}
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
    "fail_ratio": "ratio", "ref_gap_mean": "ratio", "ref_gap_max": "ratio",
    "peak_rss_mb": "MB",
}


class DeterminismError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    last = name.rsplit(".", 1)[-1]
    return {"calls": "count", "evals": "count", "evals_per_s": "1/s",
            "short_us": "us", "long_us": "us"}.get(last, "s")


# ---------------------------------------------------------------------------
# Results as comparable fingerprints


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.shape}{obj.dtype}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, int, bool, str, type(None), np.floating, np.integer)):
        h.update(repr(obj).encode())
    elif isinstance(obj, Raised):
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            if key != "elapsed_ms":  # wall time in CLI reports
                h.update(str(key).encode())
                _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif callable(obj):
        h.update(getattr(obj, "__qualname__", "fn").encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:24]


def source_hash(root: str) -> str:
    """Hash of the library and benchmark sources: runs are compared within it."""
    h = hashlib.sha256()
    for sub in (("src", "seqsum"), ("perfbench",)):
        pkg = os.path.join(root, *sub)
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Set-up


def import_seconds() -> float:
    """Time to import seqsum in a fresh interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import seqsum; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout)


def load_seqsum():
    mods = {name: importlib.import_module(name) for name in tracing.MODULES}
    sq = types.SimpleNamespace(**{name.split(".")[-1]: mod for name, mod in mods.items()})
    return mods, sq


def build(sq, workload: str, seed: int, out_dir: str):
    stream = list(workloads.DECKS).index(workload)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    return workloads.build_deck(sq, workload, rng, out_dir)


def setup(sq, workload, seed, out_dir):
    """Import, build the deck and warm up, SETUP_REPEATS times; median time."""
    times, deck = [], None
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        deck = None  # only one deck alive at a time, for a steady peak_rss_mb
        t0 = perf_counter()
        deck = build(sq, workload, seed, out_dir)
        by_key = {op.key: op for op in deck}
        for key in WARMUP[workload]:
            by_key[key].call()
        times.append(imported + perf_counter() - t0)
    keys = [op.key for op in deck]
    if len(set(keys)) != len(keys):
        raise RuntimeError("deck keys are not unique")
    return deck, statistics.median(times)


# ---------------------------------------------------------------------------
# The closed loop


class Phase:
    """Whole passes of the deck; records latencies and checks repeats."""

    def __init__(self, deck, instrument, traced: bool):
        self.deck = deck
        self.instrument = instrument
        self.traced = traced
        self.latencies: list[float] = []
        self.results: list = [None] * len(deck)
        self.prints: list = [None] * len(deck)
        self.passes = 0
        self.per_pass: list[dict] = []

    def _counts(self) -> dict:
        counts = self.instrument.totals()
        flat = {f"{k}.{name}": v for k, d in counts.items() for name, v in d.items()}
        if self.traced:
            flat["spaces.evaluate_norm.calls"] = self.instrument.evaluate_calls()
        return flat

    def run(self, budget_s: float, min_passes: int, t_start: float):
        before = self._counts()
        while True:
            for i, op in enumerate(self.deck):
                t0 = perf_counter()
                try:
                    res = self.instrument.run_op(i, op.call) if self.traced else op.call()
                except Exception as exc:  # a failed op is a result to check
                    res = Raised(exc)
                self.latencies.append(perf_counter() - t0)
                fp = fingerprint(res)
                if self.passes == 0:
                    self.results[i], self.prints[i] = res, fp
                elif fp != self.prints[i]:
                    raise DeterminismError(f"op {op.key} gave a different result in pass "
                                           f"{self.passes + 1}")
            self.passes += 1
            now = self._counts()
            self.per_pass.append({k: now[k] - before.get(k, 0) for k in now})
            before = now
            if self.per_pass[-1] != self.per_pass[0]:
                raise DeterminismError(f"counts changed between passes: {self.per_pass}")
            mean_pass = self.busy / self.passes
            target = max(min_passes, round(budget_s / mean_pass))
            if self.passes >= target or perf_counter() - t_start + mean_pass > DEADLINE_S:
                return

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy


def measure(deck, instrument, budget_s, min_passes, t_start) -> Phase:
    """Run the deck under a Counter or Tracer, which is removed afterwards."""
    phase = Phase(deck, instrument, traced=isinstance(instrument, tracing.Tracer))
    try:
        phase.run(budget_s, min_passes, t_start)
    finally:
        instrument.restore()
    return phase


def check_determinism(out_dir, workload, seed, root, phases):
    """Same values and counts across phases and across runs of this seed."""
    first = phases[0]
    record = {"values": first.prints, "counts": first.per_pass[0]}
    for other in phases[1:]:
        if other.prints != first.prints:
            bad = [op.key for op, a, b in zip(first.deck, first.prints, other.prints) if a != b]
            raise DeterminismError(f"traced and untraced results differ: {bad[:5]}")
        shared = set(first.per_pass[0]) & set(other.per_pass[0])
        for key in shared:
            if first.per_pass[0][key] != other.per_pass[0][key]:
                raise DeterminismError(f"{key} differs between traced and untraced runs")
        record["counts"] = {**record["counts"], **other.per_pass[0]}
    path = os.path.join(out_dir, f"digest-{workload}-{seed}-{source_hash(root)}.json")
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old["values"] != record["values"]:
            raise DeterminismError(f"results differ from an earlier run of seed {seed}")
        for key in set(old["counts"]) & set(record["counts"]):
            if old["counts"][key] != record["counts"][key]:
                raise DeterminismError(f"{key} differs from an earlier run of seed {seed}")
        record["counts"] = {**old["counts"], **record["counts"]}
    with open(path, "w") as fh:
        json.dump(record, fh)
    return record["counts"]


# ---------------------------------------------------------------------------
# Metrics


def verify(deck, results):
    verdicts = []
    for op, res in zip(deck, results):
        try:
            verdicts.append(op.check(res))
        except Exception as exc:  # an unexpected result shape fails the op
            verdicts.append(workloads.Verdict(False, [], [f"check raised {exc!r}"]))
    return verdicts


def environment() -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def end_to_end(phase: Phase, verdicts, setup_s: float) -> dict:
    lat = np.array(phase.latencies)
    failing = sum(1 for v in verdicts if not v.ok)
    gaps = [g for v in verdicts for g in v.gaps]
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "latency_p50_s": float(np.percentile(lat, 50)),
        "latency_p90_s": float(np.percentile(lat, 90)),
        "fail_ratio": failing / len(verdicts),
        "ref_gap_mean": statistics.fmean(gaps),
        "ref_gap_max": max(gaps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def load_metric_table(root: str):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    for name, unit in e2e:
        if END_TO_END_UNITS.get(name) != unit:
            raise SystemExit(f"BENCHMARK.json: end-to-end metric {name} [{unit}] is not measured")
    for name, unit in layers:
        if layer_unit(name) != unit:
            raise SystemExit(f"BENCHMARK.json: per-layer metric {name} has unit {unit}, "
                             f"expected {layer_unit(name)}")
    return e2e, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "seqsum", "__init__.py")):
        print("perfbench: run from the root of a seqsum checkout (src/seqsum is missing)",
              file=sys.stderr)
        return 2
    e2e_table, layer_table = load_metric_table(root)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    sys.path.insert(0, os.path.join(root, "src"))
    modules, sq = load_seqsum()

    deck, setup_s = setup(sq, args.workload, args.seed, out_dir)
    keys = [op.key for op in deck]
    try:
        if args.trace:
            plain = measure(deck, tracing.Counter(modules), args.seconds / 2, 1, t_start)
            tracer = tracing.Tracer(modules)
            traced = measure(deck, tracer, args.seconds / 2, 1, t_start)
            phases = [plain, traced]
        else:
            plain = measure(deck, tracing.Counter(modules), args.seconds,
                            -(-MIN_SAMPLES // len(deck)), t_start)
            phases = [plain]
        counts = check_determinism(out_dir, args.workload, args.seed, root, phases)
    except DeterminismError as exc:
        print(f"perfbench: DETERMINISM FAILURE: {exc}", file=sys.stderr)
        return 1

    verdicts = verify(deck, plain.results)
    unexpected = [(k, v) for k, v in zip(keys, verdicts) if not v.ok and v.defect is None]
    known = [(k, v) for k, v in zip(keys, verdicts) if not v.ok and v.defect is not None]
    failed = sum(1 for v in verdicts if not v.ok) * plain.passes
    e2e = end_to_end(plain, verdicts, setup_s)

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"deck={len(deck)} ops passes={plain.passes} samples={len(plain.latencies)} "
          f"beyond_p90={int(np.sum(np.array(plain.latencies) > e2e['latency_p90_s']))}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in e2e.items():
        print(f"  {name:<16} {value:.6g} {END_TO_END_UNITS[name]}")
    for defect in sorted({v.defect for _, v in known}):
        hits = [k for k, v in known if v.defect == defect]
        print(f"  known defect {defect}: {len(hits)} ops, e.g. {hits[0]}: {KNOWN_DEFECTS[defect]}")
    for key, v in unexpected[:20]:
        print(f"  FAILED {key}: {'; '.join(v.reasons)}")
    worst = max(zip(keys, verdicts), key=lambda kv: max(kv[1].gaps, default=0.0))
    print(f"  largest reference gap: {max(worst[1].gaps, default=0.0):.3g} at {worst[0]}")
    print("  deterministic counts per pass: " + json.dumps(counts, sort_keys=True))

    if args.trace:
        layers = tracer.layer_metrics(traced.passes)
        layers["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"), keys)
        print("  patched bindings: " + json.dumps(tracer.patches.bindings, sort_keys=True))
        for name, value in layers.items():
            print(f"  {name:<48} {value:.6g} {layer_unit(name)}")
        table, values = layer_table, layers
    else:
        table, values = e2e_table, e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    result = {"correct": not unexpected, "attempted": len(plain.latencies),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "end_to_end": e2e, "environment": env,
                   "known_defects": {k: KNOWN_DEFECTS[v.defect] for k, v in known},
                   "unexpected_failures": {k: v.reasons for k, v in unexpected}}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
