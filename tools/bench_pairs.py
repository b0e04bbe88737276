"""Run the benchmark in alternating pairs on two revisions; write BENCH_<label>.json.

Each revision is extracted with `git archive` into its own directory, and
`python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0` runs
from its root.  For its runs a tree is moved to one path that both sides
share, so that the paths in results (the CLI's report paths) are equal.
Pair i of a workload runs both sides on the same seed; the parent runs first
when i is even, the change first when i is odd.  The file records every
run's result (perfbench's result-<W>-<S>-trace0.json), and per workload and
end-to-end metric the median and quartiles of each side, the number of pairs
the change won, whether the change's median is within the metric's bound of
the parent's, and a verdict: gain, within_bound, unresolved or regressed (see
verdict).  Per workload it also records values_identical: whether the two
sides' digests (perfbench's digest-<W>-<S>-*.json, the fingerprints of every
op's result and the deterministic counts) are equal in every pair, and
digest_diff: for each pair, how many op fingerprints differ and which
counters differ, with both sides' counts (see digest_diff).  The metrics,
the direction in which each is better and its relative bound are read from
the change's BENCHMARK.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label LABEL \\
        --what "one line on the change" --seed-base 2500

With --seed-base B the k-th workload listed runs seeds B + 100 k + 1 to
B + 100 k + 10.  Ten 30 s pairs of three workloads take about 35 minutes
on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 30
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0"
PROTOCOL = ("alternating pairs: in pair i the parent runs first when i is even; "
            "each side runs from its own git archive, moved to one shared path for its runs")


def extract(rev: str, dest: str) -> None:
    """Write the tree of rev into dest, as git archive has it."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(root: str, workload: str, seed: int) -> dict:
    """One benchmark run from root; its result file, or the reason it has none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    path = os.path.join(root, ".perfbench_out", f"result-{workload}-{seed}-trace0.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"correct": False, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    with open(path) as fh:
        return json.load(fh)


def run_side(tmp: str, side: str, workload: str, seed: int) -> dict:
    """run_once on side's tree in tmp, moved for the run to the path that
    both sides share."""
    tree, shared = os.path.join(tmp, side), os.path.join(tmp, "tree")
    os.rename(tree, shared)
    try:
        return run_once(shared, workload, seed)
    finally:
        os.rename(shared, tree)


def digest(root: str, workload: str, seed: int) -> dict | None:
    """The digest that a run of workload and seed left in root, or None."""
    paths = glob.glob(os.path.join(root, ".perfbench_out", f"digest-{workload}-{seed}-*.json"))
    if len(paths) != 1:
        return None
    with open(paths[0]) as fh:
        return json.load(fh)


def same_digests(a: dict | None, b: dict | None) -> bool:
    """Both digests exist, with equal values and equal counts."""
    return (a is not None and b is not None
            and a["values"] == b["values"] and a["counts"] == b["counts"])


def digest_diff(a: dict | None, b: dict | None) -> dict | None:
    """Where the change's digest b differs from the parent's digest a, or
    None when either is missing.

    ops_differing counts the ops whose fingerprints differ, op by op in the
    order the run made them, an op that only one side made included; ops is
    the change's number of ops.  counters maps each counter whose value
    differs, or that only one side has, to [parent, change], None standing
    for a missing one.
    """
    if a is None or b is None:
        return None
    va, vb = a["values"], b["values"]
    ops = sum(x != y for x, y in zip(va, vb)) + abs(len(va) - len(vb))
    ca, cb = a["counts"], b["counts"]
    counters = {k: [ca.get(k), cb.get(k)] for k in sorted(set(ca) | set(cb))
                if ca.get(k) != cb.get(k)}
    return {"ops_differing": ops, "ops": len(vb), "counters": counters}


def order(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def verdict(parent: list[float], change: list[float], wins: int, sign: float,
            bound: float) -> str:
    """What the pairs show of one metric, sign being 1 where higher is better.

    "gain": the change won at least 9 in 10 pairs, and its median is better
    than the parent's by more than the parent's quartile spread.
    "unresolved": not a gain, the parent's quartile spread is wider than the
    relative bound, and some change run does not beat every parent run.
    "within_bound": neither, and the change's median is worse than the
    parent's by at most the relative bound.  "regressed": anything else.
    """
    q = _quartiles(parent)
    med, spread = q["median"], q["q3"] - q["q1"]
    moved = sign * (float(np.median(change)) - med)
    if wins >= 0.9 * len(parent) and moved > spread:
        return "gain"
    if spread > bound * abs(med) and min(sign * np.array(change)) <= max(sign * np.array(parent)):
        return "unresolved"
    return "within_bound" if -moved <= bound * abs(med) else "regressed"


def summarize(runs: list[dict], metrics: list[tuple[str, str, float]],
              identical: dict[str, list[bool]] | None = None,
              diffs: dict[str, list[dict | None]] | None = None) -> dict:
    """Per workload: each metric's median and quartiles on each side, the
    pairs the change won (strictly better, by the metric's direction),
    within_bound (the change's median is worse than the parent's by at most
    the relative bound), its verdict, and each side's failed ops and runs
    that were not correct.

    runs holds records {"workload", "pair", "side", "result"}; metrics holds
    (name, "higher" or "lower", bound).  A run without metrics counts as not
    correct and is left out of the figures, with its pair.  identical holds,
    per workload, whether each pair's digests were equal; values_identical
    is true when every pair's were.  diffs holds, per workload, each pair's
    digest_diff, recorded as digest_diff.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_pair.values()
                 if all("metrics" in p.get(side, {}) for side in SIDES)]
        summary = {}
        for name, better, bound in metrics if pairs else ():
            vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - a) > 0 for a, c in zip(vals["parent"], vals["change"]))
            quart = {side: _quartiles(vals[side]) for side in SIDES}
            parent, change = quart["parent"]["median"], quart["change"]["median"]
            summary[name] = {**quart, "change_wins": int(wins), "pairs": len(pairs),
                             "within_bound": bool(sign * (parent - change) <= bound * abs(parent)),
                             "verdict": verdict(vals["parent"], vals["change"], wins, sign, bound)}
        summary["failed_ops"] = {side: sum(r["result"].get("failed", 0)
                                           for r in mine if r["side"] == side)
                                 for side in SIDES}
        summary["runs_not_correct"] = {side: sum(not r["result"].get("correct", False)
                                                 for r in mine if r["side"] == side)
                                       for side in SIDES}
        if identical is not None:
            flags = identical.get(workload, [])
            summary["values_identical"] = bool(flags) and all(flags)
        if diffs is not None:
            summary["digest_diff"] = diffs.get(workload, [])
        out[workload] = summary
    return out


def host(runs: list[dict]) -> str:
    for r in runs:
        env = r["result"].get("environment")
        if env:
            pinned = all(v == "1" for v in env["threads"].values())
            return (f"{env['nproc']}-core {env['machine']}, Python {env['python']}, "
                    f"numpy {env['numpy']}, {env['blas']['name']}"
                    + (" pinned to one thread" if pinned else ""))
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--label", required=True)
    ap.add_argument("--what", required=True)
    ap.add_argument("--workloads", default="scalar,chain,operators")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            extract(rev, roots[side])
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
            metrics = [(m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]]
        runs, seeds, identical, diffs = [], {}, {}, {}
        for k, workload in enumerate(workloads):
            first = args.seed_base + 100 * k + 1
            seeds[workload] = f"{first}-{first + PAIRS - 1}"
            for i in range(PAIRS):
                for j, side in enumerate(order(i)):
                    result = run_side(tmp, side, workload, first + i)
                    runs.append({"workload": workload, "seed": first + i, "pair": i,
                                 "side": side, "ran_first": j == 0, "result": result})
                    print(f"{workload} pair {i} {side}: "
                          f"{result.get('metrics', {}).get('ops_per_s', {}).get('value')}",
                          file=sys.stderr, flush=True)
                digests = [digest(roots[side], workload, first + i) for side in SIDES]
                identical.setdefault(workload, []).append(same_digests(*digests))
                diffs.setdefault(workload, []).append(
                    {"seed": first + i, **(digest_diff(*digests) or {"missing": True})})

    report = {"what": args.what, "command": COMMAND,
              "host": host(runs), "protocol": PROTOCOL, "seeds": seeds,
              "summary": summarize(runs, metrics, identical, diffs), "runs": runs}
    with open(f"BENCH_{args.label}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
