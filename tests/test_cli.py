"""Command surface: DSL, exit codes, reports, determinism."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from seqsum import cli, spaces, summing, tensor, vector_norms as vn
from seqsum.optim import OptBudget, Witnessed
from seqsum.spaces import SpecValidationError


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# space DSL


def test_parse_space_lp_variants():
    assert cli.parse_space("lp:2").p == 2.0
    assert math.isinf(cli.parse_space("lp:inf").p)
    assert cli.parse_space("c0").family == "c0"


def test_parse_space_weighted_families():
    lor = cli.parse_space("lorentz:geometric:0.5:p=1")
    assert lor.family == "garling_mu" and lor.p == 1.0
    assert np.allclose(lor.weights.materialize(3), [1.0, 0.5, 0.25])
    gm = cli.parse_space("garling_mu:power:1.5:p=2")
    w = gm.weights.materialize(3)
    assert w[0] == 1.0 and w[1] == pytest.approx(2.0 ** -1.5)
    sm = cli.parse_space("sargent_m:sqrt")
    assert np.allclose(sm.weights.materialize(2), [1.0, math.sqrt(2.0)])
    sn = cli.parse_space("sargent_n:power:0.5")
    assert sn.weights.materialize(4)[3] == pytest.approx(2.0)
    const = cli.parse_space("sargent_m:const")
    assert np.allclose(const.weights.materialize(3), [1.0, 1.0, 1.0])


def test_parse_space_rejects_bad_input():
    with pytest.raises(SpecValidationError):
        cli.parse_space("lorentz:bad")
    with pytest.raises(SpecValidationError):
        cli.parse_space("nosuch:1")
    with pytest.raises(SpecValidationError):
        cli.parse_space("lp:0.2")


# ---------------------------------------------------------------------------
# compute commands


def test_norm_command_prints_value(capsys):
    code, out, _ = run_cli(["norm", "--space", "lp:2", "--seq", "[3,4]"], capsys)
    assert code == 0
    assert out.strip() == "5"


def test_norm_command_invalid_space_exit_3(capsys):
    code, _, err = run_cli(["norm", "--space", "lorentz:bad", "--seq", "[1]"],
                           capsys)
    assert code == 3
    assert "lorentz" in err or "invalid" in err


def test_norm_command_malformed_seq_exit_2(capsys):
    code, _, _ = run_cli(["norm", "--space", "lp:2", "--seq", "oops"], capsys)
    assert code == 2


_VECTORS = '{"oracle": "l2:2", "vectors": [[1, 0], [0, 1]]}'
_HUGE_ROWS = "[[1.7e308, 1.7e308], [1, 1]]"
_HUGE_VECTORS = '{"oracle": "l2:2", "vectors": [[1.7e308, 1.7e308]]}'
_HUGE_OPERATOR = f'{{"domain": "l2:2", "codomain": "l2:2", "rows": {_HUGE_ROWS}}}'
_HUGE_TENSOR = f'{{"domain": "l2:2", "codomain": "l2:2", "entries": {_HUGE_ROWS}}}'
# finite entries whose norms overflow; in huge-pi-sum only the sum of two
# finite row lengths does
_HUGE_ARGVS = {
    **{f"huge-{kind}": ["vecnorm", "--kind", kind, "--space", "lp:1", "--vectors", _HUGE_VECTORS]
       for kind in ("strong", "weak", "mid", "chain")},
    **{f"huge-{kind}": ["summing", "--kind", kind, "--space", "lp:2", "--operator",
                        _HUGE_OPERATOR] for kind in ("w-mid", "pi-mid", "pi")},
    "huge-pi-sum": ["summing", "--kind", "pi", "--space", "lp:2", "--operator",
                    '{"domain": "l2:1", "codomain": "l2:2", "rows": [[1e308], [1e308]]}'],
    **{f"huge-{kind}": ["tensor", "--kind", kind, "--space", "lp:2", "--tensor", _HUGE_TENSOR]
       for kind in ("gamma", "gamma-c", "injective")},
}


@pytest.mark.parametrize("argv, want", [
    (["vecnorm", "--kind", "mid", "--space", "lp:2", "--vectors", _VECTORS, "--m", "0"], 2),
    (["summing", "--kind", "pi", "--space", "lp:2", "--n", "0",
      "--operator", '{"domain": "l2:1", "codomain": "l2:1", "rows": [[1.0]]}'], 2),
    (["vecnorm", "--kind", "weak", "--space", "lp:2", "--vectors", _VECTORS,
      "--restarts", "0"], 2),
    (["verify", "--suite", "holder", "--trials", "0"], 2),
    (["norm", "--space", "lp:nan", "--seq", "[1, 2]"], 3),
    (["vecnorm", "--kind", "weak", "--space", "lp:2", "--vectors", _VECTORS,
      "--seed", "-1"], 2),
    # valid JSON of the wrong shape; after --space-file stands the file's body
    *[(["norm", "--space-file", body, "--seq", "[1, 2]"], 3) for body in (
        '{"family": "lp", "params": {"p": "x"}}',
        '{"family": "lp", "params": {}}',
        '{"family": "garling_mu", "params": {"weights": "geometric:0.5"}}',
        '{"family": "orlicz", "params": {"M": {"kind": "power"}}}',
        '{"family": "sargent_m", "params": {"weights": 5}}',
        '{"family": "lp", "params": []}')],
    (["vecnorm", "--kind", "weak", "--space", "lp:2",
      "--vectors", '{"oracle": 5, "vectors": [[1]]}'], 2),
    (["summing", "--kind", "pi", "--space", "lp:2",
      "--operator", '{"domain": 2, "codomain": "l2:1", "rows": [[1.0]]}'], 2),
    (["tensor", "--kind", "gamma", "--space", "lp:2",
      "--tensor", '{"domain": null, "codomain": "l2:1", "entries": [[1.0]]}'], 2),
    # a sequence is a flat JSON array
    (["norm", "--space", "lp:2", "--seq", "[[1,2],[3,4]]"], 2),
    (["norm", "--space", "lp:2", "--seq", "3"], 2),
    (["norm", "--space", "lp:2", "--seq", "true"], 2),
    (["dual-norm", "--space", "lp:2", "--seq", "[[1,2],[3,4]]"], 2),
    # every part of a DSL space is read, and p= only by the decay families
    *[(["norm", "--space", space, "--seq", "[1, 2]"], 3) for space in (
        "lp:2:junk", "c0:foo", "orlicz:power:2:junk", "sargent_m:sqrt:p=2",
        "garling_mu:geometric:0.5:7:p=2")],
    *[(argv, 2) for argv in _HUGE_ARGVS.values()],
], ids=["m-0", "n-0", "restarts-0", "trials-0", "lp-nan", "seed-negative",
        "file-lp-p-string", "file-lp-no-p", "file-mu-no-p", "file-orlicz-no-p",
        "file-weights-int", "file-params-list", "oracle-int", "domain-int", "domain-null",
        "seq-2d", "seq-number", "seq-bool", "dual-seq-2d",
        "dsl-lp-extra", "dsl-c0-extra", "dsl-orlicz-extra", "dsl-sargent-p",
        "dsl-mu-extra-part",
        *_HUGE_ARGVS])
def test_malformed_input_exits_2_or_3(argv, want, tmp_path, capsys):
    if "--space-file" in argv:
        i = argv.index("--space-file") + 1
        path = tmp_path / "space.json"
        path.write_text(argv[i])
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    code, out, err = run_cli(argv, capsys)
    assert code == want
    assert out == ""
    assert "Traceback" not in err


def test_overflowing_input_is_out_of_range(capsys):
    # one error line and no NumPy warning, for every overflowing command
    for argv in _HUGE_ARGVS.values():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv, capsys)
        assert code == 2 and not caught, argv
        assert err.startswith("error: input out of range: ") and err.count("\n") == 1, argv


def test_unwritable_report_exit_4(capsys):
    code, _, _ = run_cli(
        ["norm", "--space", "lp:2", "--seq", "[3,4]",
         "--out", "/nonexistent-dir/r.json"], capsys)
    assert code == 4


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["norm", "--space", "lp:2", "--seq", "[1]", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dual_norm_command(capsys):
    code, out, _ = run_cli(["dual-norm", "--space", "lp:1", "--seq", "[1,-2,3]"],
                           capsys)
    assert code == 0
    assert out.strip() == "3"


@pytest.mark.parametrize("space", ["lp:1.5", "garling_mu:geometric:0.5:p=1.5",
                                   "orlicz:power:2"])
def test_dual_norm_command_huge_input(space, tmp_path, capsys):
    seq, out_path = "[1e300,1e300]", tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["dual-norm", "--space", space, "--seq", seq,
                                "--out", str(out_path)], capsys)
    assert code == 0, err
    value = json.loads(out_path.read_text())["results"][0]["value"]
    dual = spaces.kothe_dual_spec(cli.parse_space(space))
    assert value == pytest.approx(spaces.evaluate_norm(dual, json.loads(seq)), rel=1e-12)


def _report_values(argv, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 0, err
    return [row["value"] for row in json.loads(out_path.read_text())["results"]]


@pytest.mark.parametrize("kind", ["weak", "mid", "chain"])
@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_vecnorm_command_tiny_and_huge_vectors(kind, scale, tmp_path, capsys):
    # the seed directions neither underflow nor overflow
    rows = np.array([[0.3, -1.2], [2.0, 0.7], [-0.4, 0.9]])

    def values(s):
        vectors = json.dumps({"oracle": "l2:2", "vectors": (s * rows).tolist()})
        return _report_values(["vecnorm", "--kind", kind, "--space", "lp:3",
                               "--vectors", vectors], tmp_path, capsys)

    want = values(1.0)
    got = values(scale)
    assert got == pytest.approx([scale * w for w in want], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["gamma", "gamma-c"])
@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_tensor_command_huge_entries(kind, scale, tmp_path, capsys):
    # the reconstruction check is relative to the entries
    entries = np.array([[1.0, 0.4], [-0.3, 2.0]])

    def value(s):
        u = json.dumps({"domain": "l2:2", "codomain": "l2:2",
                        "entries": (s * entries).tolist()})
        return _report_values(["tensor", "--kind", kind, "--space", "lp:2",
                               "--tensor", u], tmp_path, capsys)[0]

    assert value(scale) == pytest.approx(scale * value(1.0), rel=1e-12, abs=0.0)


def test_dual_norm_command_garling_mu_default_p1(capsys):
    # the DSL default is p = 1, whose dual is nu at p = 1: max_n Y_n / W_n,
    # here max(3/1, 5/1.5, 6/1.75) = 24/7
    code, out, _ = run_cli(["dual-norm", "--space", "garling_mu:geometric:0.5",
                            "--seq", "[1,3,2]"], capsys)
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(24.0 / 7.0, rel=1e-12)


def test_dual_norm_command_optimize_stops_at_the_analytic_dual(tmp_path, capsys):
    # the search's certified bound is nu, and the level function's witness meets it
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(["dual-norm", "--method", "optimize",
                            "--space", "garling_mu:geometric:0.5", "--seq", "[1,3,2]",
                            "--out", str(out_path)], capsys)
    assert code == 0, err
    row = json.loads(out_path.read_text())["results"][0]
    assert row["bound_direction"] == "exact"
    assert row["certified_bound"] == pytest.approx(24.0 / 7.0, rel=1e-12)
    assert row["value"] == pytest.approx(row["certified_bound"], rel=1e-12)


def test_space_file_escape_hatch(tmp_path, capsys):
    spec = spaces.lorentz(spaces.WeightSeq(prefix=(1.0,), tail="geometric:0.5"),
                          1.0)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run_cli(["norm", "--space-file", str(path), "--seq", "[1,2]"],
                           capsys)
    assert code == 0
    assert out.strip() == "2.5"


def test_vecnorm_chain_command(capsys):
    code, out, _ = run_cli(
        ["vecnorm", "--kind", "chain", "--space", "lp:2",
         "--vectors", '{"oracle": "l2:2", "vectors": [[3, 4], [0, 1]]}',
         "--restarts", "3", "--iterations", "100"], capsys)
    assert code == 0
    assert "ok=True" in out


def test_summing_command(capsys):
    code, out, _ = run_cli(
        ["summing", "--kind", "pi", "--space", "lp:1",
         "--operator", '{"domain": "l2:1", "codomain": "l2:1", "rows": [[1.0]]}',
         "--n", "2", "--restarts", "2", "--iterations", "60"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-6)


def test_tensor_command(capsys):
    code, out, _ = run_cli(
        ["tensor", "--kind", "injective", "--space", "lp:2",
         "--tensor",
         '{"domain": "l2:2", "codomain": "l2:2", "entries": [[1, 0], [0, 1]]}',
         "--restarts", "2", "--iterations", "60"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-6)


_SEQ = "[1, -2, 0.5]"
_OP = '{"domain": "l2:2", "codomain": "l3:2", "rows": [[1, 0.5], [0.2, -1]]}'
_TN = '{"domain": "l2:2", "codomain": "l2:2", "entries": [[1, 0.3], [0.2, -1]]}'
_SMALL = OptBudget(restarts=2, iterations=40, seed=1729)


def _library_results(sub, kind):
    """What the library gives for the inputs of the compute case (sub, kind)."""
    lam = spaces.lp(3)
    xs = vn.VectorSequence.from_json(json.loads(_VECTORS))
    T = summing.OperatorMatrix.from_json(json.loads(_OP))
    u = tensor.Tensor.from_json(json.loads(_TN))
    calls = {
        ("norm", None): lambda: [spaces.evaluate_norm(lam, json.loads(_SEQ))],
        ("dual-norm", None): lambda: [spaces.dual_norm(lam, json.loads(_SEQ), budget=_SMALL)],
        ("vecnorm", "strong"): lambda: [vn.strong_norm(lam, xs)],
        ("vecnorm", "weak"): lambda: [vn.weak_norm(lam, xs, budget=_SMALL)],
        ("vecnorm", "weak-star"): lambda: [vn.weak_star_norm(lam, xs, budget=_SMALL)],
        ("vecnorm", "mid"): lambda: [vn.mid_norm(lam, xs, m=2, budget=_SMALL)],
        ("vecnorm", "chain"): lambda: [
            (rep := vn.chain_check(lam, xs, m=2, budget=_SMALL)).weak, rep.mid, rep.strong],
        ("summing", "pi"): lambda: [summing.pi_lambda(lam, T, n=2, budget=_SMALL)],
        ("summing", "pi-mid"): lambda: [summing.pi_lambda_mid(lam, T, n=2, budget=_SMALL)],
        ("summing", "w-mid"): lambda: [summing.w_lambda_mid(lam, T, n=2, m=2, budget=_SMALL)],
        ("tensor", "gamma"): lambda: [tensor.gamma_lambda(lam, u, budget=_SMALL)],
        ("tensor", "gamma-c"): lambda: [tensor.gamma_lambda_c(lam, u, blocks=2,
                                                              budget=_SMALL)],
        ("tensor", "injective"): lambda: [tensor.injective_norm(u, budget=_SMALL)],
    }
    return calls[sub, kind]()


_INPUTS = {"norm": ["--seq", _SEQ], "dual-norm": ["--seq", _SEQ],
           "vecnorm": ["--vectors", _VECTORS, "--m", "2"],
           "summing": ["--operator", _OP, "--n", "2", "--m", "2"],
           "tensor": ["--tensor", _TN, "--blocks", "2"]}


@pytest.mark.parametrize("sub, kind", [
    ("norm", None), ("dual-norm", None),
    *[("vecnorm", k) for k in ("strong", "weak", "weak-star", "mid", "chain")],
    *[("summing", k) for k in ("pi", "pi-mid", "w-mid")],
    *[("tensor", k) for k in ("gamma", "gamma-c", "injective")],
])
def test_every_compute_reports_its_witnessed(sub, kind, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    argv = [sub, *(["--kind", kind] if kind else []), "--space", "lp:3", *_INPUTS[sub],
            "--restarts", "2", "--iterations", "40", "--out", str(out_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    report = cli.parse_report(out_path.read_text())
    rows, printed = report["results"], out.split()
    if kind == "chain":
        assert printed.pop() == "ok=True"
    assert len(printed) == len(rows)
    for word, row, res in zip(printed, rows, _library_results(sub, kind)):
        assert float(word) == pytest.approx(row["value"], rel=1e-11, abs=0.0)
        assert row["value"] == pytest.approx(getattr(res, "value", res), rel=1e-12)
        assert ("witness" in row) == (getattr(res, "witness", None) is not None)
        assert row.get("certified_bound") == getattr(res, "certified_bound", None)
    # the subcommand and every option given, input JSON included, are echoed
    config = report["config"]
    assert config["subcommand"] == sub and config.get("kind") == kind
    for flag, val in zip(argv[1::2], argv[2::2]):
        assert str(config[flag[2:].replace("-", "_")]) == val


def test_failed_chain_exits_1_and_writes_report(tmp_path, monkeypatch, capsys):
    def failing_chain(spec, xs, m, budget):
        weak = Witnessed(2.0, np.ones(2), "lower-of-sup", True)
        mid = Witnessed(1.0, np.ones(2), "lower-of-sup", True)
        return vn.ChainReport(weak=weak, mid=mid, strong=3.0, violations=("weak > mid",))

    monkeypatch.setattr(vn, "chain_check", failing_chain)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["vecnorm", "--kind", "chain", "--space", "lp:2",
                            "--vectors", _VECTORS, "--out", str(out_path)], capsys)
    assert code == 1
    assert out.strip() == "2 1 3 ok=False"
    rows = cli.parse_report(out_path.read_text())["results"]
    assert [(r["name"], r["value"], "witness" in r) for r in rows] == [
        ("weak", 2.0, True), ("mid", 1.0, True), ("strong", 3.0, False)]


# ---------------------------------------------------------------------------
# reports


def test_report_roundtrip_and_witness(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["dual-norm", "--space", "lp:2", "--seq", "[3,4]",
         "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    report = cli.parse_report(text)
    assert cli.parse_report(cli.emit_report(report["results"],
                                            report["config"])) == report
    row = report["results"][0]
    assert set(row) >= {"name", "value", "bound_direction", "converged",
                        "elapsed_ms"}
    # the stored witness reproduces the reported value through the library
    witness = np.array(row["witness"])
    pairing = float(np.sum(np.abs(witness * np.array([3.0, 4.0]))))
    assert pairing == pytest.approx(row["value"], abs=1e-9)


def test_csv_report_drops_witness(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        ["dual-norm", "--space", "lp:2", "--seq", "[3,4]",
         "--format", "csv", "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["name", "value", "bound_direction", "converged",
                       "elapsed_ms", "certified_bound"]
    assert len(rows) == 2
    assert "witness" not in ",".join(rows[0])
    # the analytic dual carries no certified bound: its cell is empty
    assert rows[1][-1] == ""


def test_csv_report_carries_certified_bound(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        ["summing", "--kind", "pi", "--space", "lp:2", "--n", "2", "--format", "csv",
         "--operator", '{"domain": "l2:1", "codomain": "l2:1", "rows": [[2.0]]}',
         "--out", str(out_path)], capsys)
    assert code == 0
    header, row = csv.reader(out_path.read_text().splitlines())
    assert dict(zip(header, row))["certified_bound"] == "2.0"


def test_emit_report_rejects_empty():
    with pytest.raises(ValueError):
        cli.emit_report([], {})


# ---------------------------------------------------------------------------
# verify suites


def test_verify_holder_large_trial_count(tmp_path, capsys):
    out_path = tmp_path / "holder.json"
    code, _, _ = run_cli(
        ["verify", "--suite", "holder", "--trials", "1000", "--seed", "7",
         "--out", str(out_path)], capsys)
    assert code == 0
    report = cli.parse_report(out_path.read_text())
    total = [r for r in report["results"] if r["name"] == "holder-violations"]
    assert total and total[0]["value"] == 0.0


def test_verify_chain_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "chain", "--trials", "2",
                            "--seed", "3"], capsys)
    assert code == 0
    report = cli.parse_report(out)
    names = [r["name"] for r in report["results"]]
    assert any(n.startswith("chain[") for n in names)
    assert "chain-violations" in names
    # a pass flag is computed exactly, whatever the direction of the values it checks
    assert all(r["bound_direction"] == "exact" for r in report["results"])


def test_verify_iteration_suite_flags_scale_families(capsys):
    code, out, _ = run_cli(["verify", "--suite", "iteration", "--trials", "40",
                            "--seed", "3"], capsys)
    # the scale families genuinely fail the row/column exchange, so the
    # suite reports violations and exits 1
    assert code == 1
    report = cli.parse_report(out)
    per_family = {r["name"]: r["value"] for r in report["results"]
                  if r["name"].startswith("iteration[")}
    assert any(v > 1e-9 for v in per_family.values())
    lp_rows = [v for k, v in per_family.items() if "lp(" in k]
    assert all(v <= 1e-9 for v in lp_rows)


def test_verify_determinism_same_argv(tmp_path, capsys):
    argv = ["verify", "--suite", "holder", "--trials", "60", "--seed", "11",
            "--out", str(tmp_path / "r.json")]
    assert cli.run(argv) == 0
    capsys.readouterr()
    first = (tmp_path / "r.json").read_text()
    assert cli.run(argv) == 0
    capsys.readouterr()
    second = (tmp_path / "r.json").read_text()

    def strip(text):
        rep = cli.parse_report(text)
        for row in rep["results"]:
            row.pop("elapsed_ms")
        return rep

    assert strip(first) == strip(second)
