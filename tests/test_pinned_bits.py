"""Bits of a few searched results, frozen.

A change that only makes the search engine or the evaluators cheaper must
leave these untouched: the value as float.hex(), the evaluation count and a
hash of the witness's bytes, so that even a -0.0 turned into 0.0 shows.
The bits were taken on x86-64 with numpy 2.4 and OpenBLAS; another BLAS or
libm may round an SVD or a power differently, and then these move with it.
"""

import hashlib

import numpy as np
import pytest

from seqsum import optim, spaces, summing, tensor, vector_norms as vn
from seqsum.optim import OptBudget
from seqsum.spaces import OrliczFunction, WeightSeq

BUDGET = OptBudget(restarts=3, iterations=100, seed=21)


def _draw(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


def _chain(dom, p, shape, seed):
    xs = vn.VectorSequence(vn.oracle_from_label(dom), _draw(seed, shape))
    report = vn.chain_check(spaces.lp(p), xs, budget=BUDGET)
    return {"weak": report.weak, "mid": report.mid}


def _operator(seed):
    return summing.OperatorMatrix(vn.lp_oracle(2, 2), vn.lp_oracle(3, 3), _draw(seed, (3, 2)))


CASES = {
    # the seed's -0.0 is a coordinate whose moves never improve: the winning
    # witness keeps it as it is
    "maximize_over_ball": lambda: {"": optim.maximize_over_ball(
        lambda X: X @ np.array([1.0, 0.0, 2.0]), vn.lp_oracle(2, 3).ball(), BUDGET,
        seeds=[np.array([0.6, -0.0, 0.8])])},
    "chain l2:3 lp3": lambda: _chain("l2:3", 3, (3, 3), 1),
    "chain l1:3 lp2": lambda: _chain("l1:3", 2, (3, 3), 10),
    "chain linf:2 lp1": lambda: _chain("linf:2", 1, (4, 2), 3),
    "pi_lambda": lambda: {"": summing.pi_lambda(spaces.lp(3), _operator(4), 3, budget=BUDGET)},
    "w_lambda_mid": lambda: {"": summing.w_lambda_mid(spaces.lp(3), _operator(5), 3, m=3,
                                                      budget=BUDGET)},
    "gamma_lambda": lambda: {"": tensor.gamma_lambda(
        spaces.lp(3), tensor.Tensor(vn.lp_oracle(2, 2), vn.lp_oracle(2, 2), _draw(6, (2, 2))),
        budget=BUDGET)},
    "dual_norm lorentz": lambda: {"": spaces.dual_norm(
        spaces.lorentz(WeightSeq(prefix=(1.0,), tail="geometric:0.5"), 1.5), _draw(7, 4),
        budget=BUDGET, method="optimize")},
    "dual_norm orlicz": lambda: {"": spaces.dual_norm(
        spaces.orlicz(OrliczFunction("power_log", 1.5)), _draw(8, 4), budget=BUDGET,
        method="optimize")},
}


def _bits(w):
    witness = hashlib.sha256(np.ascontiguousarray(w.witness, dtype=float).tobytes())
    return w.value.hex(), w.details.get("evals"), witness.hexdigest()[:16]


# (value.hex(), details["evals"], witness hash) of each result; evals is None
# where a closed form or operator_norm's ascent answers without a search, and
# counts the rows that mid's exits and ascent score
PINNED = {
    "maximize_over_ball": {
        "": ("0x1.1e3779b97f4a8p+1", 1132, "0e89f6e7ba05d978"),
    },
    "chain l2:3 lp3": {
        "weak": ("0x1.b8fbdf348812dp+0", None, "05fb0e6bed027a5d"),
        "mid": ("0x1.c8f4538099cdap+0", 3545, "78eaacd000503145"),
    },
    "chain l1:3 lp2": {
        "weak": ("0x1.b361b4a7b980ap+1", None, "cc143326a2646c60"),
        # mid's power ascent on l1, one ulp above the compass it replaced
        # (0x1.b361b4a7b980ap+1 after 3,176 evaluations)
        "mid": ("0x1.b361b4a7b980bp+1", 52, "473830010bae0a13"),
    },
    "chain linf:2 lp1": {
        "weak": ("0x1.3ba03589a2f0bp+2", None, "3239b05c38b825eb"),
        "mid": ("0x1.58ae6af14f746p+2", 2085, "a9e58cee871adbcc"),
    },
    "pi_lambda": {
        "": ("0x1.134745323d219p+1", 1337, "ef0fe8df979ba082"),
    },
    "w_lambda_mid": {
        "": ("0x1.9a8ee9d68d206p+0", 8457, "2b0fd262f2cb917b"),
    },
    "gamma_lambda": {
        "": ("0x1.1b3a6a6d34331p+2", 317, "f56f96430db012a3"),
    },
    "dual_norm lorentz": {
        "": ("0x1.036bd24e5716ap+0", 1, "a926ba8ffb5c4dac"),
    },
    "dual_norm orlicz": {
        "": ("0x1.a2b38d261b671p+1", 1853, "5427c6ddfb22d297"),
    },
}


@pytest.mark.parametrize("name", list(CASES))
def test_results_keep_their_bits(name):
    got = {part: _bits(w) for part, w in CASES[name]().items()}
    assert got == PINNED[name]
