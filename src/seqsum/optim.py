"""Witness-certified search over unit balls and free parameter domains.

Sup-defined quantities are reported as lower bounds attained by an explicit
feasible witness; inf-defined quantities as upper bounds attained by an
explicit parameter choice.  The engine is a deterministic multi-start compass
search: derivative free, so it runs unchanged over every norm family here,
including the nonsmooth ones.

Both searches take an optional target, a certified bound on the other side
of the value that the caller computes: an upper bound of a sup, a lower
bound of an inf.  The search stops once its best value is within 1e-12
relative of the target, checked after the seeds and before each restart.  A
result that meets it is "exact" and converged, since the gap is closed; it
keeps its best point as it is, without the polish onto the sphere, which
could raise the value by no more than the 1e-12 that the stop forgives.  One
that does not meet it is the untargeted search's result bit for bit, and
either carries the target as certified_bound.  Otherwise converged is the
flag of the restart that produced the witness.

Determinism contract: identical inputs and budget (including the seed) give
bit-identical results.  Each restart draws from its own child generator of
np.random.SeedSequence(entropy=seed, spawn_key=(restart,)).  The restarts
are scored together: each tick stacks the polls of every live restart into
one call, and the stack contract below is what keeps each restart's
trajectory bit for bit that of the restart run alone.  The restarts are then
replayed in order under the rule of running them one after another, so the
target check, the evaluation count, the winner and the errors raised are
those of that rule.

Stack contract: an objective maps a (k, dim) stack of points to a (k,) array
of values, and Ball.admit and its halves, membership and project, act on
the last axis of an array with any leading batch axes.  Row i of any of these
results must not depend on the other rows, so a point scores, projects and
tests the same alone or inside a stack; the seeds are admitted as one stack.
A Ball is a product of free blocks and unit balls of stacked gauges
(..., dim) -> (...): a scalar norm, an oracle norm, an operator or handle
bound.  It admits a stack with one gauge call per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "OptBudget",
    "Witnessed",
    "Ball",
    "InfeasibleSeedError",
    "exceeds",
    "meets",
    "gauge_ball",
    "free_domain",
    "concat_domain",
    "maximize_over_ball",
    "minimize_over_family",
]


class InfeasibleSeedError(ValueError):
    """A caller-supplied starting point is not in the search domain."""


# the compass steps: the first step of a restart, the factor by which a sweep
# that moves no coordinate shrinks it, and the step below which the restart
# stops, converged
_INIT_STEP = 0.5
_SHRINK = 0.5
_MIN_STEP = 1e-9


@dataclass(frozen=True)
class OptBudget:
    """Search effort knobs.

    iterations counts full coordinate sweeps per restart, not objective
    evaluations.  A restart stops early once its step drops below _MIN_STEP.
    """

    restarts: int = 8
    iterations: int = 300
    seed: int = 1729

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("budget needs restarts >= 1 and iterations >= 1")


@dataclass(eq=False)
class Witnessed:
    """A bound together with the point that attains it.

    bound_direction is one of "lower-of-sup", "upper-of-inf", or "exact".
    The value is always the objective recomputed at the reported witness
    (or the closed-form value when direction is "exact").  certified_bound,
    when set, is a certified bound on the other side of the value: an upper
    bound of a sup, a lower bound of an inf.
    """

    value: float
    witness: np.ndarray | None
    bound_direction: str
    converged: bool
    details: dict = field(default_factory=dict, compare=False)
    certified_bound: float | None = None


def exceeds(lhs: float, rhs: float) -> bool:
    """lhs > rhs by more than 1e-9 times the larger magnitude: an ordering
    check that means the same at every scale, and forgives float drift."""
    return lhs > rhs + 1e-9 * max(abs(lhs), abs(rhs))


def meets(value, target):
    """value reaches target to 1e-12 relative: the rule by which a search
    stops at its certified bound, elementwise for arrays of values."""
    return value >= target - 1e-12 * abs(target)


@dataclass(frozen=True)
class Ball:
    """Search domain: a product of blocks (dim, gauge, scale), searched as
    one flat vector.  A block is the unit ball {x : gauge(x) <= 1} of a
    stacked gauge (..., dim) -> (...), or free when its gauge is None.

    admit(V) -> (ok, P) is the only feasibility code, with one gauge call per
    block: a gauge block gives (gauge <= 1 + 1e-9, V / max(gauge, 1)), a free
    block (isfinite, V).  membership and project are its halves; project
    skips the test.  Each acts row by row on the last axis of a point or a
    stack.  random_point projects scale * standard_normal(dim) per block.
    to_boundary, set on one gauge block, divides a point by its gauge; a
    search that misses its target polishes its best point with it, keeping
    the result if it scores at least as well.
    """

    blocks: tuple[tuple[int, Callable[[np.ndarray], np.ndarray] | None, float], ...]
    label: str

    @property
    def dim(self) -> int:
        return sum(dim for dim, _, _ in self.blocks)

    def _parts(self, V):
        """(gs, P): _projected of each block's slice of V, with P joined again."""
        if len(self.blocks) == 1:
            g, P = _projected(self.blocks[0][1], V)
            return [g], P
        ends = np.cumsum([dim for dim, _, _ in self.blocks])
        gs, Ps = zip(*(_projected(gauge, V[..., end - dim:end])
                       for (dim, gauge, _), end in zip(self.blocks, ends)))
        return gs, np.concatenate(Ps, axis=-1)

    def admit(self, V):
        gs, P = self._parts(V)
        ok = [np.all(np.isfinite(g), axis=-1) if gauge is None else g <= 1.0 + 1e-9
              for (_, gauge, _), g in zip(self.blocks, gs)]
        return np.logical_and.reduce(ok), P

    def project(self, V):
        return self._parts(V)[1]

    def membership(self, V):
        return self.admit(V)[0]

    def random_point(self, rng):
        return np.concatenate([_projected(gauge, scale * rng.standard_normal(dim))[1]
                               for dim, gauge, scale in self.blocks])

    @property
    def to_boundary(self):
        (_, gauge, _), *rest = self.blocks
        if gauge is None or rest:
            return None
        return lambda v: v if (g := float(gauge(v))) == 0.0 else v / g


def _projected(gauge, V):
    """(g, P) for one block: what admit tests (the gauge, or V if free), and V projected."""
    if gauge is None:
        return V, V
    g = gauge(V)
    return g, V / np.maximum(g, 1.0)[..., None]


def gauge_ball(gauge: Callable[[np.ndarray], np.ndarray], dim: int, label: str) -> Ball:
    """The unit ball {x : gauge(x) <= 1} of a stacked gauge (..., dim) -> (...)."""
    return Ball(((dim, gauge, 1.0),), label)


def free_domain(dim: int, scale: float = 1.0, label: str = "free") -> Ball:
    """Unconstrained block of the given dimension, drawn as scale * N(0, 1)."""
    return Ball(((dim, None, scale),), label)


def concat_domain(parts: list[Ball], label: str | None = None) -> Ball:
    """Cartesian product of domains, searched as one flat vector."""
    return Ball(sum((b.blocks for b in parts), ()), label or "x".join(b.label for b in parts))


def _checked(vals) -> np.ndarray:
    """vals as a float array, raising on any NaN."""
    vals = np.asarray(vals, dtype=float)
    if np.isnan(vals).any():
        raise ValueError("objective returned NaN")
    return vals


def _first_improvement(P: np.ndarray, F: np.ndarray, best: float):
    """First row of the scored stack (P, F) that beats best, in row order.

    Returns (row, point, value), with row None when none improves.  A NaN
    counts only up to the row taken, which is as far as a one-at-a-time poll
    reads.
    """
    up = F > best
    row = int(up.argmax())
    hit = up[row]
    # the poll reads up to the row taken, or every row; their maximum is NaN
    # exactly when one of them is
    top = np.maximum.reduce(F[: row + 1] if hit else F)
    if top != top:
        raise ValueError("objective returned NaN")
    if not hit:
        return None, None, best
    return row, P[row], float(F[row])


def _poll_rows(objective, domain: Ball, C: np.ndarray, best: float):
    """The one-at-a-time poll of the candidate rows of C: each row is
    projected and scored on its own, so an error surfaces only at a
    candidate that this poll reaches."""
    for j in range(C.shape[0]):
        p = domain.project(C[j:j + 1])
        f = _checked(objective(p))[0]
        if f > best:
            return j, p[0], float(f)
    return None, None, best


def _sweep(objective, domain: Ball, x0: np.ndarray, budget: OptBudget):
    """Compass search from x0, as a generator that _lockstep drives.

    It yields a stack and is sent back (P, F), the stack projected and its
    values, or None to score the stack itself one row at a time.  The first
    stack is its start, a point of the domain that is scored as it is; every
    later one holds poll candidates.  Returns (best_x, best_f, converged, evals).

    The poll is first-improvement in (coordinate, +, -) order.  It is run
    speculatively: every candidate left in the sweep, from coordinate i on,
    is stacked and scored, the first improvement is taken, and the rest of
    the sweep is re-stacked from the next coordinate at the new point.  The
    trajectory is that of the one-at-a-time poll, and evals counts only the
    candidates that poll scores.
    """
    x = np.array(x0, dtype=float)
    scored = yield x[None]
    best = float(_checked(objective(x[None]) if scored is None else scored[1])[0])
    step = _INIT_STEP
    evals = 1
    converged = False
    dim = domain.dim
    # candidate 2c moves coordinate c up by one step, candidate 2c + 1 down.
    # Row i of x + delta has every coordinate moved by candidate i's step; a
    # poll stack takes the one candidate i moves from it and copies the rest
    # from x, so an untouched coordinate keeps its bits (-0.0 included)
    moves = np.arange(dim) == np.repeat(np.arange(dim), 2)[:, None]
    sign = np.tile([1.0, -1.0], dim)[:, None]
    delta = sign * step
    for _ in range(budget.iterations):
        moved = False
        start = 0
        while start < 2 * dim:
            k = 2 * dim - start
            C = np.where(moves[start:], x + delta[start:], x)
            scored = yield C
            if scored is None:
                j, point, best = _poll_rows(objective, domain, C, best)
            else:
                j, point, best = _first_improvement(*scored, best)
            if j is None:
                evals += k
                break
            evals += j + 1
            x = point.copy()
            moved = True
            # the next coordinate after the one that moved
            start += (j // 2 + 1) * 2
        if not moved:
            step *= _SHRINK
            if step < _MIN_STEP:
                converged = True
                break
            delta = sign * step
    return x, best, converged, evals


def _lockstep(objective, domain: Ball, starts, budget: OptBudget):
    """Compass searches from every start, polled together.

    A generator of ticks.  On each tick the stacks of every live search are
    concatenated, projected and scored in one call, and each search takes
    its own slice; the first tick scores the starts, points of the domain,
    as they are.  If that call raises, every search of the tick polls its
    stack one row at a time, so an error surfaces only at a candidate that
    the one-at-a-time poll reaches.  After each tick it yields the outcomes,
    one per start: None while that search runs, then its (best_x, best_f,
    converged, evals), or the exception it raised, held for the caller.  By
    the stack contract a row scores the same bits in any stack, so each
    search follows the trajectory it has alone.  Searches still running when
    the caller stops are dropped.
    """
    sweeps = [_sweep(objective, domain, x0, budget) for x0 in starts]
    outcomes = [None] * len(sweeps)
    live = []  # (search, the stack it waits on), in the order of the starts

    def advance(i, scored):
        try:
            live.append((i, sweeps[i].send(scored)))
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as err:
            outcomes[i] = err

    for i in range(len(sweeps)):
        advance(i, None)
    project = False
    while live:
        tick, live = live, []
        blocks = [C for _, C in tick]
        stack = np.concatenate(blocks)
        try:
            P = domain.project(stack) if project else stack
            F = np.asarray(objective(P), dtype=float)
        except Exception:
            answers = [None] * len(blocks)
        else:
            answers, a = [], 0
            for C in blocks:
                b = a + len(C)
                answers.append((P[a:b], F[a:b]))
                a = b
        for (i, _), answer in zip(tick, answers):
            advance(i, answer)
        project = True
        yield outcomes


def _run(objective, domain: Ball, budget: OptBudget | None, seeds, sign: float,
         target: float | None = None):
    budget = budget or OptBudget()
    if domain.dim == 0:
        val = sign * float(_checked(objective(np.zeros((1, 0))))[0])
        return np.zeros(0), val, True, {"evals": 1, "restarts": 0}

    if sign > 0.0:
        # the values as they are: _checked and _lockstep make them floats
        f = objective
    else:
        def f(V):
            return sign * np.asarray(objective(V), dtype=float)

    rows = [np.asarray(s, dtype=float).ravel() for s in ([] if seeds is None else seeds)]
    for i, arr in enumerate(rows):
        if arr.shape != (domain.dim,) or not np.all(np.isfinite(arr)):
            raise InfeasibleSeedError(
                f"seed {i} of shape {arr.shape} unusable for {domain.label} (dim {domain.dim})"
            )
    prepared = np.zeros((0, domain.dim))
    if rows:
        # projection only cleans up float drift; feasibility is tested on the
        # raw seeds, so the seed-domination guarantee refers to the caller's point
        ok, prepared = domain.admit(np.stack(rows))
        failed = np.flatnonzero(~np.asarray(ok))
        if failed.size:
            raise InfeasibleSeedError(f"seed {failed[0]} fails membership in {domain.label}")

    best_x, best_f = None, -math.inf
    # index of the restart the witness came from; a seed counts as the
    # restart that starts from it
    winner = None
    total_evals = 0
    # every seed is scored as-is up front, so the final value can never fall
    # below the best seed even if every restart wanders off
    if len(prepared):
        vals = _checked(f(prepared))
        total_evals += len(prepared)
        for i, val in enumerate(vals):
            if val > best_f:
                best_f, best_x, winner = float(val), prepared[i], i

    # the target in the signed units of f, where the search maximizes
    goal = None if target is None else sign * float(target)

    def met():
        return goal is not None and meets(best_f, goal)

    def start(r):
        if r < len(prepared):
            return prepared[r]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=budget.seed, spawn_key=(r,))
        )
        return np.asarray(domain.random_point(rng), dtype=float)

    # the restarts search in lockstep, and are replayed here in order under
    # the rule of running them one after another: the target is checked
    # before each restart, and a restart the replay skips neither counts nor
    # raises.  The starts are drawn when the first tick runs.
    ticks = _lockstep(f, domain, (start(r) for r in range(budget.restarts)), budget)
    outcomes = [None] * budget.restarts
    flags = []
    for r in range(budget.restarts):
        if met():
            break
        while outcomes[r] is None:
            outcomes = next(ticks)
        if isinstance(outcomes[r], Exception):
            raise outcomes[r]
        x, val, conv, ev = outcomes[r]
        total_evals += ev
        flags.append(conv)
        if val > best_f:
            best_f, best_x, winner = val, x, r

    # a search that meets its target keeps its best point: the polish could
    # gain no more than the 1e-12 that the stop forgives
    if domain.to_boundary is not None and best_x is not None and not met():
        xb = domain.to_boundary(best_x)
        if np.all(np.isfinite(xb)) and domain.membership(xb):
            vb = float(_checked(f(xb[None]))[0])
            total_evals += 1
            if vb >= best_f:
                best_f, best_x = vb, xb

    if best_x is None:
        raise ValueError("search produced no candidate point")
    # recompute at the reported witness so value and witness always agree
    best_f = float(_checked(f(best_x[None]))[0])
    details = {"evals": total_evals, "restarts": budget.restarts, "domain": domain.label}
    if met():
        details.update(stop="certificate", restarts_run=len(flags))
        return best_x, best_f, True, details
    # a seed that no restart started from was never searched to convergence
    converged = winner is not None and winner < len(flags) and flags[winner]
    return best_x, best_f, converged, details


def maximize_over_ball(objective, domain: Ball, budget: OptBudget | None = None,
                       seeds=None, target: float | None = None) -> Witnessed:
    """Witnessed lower bound of sup { objective(x) : x in domain }.

    The witness is feasible by construction, so the reported value is sound.
    Optional seeds are admitted as one stack by domain.admit, scored
    directly and also used as restart origins; a seed that fails membership
    raises InfeasibleSeedError rather than being silently dropped.  target is
    a certified upper bound of the sup; the search stops at it, and a value
    that meets it is "exact", at the best point found, with no polish onto
    the sphere.
    """
    x, val, conv, det = _run(objective, domain, budget, seeds, sign=1.0, target=target)
    return Witnessed(value=val, witness=x,
                     bound_direction="exact" if "stop" in det else "lower-of-sup",
                     converged=conv, details=det,
                     certified_bound=None if target is None else float(target))


def minimize_over_family(objective, domain: Ball, budget: OptBudget | None = None,
                         seeds=None, target: float | None = None) -> Witnessed:
    """Witnessed upper bound of inf { objective(x) : x in domain }.

    Every point of the domain is a feasible parameter choice, so the value at
    the witness is a sound upper bound.  target is a certified lower bound of
    the inf; the search stops at it, and a value that meets it is "exact".
    """
    x, val, conv, det = _run(objective, domain, budget, seeds, sign=-1.0, target=target)
    return Witnessed(value=-val, witness=x,
                     bound_direction="exact" if "stop" in det else "upper-of-inf",
                     converged=conv, details=det,
                     certified_bound=None if target is None else float(target))
