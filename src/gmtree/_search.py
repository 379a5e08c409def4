"""Seeded multi-start coordinate descent with golden-section line search.

The inner bound's search (``inner.min_weighted_sum`` and ``region_slice``)
runs over a box [0,1]^m of direction coordinates with a scalar feasibility
repair folded into the objective, so a tiny derivative-free loop is all that
is needed. Objectives may return math.inf for infeasible points; determinism
is guaranteed by the explicit seed.

An objective must be a pure function of x: ``multi_start`` evaluates each
distinct point once per call and answers repeats (a line search re-run after
no other coordinate moved, or starts that meet on the same golden-section
grid) from a memo that is dropped when the call returns.
"""

import math

import numpy as np

from .errors import check_count

__all__ = ["golden_min", "coordinate_descent", "multi_start"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 18  # golden-section steps per line search
SWEEPS = 60  # most sweeps of one coordinate descent
TOL = 1e-8  # a descent stops after a sweep that gains no more than this


def golden_min(fn, iters: int = GOLDEN_ITERS):
    """Golden-section minimum of fn on [0, 1]; returns (x, fn(x)).

    Keeps the best evaluated point, so a non-unimodal section still returns
    something no worse than the samples seen.
    """
    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    if fc <= fd:
        best, fbest = c, fc
    else:
        best, fbest = d, fd
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
            if fc < fbest:
                best, fbest = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
            if fd < fbest:
                best, fbest = d, fd
    return best, fbest


def coordinate_descent(fn, x0, coords, *, sweeps=SWEEPS, golden_iters=GOLDEN_ITERS, tol=TOL):
    """Cyclic per-coordinate golden-section descent of fn over [0,1]^m."""
    x = list(map(float, x0))
    fx = fn(x)
    for _ in range(sweeps):
        f_before = fx
        for c in coords:
            def section(v, _c=c):
                y = x.copy()
                y[_c] = v
                return fn(y)

            v, fv = golden_min(section, golden_iters)
            if fv < fx:
                x[c] = v
                fx = fv
        if not math.isfinite(fx):
            break
        if f_before - fx <= tol:
            break
    return x, fx


def multi_start(
    fn,
    dim: int,
    coords,
    *,
    starts=16,
    seed=0,
    sweeps=SWEEPS,
    golden_iters=GOLDEN_ITERS,
    tol=TOL,
    extra_starts=(),
):
    """Best coordinate_descent result over deterministic + seeded random starts.

    The all-ones direction is always tried first; ``extra_starts`` (warm
    points) are tried next; the remaining ``starts - 1`` come from the seeded
    generator. Coordinates not in ``coords`` stay at their start value (zero
    for random starts).

    ``fn`` must be a pure function of x. Every start shares one memo keyed by
    ``tuple(x)``, so each distinct point is evaluated once per call and a
    repeat gets the very float the evaluation returned: the search path and
    the result are those of the memo-free loop. Nothing outlives the call.
    ``starts`` must be an integer >= 1 (``bad-budget``).
    """
    starts = check_count(starts, "starts", code="bad-budget")
    seen = {}

    def once(x):
        key = tuple(x)
        v = seen.get(key)
        if v is None:
            v = seen[key] = fn(x)
        return v

    rng = np.random.default_rng(seed)
    pool = []
    ones = [0.0] * dim
    for c in coords:
        ones[c] = 1.0
    pool.append(ones)
    for w in extra_starts:
        pool.append([float(v) for v in w])
    for _ in range(starts - 1):
        x = [0.0] * dim
        draw = rng.uniform(0.05, 1.0, size=len(coords))
        for c, v in zip(coords, draw):
            x[c] = float(v)
        pool.append(x)

    best_x, best_f = None, math.inf
    for x0 in pool:
        x, fx = coordinate_descent(
            once, x0, coords, sweeps=sweeps, golden_iters=golden_iters, tol=tol
        )
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f
