"""multi_start's per-call memo against the memo-free start loop.

The reference below is the start loop without the memo: the same pool of
starts, each handed straight to ``coordinate_descent`` with the bare
objective. The memoized search must return the same (x, f) and evaluate the
objective exactly once per distinct point the reference evaluates.
"""

import math
from collections import Counter

import numpy as np
import pytest

from gmtree import ModelError
from gmtree._search import coordinate_descent, multi_start


def reference_multi_start(fn, dim, coords, *, starts=16, seed=0, sweeps=60,
                          golden_iters=18, tol=1e-8, extra_starts=()):
    rng = np.random.default_rng(seed)
    pool = []
    ones = [0.0] * dim
    for c in coords:
        ones[c] = 1.0
    pool.append(ones)
    for w in extra_starts:
        pool.append([float(v) for v in w])
    for _ in range(max(0, starts - 1)):
        x = [0.0] * dim
        draw = rng.uniform(0.05, 1.0, size=len(coords))
        for c, v in zip(coords, draw):
            x[c] = float(v)
        pool.append(x)

    best_x, best_f = None, math.inf
    for x0 in pool:
        x, fx = coordinate_descent(
            fn, x0, coords, sweeps=sweeps, golden_iters=golden_iters, tol=tol
        )
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def smooth(x):
    return (x[0] - 0.3) ** 2 + 2.0 * (x[1] - 0.7) ** 2 + 0.5 * (x[2] - 0.45) ** 2


def walled(x):
    """math.inf on the part of the box below the plane x0 + x1 = 0.9."""
    if x[0] + x[1] < 0.9:
        return math.inf
    return smooth(x) + x[0] * x[2]


def multimodal(x):
    return sum(v * v - 0.3 * math.cos(5.0 * math.pi * v) for v in x) + x[0] * x[1]


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = Counter()

    def __call__(self, x):
        self.calls[tuple(x)] += 1
        return self.fn(x)


@pytest.mark.parametrize("extra", [(), ([0.2, 0.9, 0.5], [1.0, 1.0, 0.0])],
                         ids=["no-extra", "extra"])
@pytest.mark.parametrize("starts", [1, 4, 16])
@pytest.mark.parametrize("objective", [smooth, walled, multimodal],
                         ids=lambda f: f.__name__)
def test_memo_keeps_the_search_and_evaluates_each_point_once(objective, starts, extra):
    kwargs = dict(starts=starts, seed=7, extra_starts=extra)
    ref_fn, memo_fn = Counted(objective), Counted(objective)
    want = reference_multi_start(ref_fn, 3, [0, 1, 2], **kwargs)
    got = multi_start(memo_fn, 3, [0, 1, 2], **kwargs)
    assert got == want
    assert set(memo_fn.calls) == set(ref_fn.calls)
    assert max(memo_fn.calls.values()) == 1
    if starts > 1:  # repeats exist for the memo to save
        assert sum(ref_fn.calls.values()) > len(ref_fn.calls)


def test_memo_keeps_coordinates_outside_coords():
    ref_fn, memo_fn = Counted(multimodal), Counted(multimodal)
    want = reference_multi_start(ref_fn, 3, [0, 2], starts=5, seed=3)
    got = multi_start(memo_fn, 3, [0, 2], starts=5, seed=3)
    assert got == want
    assert got[0][1] == 0.0
    assert set(memo_fn.calls) == set(ref_fn.calls)
    assert max(memo_fn.calls.values()) == 1


def test_memo_does_not_outlive_the_call():
    fn = Counted(smooth)
    multi_start(fn, 3, [0, 1, 2], starts=2)
    first = sum(fn.calls.values())
    multi_start(fn, 3, [0, 1, 2], starts=2)
    assert sum(fn.calls.values()) == 2 * first


@pytest.mark.parametrize("budget", [{"starts": 0}, {"starts": -2}])
def test_non_positive_budget_is_refused(budget):
    fn = Counted(smooth)
    with pytest.raises(ModelError) as err:
        multi_start(fn, 3, [0, 1, 2], **budget)
    assert err.value.code == "bad-budget"
    assert not fn.calls
