"""Exception types with stable machine-readable codes, and the input rules.

The CLI maps these onto exit statuses: DomainError -> 1 (well-formed input
outside the supported domain), ModelError -> 2 (malformed input). Library
callers can branch on the ``code`` attribute instead of parsing messages.

Each rule on a plain input is defined once, here, and every public entry
point applies it: ``check_finite`` (a finite number, ``bad-number``),
``check_count`` (an integer >= 1: ``bad-samples`` for sample counts,
``bad-budget`` for search budgets), ``check_distortion`` (finite and
positive), ``check_tolerance`` (finite and >= 0, ``bad-tolerance``) and
``check_weights``. The rules that need a model live with it:
the channel in ``inner._check_alpha`` (``bad-channel``), the covariance in
``gauss.check_cov`` (``bad-covariance``) and the topology in
``trees.MarkovTree``'s validation walk.
"""

import math
import operator

__all__ = ["GmtreeError", "ModelError", "DomainError"]


class GmtreeError(Exception):
    """Base class for package errors; ``code`` is a stable identifier."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ModelError(GmtreeError):
    """Malformed or structurally inconsistent input model."""

    code = "model-error"


class DomainError(GmtreeError):
    """Valid input outside the supported domain (infeasible distortion, etc.)."""

    code = "domain-error"


def check_finite(x, what: str) -> None:
    """Refuse anything but a finite real number: NaN (which passes every
    comparison test), +-inf and non-numbers (``bad-number``)."""
    try:
        ok = math.isfinite(x)
    except TypeError:
        ok = False
    if not ok:
        raise ModelError(f"{what} must be a finite number, not {x!r}", code="bad-number")


def check_count(n, what: str, code: str = "bad-samples") -> int:
    """``n`` as an int; it must be an integer >= 1 (a float such as 2.5 or
    1000.0 is refused too)."""
    try:
        k = operator.index(n)
    except TypeError:
        k = 0
    if k < 1:
        raise ModelError(f"{what} must be a positive integer, not {n!r}", code=code)
    return k


def check_distortion(d) -> None:
    """Refuse a distortion that is not a finite positive number."""
    check_finite(d, "distortion")
    if d <= 0:
        raise DomainError("distortion must be positive", code="infeasible-distortion")


def check_tolerance(tol) -> None:
    """Refuse a tolerance that is not a finite number >= 0: a NaN one makes
    every comparison against it pass or fail alike."""
    check_finite(tol, "tolerance")
    if tol < 0:
        raise ModelError(f"tolerance must be >= 0, not {tol!r}", code="bad-tolerance")


def check_weights(weights, m: int | None = None) -> list[float]:
    """The weights as floats: finite, nonnegative and, given m, m of them."""
    w = [float(v) for v in weights]
    if m is not None and len(w) != m:
        raise ModelError(f"expected {m} weights", code="bad-weights")
    if not all(map(math.isfinite, w)):
        raise ModelError("weights must be finite numbers", code="bad-weights")
    if any(v < 0 for v in w):
        raise DomainError("weights must be nonnegative", code="bad-weights")
    return w
