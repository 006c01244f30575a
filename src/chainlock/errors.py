"""Error types, and the input rules that every module and the command line share:
``integer_at_least`` for integer counts, ``positive_finite`` for tolerances."""
from __future__ import annotations

import math
import numbers


class ChainlockError(Exception):
    """Base class for all chainlock-specific failures."""


class CapacityError(ChainlockError):
    """A requested computation exceeds a hard size limit (names the limit)."""


class ShapeError(ChainlockError):
    """Operator or strategy dimensions do not match the scenario layout."""


class UnsupportedStateError(ChainlockError):
    """The chain-contraction evaluator was handed a non-Bell-chain state."""


class NumericalConsistencyError(ChainlockError):
    """A quantity that must be real carries a non-negligible imaginary part."""


class ConstructionFailedError(ChainlockError):
    """A construction was built and measured but does not attain the ceiling.

    ``model`` is the measured ``QuantumModel``, ``terms`` its values J_i,
    ``residuals`` its per-term zero-condition residuals, ``beta`` its value
    and ``expected`` the ceiling it was built for.
    """

    def __init__(self, message, *, model, terms, residuals, beta, expected):
        super().__init__(message)
        self.model = model
        self.terms = terms
        self.residuals = residuals
        self.beta = beta
        self.expected = expected


class DegenerateCertificateError(ChainlockError):
    """Some signed edge combination annihilates the state (omega = 0)."""


def integer_at_least(name: str, value, low: int) -> int:
    """``value`` as a plain int, or ValueError naming ``name``: bools (an int subclass),
    floats (4.0 too) and values below ``low`` are refused, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def positive_finite(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite real > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)
