"""Error types shared across the package."""
from __future__ import annotations


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

    ``model`` is the measured ``QuantumModel``, ``residuals`` its per-term
    zero-condition residuals, ``beta`` its value and ``expected`` the ceiling
    it was built for.
    """

    def __init__(self, message, *, model, residuals, beta, expected):
        super().__init__(message)
        self.model = model
        self.residuals = residuals
        self.beta = beta
        self.expected = expected


class DegenerateCertificateError(ChainlockError):
    """Some signed edge combination annihilates the state (omega = 0)."""
