"""Sum-of-squares certificate diagnostics.

For each term i the signed edge combinations Y^A_i, Y^C_i have state norms
omega^A_i, omega^C_i, and beta is bounded by tau = sum_i sqrt(omega^A_i
omega^C_i).  A model attains its own tau exactly when every residual

    r_i = || B_i |psi>  -  (Y^A_i (x) Y^C_i / omega_i) |psi> ||

vanishes; ``certify`` measures the gap tau - beta and these residuals.  The
dimension-independent ceiling sum_i sqrt(omega_i) <= 2^(n-1) sqrt(n) holds
for every model because sum_i (omega^A_i)^2 = 2^(n-1) n identically.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCertificateError, integer_at_least, positive_finite
from .qcore import (BellChainState, NetworkState, QuantumModel, anticommutator_report,
                    beta_quantum, edge_blocks, edge_sums, reduced_density, term_vectors)

CERTIFICATE_TOL = 1e-7
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class CertificateReport:
    n: int
    omega_a: tuple[float, ...]
    omega_c: tuple[float, ...]
    tau: float
    beta: float
    gamma: float
    residuals: tuple[float, ...]
    anticommutator_max: float
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "omega_a": list(self.omega_a),
            "omega_c": list(self.omega_c),
            "tau": self.tau,
            "beta": self.beta,
            "gamma": self.gamma,
            "residuals": list(self.residuals),
            "anticommutator_max": self.anticommutator_max,
            "certified": self.certified,
        }


def tsirelson_ceiling(n: int) -> float:
    """Dimension-independent quantum ceiling 2^(n-1) sqrt(n)."""
    n = integer_at_least("n", n, 2)
    return 2 ** (n - 1) * math.sqrt(n)


def _omegas(state: NetworkState | BellChainState, ya, yc) -> tuple[list[float], list[float]]:
    """State norms of the given edge sums; warns for each one that vanishes."""
    rho_a = reduced_density(state, *state.layout.alice_slot())
    rho_c = reduced_density(state, *state.layout.charlie_slot())
    omega_a = [math.sqrt(max(0.0, float(np.trace(rho_a @ (y @ y)).real))) for y in ya]
    omega_c = [math.sqrt(max(0.0, float(np.trace(rho_c @ (y @ y)).real))) for y in yc]
    for label, values in (("A", omega_a), ("C", omega_c)):
        for i, v in enumerate(values):
            if v <= DEGENERATE_TOL:
                warnings.warn(f"omega^{label}_{i + 1} vanishes: signed edge "
                              f"combination annihilates the state", stacklevel=3)
    return omega_a, omega_c


def omega_values(model: QuantumModel) -> tuple[list[float], list[float]]:
    """omega^A_i = ||Y^A_i |psi>|| and omega^C_i likewise, via reduced states."""
    return _omegas(model.state, *edge_sums(model.n, model.alice, model.charlie))


def _residuals(model: QuantumModel, ya, yc, omega_a, omega_c) -> list[float]:
    out = []
    for i, (phi_b, blocks) in enumerate(zip(term_vectors(model), edge_blocks(model, ya, yc))):
        omega = omega_a[i] * omega_c[i]
        if omega <= DEGENERATE_TOL:
            raise DegenerateCertificateError(
                f"term {i + 1}: signed edge combination annihilates the state")
        # phi_b - (Y^A_i (x) Y^C_i)|psi> / omega, formed block by block in phi_b.
        # numpy divides a complex by a real as by (omega, 0) with Smith's method,
        # which multiplies both parts by 1/omega: the real multiply below gives
        # the same values (a zero may differ in sign), so the same norm.
        scale = 1.0 / omega
        rows = phi_b.reshape(model.layout.link_dim, -1)
        for cols, block in blocks:
            parts = block.view(np.float64)
            np.multiply(parts, scale, out=parts)
            np.subtract(rows[:, cols], block, out=rows[:, cols])
        out.append(float(np.linalg.norm(phi_b)))
    return out


def condition_residuals(model: QuantumModel) -> list[float]:
    """|| B_i|psi> - (Y^A_i (x) Y^C_i / omega_i)|psi> || for every term, dense."""
    ya, yc = edge_sums(model.n, model.alice, model.charlie)
    return _residuals(model, ya, yc, *_omegas(model.state, ya, yc))


def certify(model: QuantumModel, tol: float = CERTIFICATE_TOL) -> CertificateReport:
    """Full certificate: omega values, tau, beta, gap, residuals, anticommutators."""
    tol = positive_finite("tol", tol)  # an infinite tol would certify every model
    n = model.n
    ya, yc = edge_sums(n, model.alice, model.charlie)
    omega_a, omega_c = _omegas(model.state, ya, yc)
    tau = sum(math.sqrt(a * c) for a, c in zip(omega_a, omega_c))
    beta, _ = beta_quantum(model)
    residuals = _residuals(model, ya, yc, omega_a, omega_c)
    rep_a = anticommutator_report(model.alice)
    rep_c = anticommutator_report(model.charlie)
    off_a = rep_a - np.diag(np.diag(rep_a))
    off_c = rep_c - np.diag(np.diag(rep_c))
    anticomm_max = float(max(np.max(off_a), np.max(off_c)))
    gamma = tau - beta
    certified = bool(gamma < tol and max(residuals) < tol)
    return CertificateReport(
        n=n, omega_a=tuple(omega_a), omega_c=tuple(omega_c), tau=tau, beta=beta,
        gamma=gamma, residuals=tuple(residuals), anticommutator_max=anticomm_max,
        certified=certified)
