"""Explicit models targeting the quantum ceiling, and the condition fitter.

The two-source construction attains the ceiling 2 sqrt(2) exactly.  For three
or more sources the zero-residual conditions B_i|psi> = (Y^A_i (x) Y^C_i /
omega_i)|psi> are mutually inconsistent on any Bell-chain state: eliminating
the shared central observables between terms forces an operator identity that
fails whenever the edge sets are (even in expectation) anticommuting.  The
builders therefore return the best product-form / least-squares solutions and
raise ``ConstructionFailedError`` carrying the measured model, per-term values
and residuals, instead of pretending the target was reached.

The least-squares fit is the costly part, so ``optimal_model`` fits each
anticommuting construction once per layout per process and keeps only its
read-only matrices and overlaps; ``fit_bob_observables`` itself is uncached.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapacityError, ConstructionFailedError, DegenerateCertificateError
from .qcore import (DENSE_QUBIT_LIMIT, PAULI_X, PAULI_Y, PAULI_Z, BellChainState, Observable,
                    QuantumModel, CentralSweep, bell_chain_state, beta_quantum, close,
                    default_layout, dichotomic_projection, jordan_wigner_set, kron_all,
                    make_model, random_dichotomic, require_bell_chain, signed_sums,
                    term_expectations)
from .scenario import build_encoding
from .seesaw import Workspace, ascend, restart_bytes
from .soscert import DEGENERATE_TOL, condition_residuals, tsirelson_ceiling

SOLVE_RESIDUAL_TOL = 1e-8
SUPPORTED_N = (2, 3, 4, 5)
FIT_SWEEPS = 400
FIT_EXTRA_STARTS = 8  # seeded random starts after the identity start


def _explicit_n2(m: int) -> QuantumModel:
    """The CHSH chain on the first pair of each source, the identity on the other m-1."""
    a1 = (PAULI_Z + PAULI_X) / math.sqrt(2)
    a2 = (PAULI_Z - PAULI_X) / math.sqrt(2)
    pad = np.eye(2 ** (m - 1))
    edges = [np.kron(e, pad) for e in (a1, a2)]
    bob = [kron_all(p, pad, p, pad) for p in (PAULI_Z, PAULI_X)]
    return make_model(2, edges, [bob], edges, qubits_per_half=m)


def _explicit_n3() -> QuantumModel:
    """Closest product-Pauli model for three sources.

    Each central observable is a single Pauli on each of its two qubits: the
    link-facing middle legs are Z (a passive wire), and the outer legs align
    with the transpose-corrected average of the edge sign rows they serve.
    This realizes J_i = 2 for every term (beta = 4 sqrt(2)); the equal-term
    target J_i = 3 is not reachable by any model (see module docstring).
    """
    table = build_encoding(3)
    flip_y = np.diag([1.0, -1.0, 1.0])  # transpose of a Pauli vector across a Bell link
    targets = [flip_y @ s for s in table.signs]

    def aligned(t, y):  # unit average of the targets of the terms that read slot (t, y)
        v = sum(targets[i] for i in np.flatnonzero(table.central[:, t] == y))
        u = v / np.linalg.norm(v)
        return u[0] * PAULI_X + u[1] * PAULI_Y + u[2] * PAULI_Z

    bob1 = [kron_all(aligned(0, y), PAULI_Z) for y in (0, 1)]
    bob2 = [kron_all(PAULI_Z, aligned(1, y)) for y in (0, 1)]
    edges = [o.matrix for o in jordan_wigner_set(3)]
    return make_model(3, edges, [bob1, bob2], edges)


def _bell_omegas(ys, d: int) -> np.ndarray:
    """||Y_i|psi>|| = sqrt(tr(Y_i^2)/d) per term: each edge marginal of a Bell chain is I/d.

    Evaluated as sqrt(tr(Y_i^2))/sqrt(d): on the d = 2 CHSH edges it rounds
    closer to the dense route, which decides the n = 2 fit's 1e-8 recovery.
    """
    return np.array([math.sqrt(max(0.0, float(np.trace(y @ y).real))) for y in ys]) / math.sqrt(d)


def fit_bob_observables(state: BellChainState, edge_observables):
    """Least-squares fit of per-party central observables to the zero conditions.

    Maximizes sum_i <psi| T_i B_i |psi> with T_i = (Y^A_i (x) Y^C_i)/omega_i
    by coordinate ascent over the central slots with dichotomic projection.
    Each sweep is the seesaw's cached central pass (``CentralSweep``) with
    unit weights on the pre-scaled terms: every term keeps its left and right
    environments through the sweep, and the sweep's overlaps close the last
    left environments.  The identity start and FIT_EXTRA_STARTS seeded random
    starts sweep in lockstep through the seesaw's driver (``ascend``).  The
    per-term residuals are r_i = sqrt(2 - 2 overlap_i).  Returns (bobs,
    overlaps) for the best start (ties keep the earliest).  Raises
    UnsupportedStateError off a Bell chain, CapacityError past the dense
    state's bytes, ValueError for a wrong edge count or shape,
    DegenerateCertificateError for a vanishing omega_i.
    """
    require_bell_chain(state)
    n, d = state.layout.n, state.layout.link_dim
    # each start holds a sweep's environment stacks and its central operators
    need, limit = (1 + FIT_EXTRA_STARTS) * restart_bytes(n, d), 16 * 2 ** DENSE_QUBIT_LIMIT
    if need > limit:
        raise CapacityError(f"fit starts need {need} bytes, limit is {limit}")
    table = build_encoding(n)
    edges = [(o if isinstance(o, Observable) else Observable(o)).matrix
             for o in edge_observables]
    if len(edges) != n:
        raise ValueError(f"need {n} edge observables of dimension {d}, got {len(edges)}")
    for x, e in enumerate(edges):
        if e.shape != (d, d):
            raise ValueError(f"edge_observables[{x}] is {e.shape}, need ({d}, {d})")
    ys = signed_sums(table.signs, edges)
    omegas = _bell_omegas(ys, d)  # sqrt(n) each for an anticommuting edge set
    degenerate = np.flatnonzero(omegas <= DEGENERATE_TOL)
    if degenerate.size:
        raise DegenerateCertificateError(
            f"term {degenerate[0] + 1}: signed edge combination annihilates the state")
    lefts = ys / (omegas * omegas)[:, None, None]
    draws = [[[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)]
             for rng in (np.random.default_rng(1000 + s) for s in range(FIT_EXTRA_STARTS))]
    eye = np.eye(d * d, dtype=complex)
    starts = Workspace([], [[np.stack([eye] + [draw[t][y] for draw in draws]) for y in range(2)]
                            for t in range(n - 1)], [])
    weights = np.ones(len(table.central))

    def sweep(ws, total):  # one unit-weight pass over every start's central slots
        # the shared lefts get the start axis, so every slot matrix has it (also at n = 2)
        run = CentralSweep(np.broadcast_to(lefts, total.shape + lefts.shape), ys, ws.bobs,
                           table.central, d)
        for t in range(n - 1):
            for yv in range(2):
                ws.bobs[t][yv] = dichotomic_projection(run.slot_matrix(t, yv, weights))
            run.advance(t)
        return (close(run.left, ys, d, n).real.sum(-1),)

    total = term_expectations(lefts, ys, starts.bobs, table.central, d).real.sum(-1)
    best_bobs, best_total = None, -np.inf
    for history, _, (_, bobs, _) in ascend(starts, (total,), sweep, FIT_SWEEPS, 1e-13):
        if history[-1] > best_total + 1e-12:
            best_bobs, best_total = bobs, history[-1]
    return best_bobs, term_expectations(lefts, ys, best_bobs, table.central, d).real


@functools.lru_cache(maxsize=None)
def _fitted_construction(n: int, qubits_per_half: int):
    """The padded Jordan-Wigner edges and the fit's (bobs, overlaps) on one layout.

    Fitted once per (n, qubits_per_half) per process; every array is
    read-only, held in tuples.  A refusal (CapacityError) propagates, so it
    is never cached.
    """
    link_dim = 2 ** qubits_per_half
    edges = [o.matrix for o in jordan_wigner_set(n)]
    if edges[0].shape[0] > link_dim:
        raise CapacityError(
            f"{n} mutually anticommuting observables need dimension "
            f"{edges[0].shape[0]}; layout provides {link_dim} per edge party")
    pad = np.eye(link_dim // edges[0].shape[0])
    edges = tuple(np.kron(e, pad) for e in edges)
    bobs, overlaps = fit_bob_observables(bell_chain_state(n, qubits_per_half), edges)
    bobs = tuple(tuple(pair) for pair in bobs)
    for a in (*edges, *sum(bobs, ()), overlaps):
        a.setflags(write=False)
    return edges, bobs, overlaps


def optimal_model(n: int, qubits_per_half: int | None = None) -> QuantumModel:
    """Model attaining the ceiling 2^(n-1) sqrt(n), where one exists.

    Succeeds for n=2, on any qubits_per_half.  For n in {3,4,5} the ceiling
    is strict: the builder assembles the best known construction, measures
    it, and raises ConstructionFailedError carrying the model and its
    diagnostics.  The least-squares construction is fitted once per layout
    per process: later calls on an equal layout (``optimal_model(4)``,
    ``optimal_model(4, 2)``) reuse its read-only matrices and overlaps, and
    every call builds a fresh model, state and error from them.
    """
    if n not in SUPPORTED_N:
        raise CapacityError(f"optimal_model supports n in {SUPPORTED_N}, got {n}")
    expected = tsirelson_ceiling(n)
    layout = default_layout(n, qubits_per_half)
    if n == 2:
        model = _explicit_n2(layout.qubits_per_half)
        beta, _ = beta_quantum(model)
        assert abs(beta - expected) < 1e-12
        return model
    if n == 3 and layout.qubits_per_half == 1:
        model = _explicit_n3()
        beta, terms = beta_quantum(model)
        residuals = condition_residuals(model)
        raise ConstructionFailedError(
            f"n=3: equal-term target J_i = 3 is unattainable; closest "
            f"product-Pauli model reaches beta = {beta:.9f} < {expected:.9f} "
            f"with terms {np.round(terms, 9).tolist()}",
            model=model, terms=terms, residuals=residuals, beta=beta, expected=expected)
    edges, bobs, overlaps = _fitted_construction(n, layout.qubits_per_half)
    residuals = [float(r) for r in np.sqrt(np.maximum(0.0, 2.0 - 2.0 * overlaps))]
    model = make_model(n, edges, bobs, edges, qubits_per_half=layout.qubits_per_half)
    beta, terms = beta_quantum(model)
    if max(residuals) >= SOLVE_RESIDUAL_TOL:
        raise ConstructionFailedError(
            f"n={n}: zero conditions are inconsistent; least-squares model "
            f"reaches beta = {beta:.9f} < {expected:.9f} with max residual "
            f"{max(residuals):.6f}",
            model=model, terms=terms, residuals=residuals, beta=beta, expected=expected)
    if abs(beta - expected) > 1e-6:
        raise ConstructionFailedError(
            f"n={n}: solved conditions but beta = {beta} misses {expected}",
            model=model, terms=terms, residuals=residuals, beta=beta, expected=expected)
    return model
