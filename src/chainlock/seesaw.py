"""Coordinate-ascent maximization of beta over observables from random starts.

Each sub-update forms the effective Hermitian operator of the linearized
objective with one observable slot left open (chain contraction) and replaces
the observable by the dichotomic projection of that operator.  An update that
would lower beta is discarded, which keeps every trace monotone.

A sweep keeps the stacked chain environments of all terms instead of
refolding them after each update (the left/right block caching of DMRG sweeps):

- central slots, left to right: the right environments are built once per
  sweep and the left environments advance past a party once its two slots
  are done.  A candidate refolds only the terms that read the updated slot,
  forward from their cached left environments; every other J_i is kept.
- Alice: the open-slot matrices are the full right environments, one stacked
  pull; a candidate pushes its new Alice sums through every term at once.
- Charlie: the open-slot matrices are the accepted full left environments; a
  candidate's J_i are one stacked close against the new Charlie sums.

Each cached value is the float sequence of a fresh fold, so the trace equals
that of refolding everything, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (CentralSweep, QuantumModel, close, default_layout, dichotomic_projection,
                    edge_sums, make_model, pull, push, random_dichotomic, signed_sums,
                    term_expectations)
from .scenario import build_encoding

WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SeesawConfig:
    max_iterations: int = 500
    tolerance: float = 1e-7
    restarts: int = 10
    seed: int = 0
    optimize_edges: bool = True
    qubits_per_half: int | None = None

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1 or self.tolerance <= 0:
            raise ValueError("need max_iterations >= 1, restarts >= 1, tolerance > 0")


@dataclass(frozen=True)
class SeesawReport:
    """Outcome of one optimization run; ``converged`` means every restart
    stopped on the improvement tolerance rather than the iteration cap."""

    best_beta: float
    best_model: QuantumModel
    trace: tuple[tuple[int, int, float], ...]  # (restart, iteration, beta)
    converged: bool
    restart_betas: tuple[float, ...]

    def to_json_dict(self) -> dict:
        from .qcore import model_to_json_dict
        return {
            "best_beta": self.best_beta,
            "converged": self.converged,
            "restart_betas": list(self.restart_betas),
            "trace": [list(t) for t in self.trace],
            "best_model": model_to_json_dict(self.best_model),
        }


def random_model(n: int, seed: int, qubits_per_half: int | None = None) -> QuantumModel:
    """Bell-chain model with seeded random dichotomic observables."""
    rng = np.random.default_rng(seed)
    d = default_layout(n, qubits_per_half).link_dim
    alice = [random_dichotomic(d, rng) for _ in range(n)]
    charlie = [random_dichotomic(d, rng) for _ in range(n)]
    bobs = [[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)]
    return make_model(n, alice, bobs, charlie, qubits_per_half=qubits_per_half)


class _Workspace:
    """Mutable observable matrices for one restart."""

    def __init__(self, model: QuantumModel):
        self.n = model.n
        self.m = model.layout.qubits_per_half
        self.d = model.layout.link_dim
        self.alice = [np.array(o.matrix) for o in model.alice]
        self.charlie = [np.array(o.matrix) for o in model.charlie]
        self.bobs = [[np.array(o.matrix) for o in pair] for pair in model.bobs]

    def to_model(self) -> QuantumModel:
        return make_model(self.n, self.alice, self.bobs, self.charlie,
                          qubits_per_half=self.m)


def _beta_of(ws: _Workspace, table):
    ya, yc = edge_sums(ws.n, ws.alice, ws.charlie)
    js = term_expectations(ya, yc, ws.bobs, table.central, ws.d).real
    return float(np.sum(np.sqrt(np.abs(js)))), js


def _weights(js: np.ndarray) -> np.ndarray:
    sigma = np.where(js >= 0, 1.0, -1.0)
    return sigma / (2.0 * np.sqrt(np.maximum(np.abs(js), WEIGHT_FLOOR)))


def _sweep(ws: _Workspace, table, beta: float, js: np.ndarray,
           optimize_edges: bool) -> tuple[float, np.ndarray]:
    n, d = ws.n, ws.d
    central, signs = table.central, table.signs

    def keep(cand_js: np.ndarray) -> bool:
        """Accept the candidate J_i unless beta drops."""
        nonlocal beta, js
        cand = float(np.sum(np.sqrt(np.abs(cand_js))))
        if cand < beta - 1e-12:
            return False
        beta, js = cand, cand_js
        return True

    def edge_matrix(slots: np.ndarray, x: int) -> np.ndarray:
        """sum_i c_i signs[i, x] G_i over every term, with edge slot x open."""
        return ((_weights(js) * signs[:, x])[:, None, None] * slots).sum(axis=0)

    ya, yc = edge_sums(n, ws.alice, ws.charlie)  # fixed while the central slots move
    sweep = CentralSweep(ya, yc, ws.bobs, central, d)
    for t in range(n - 1):
        for yv in range(2):
            old = ws.bobs[t][yv]
            ws.bobs[t][yv] = dichotomic_projection(sweep.slot_matrix(t, yv, _weights(js)))
            readers, values = sweep.refold(t, yv)
            cand_js = js.copy()  # terms that do not read the slot keep their J_i
            cand_js[readers] = values.real
            if not keep(cand_js):
                ws.bobs[t][yv] = old
        sweep.advance(t)
    if not optimize_edges:
        return beta, js
    lefts = sweep.left  # full left environments of the accepted observables
    # Alice's open-slot matrices are the full right environments, one stacked
    # pull; a candidate pushes its new signed sums through every term.
    slots = pull(yc, ws.bobs, central, d)[0].transpose(0, 2, 1) / d ** n
    for x in range(n):
        old = ws.alice[x]
        ws.alice[x] = dichotomic_projection(edge_matrix(slots, x))
        cand_lefts = push(signed_sums(signs, ws.alice), ws.bobs, central, d)
        if keep(close(cand_lefts, yc, d, n).real):
            lefts = cand_lefts
        else:
            ws.alice[x] = old
    # Charlie's open-slot matrices are those left environments (what
    # edge_slot_matrix("charlie", ...) would refold); a candidate closes them
    # against its new signed sums.
    slots = lefts.transpose(0, 2, 1) / d ** n
    for x in range(n):
        old = ws.charlie[x]
        ws.charlie[x] = dichotomic_projection(edge_matrix(slots, x))
        if not keep(close(lefts, signed_sums(signs, ws.charlie), d, n).real):
            ws.charlie[x] = old
    return beta, js


def seesaw_optimize(n: int, config: SeesawConfig | None = None) -> SeesawReport:
    """Best beta over seeded restarts of coordinate ascent on the Bell chain."""
    config = config or SeesawConfig()
    table = build_encoding(n)
    trace: list[tuple[int, int, float]] = []
    restart_betas: list[float] = []
    best_beta, best_model = -1.0, None
    all_converged = True
    for r in range(config.restarts):
        model = random_model(n, seed=config.seed + 7919 * r,
                             qubits_per_half=config.qubits_per_half)
        ws = _Workspace(model)
        beta, js = _beta_of(ws, table)
        trace.append((r, 0, beta))
        converged = False
        for it in range(1, config.max_iterations + 1):
            new_beta, js = _sweep(ws, table, beta, js, config.optimize_edges)
            trace.append((r, it, new_beta))
            if new_beta - beta < config.tolerance:
                beta = new_beta
                converged = True
                break
            beta = new_beta
        all_converged &= converged
        restart_betas.append(beta)
        if beta > best_beta + 1e-12:  # ties keep the lowest restart index
            best_beta, best_model = beta, ws.to_model()
    return SeesawReport(best_beta=best_beta, best_model=best_model,
                        trace=tuple(trace), converged=all_converged,
                        restart_betas=tuple(restart_betas))
