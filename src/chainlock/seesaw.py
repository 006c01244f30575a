"""Coordinate-ascent maximization of beta over observables from random starts.

Each sub-update forms the effective Hermitian operator of the linearized
objective with one observable slot left open (chain contraction) and replaces
the observable by the dichotomic projection of that operator.  An update that
would lower beta is discarded, which keeps every trace monotone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (QuantumModel, central_slot_matrix, default_layout,
                    dichotomic_projection, edge_slot_matrix, make_model,
                    random_dichotomic, signed_sums, term_expectations)
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

    def to_json_dict(self, include_model: bool = True) -> dict:
        from .qcore import model_to_json_dict
        out = {
            "best_beta": self.best_beta,
            "converged": self.converged,
            "restart_betas": list(self.restart_betas),
            "trace": [list(t) for t in self.trace],
        }
        if include_model:
            out["best_model"] = model_to_json_dict(self.best_model)
        return out


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


def _edge_sums(ws: _Workspace, table):
    return signed_sums(table.signs, ws.alice), signed_sums(table.signs, ws.charlie)


def _beta_of(ws: _Workspace, table):
    ya, yc = _edge_sums(ws, table)
    js = np.array([v.real for v in term_expectations(ya, yc, ws.bobs, table.central, ws.d)])
    return float(np.sum(np.sqrt(np.abs(js)))), js


def _weights(js: np.ndarray) -> np.ndarray:
    sigma = np.where(js >= 0, 1.0, -1.0)
    return sigma / (2.0 * np.sqrt(np.maximum(np.abs(js), WEIGHT_FLOOR)))


def _sweep(ws: _Workspace, table, beta: float, js: np.ndarray,
           optimize_edges: bool) -> tuple[float, np.ndarray]:
    n, d = ws.n, ws.d

    def try_update(slots: list, k: int, w: np.ndarray):
        """Project w into slots[k]; keep it unless beta drops."""
        nonlocal beta, js
        old = slots[k]
        slots[k] = dichotomic_projection(w)
        cand, cand_js = _beta_of(ws, table)
        if cand < beta - 1e-12:
            slots[k] = old
        else:
            beta, js = cand, cand_js

    ya, yc = _edge_sums(ws, table)  # the edge sums stay fixed while central slots move
    for t in range(n - 1):
        for yv in range(2):
            try_update(ws.bobs[t], yv, central_slot_matrix(
                ya, yc, ws.bobs, table.central, _weights(js), t, yv, d))
    if optimize_edges:
        for side, edges, other in (("alice", ws.alice, ws.charlie),
                                   ("charlie", ws.charlie, ws.alice)):
            other_sums = signed_sums(table.signs, other)  # fixed while this side moves
            for x in range(n):
                c = _weights(js)
                w = np.zeros((d, d), dtype=complex)
                for i, row in enumerate(table.central):
                    mats = [ws.bobs[t][y] for t, y in enumerate(row)]
                    w += (c[i] * table.signs[i][x]
                          * edge_slot_matrix(side, mats, other_sums[i], d, n))
                try_update(edges, x, w)
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
