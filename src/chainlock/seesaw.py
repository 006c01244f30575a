"""Coordinate-ascent maximization of beta over observables from random starts.

Each sub-update forms the effective Hermitian operator of the linearized
objective with one observable slot left open (chain contraction) and replaces
the observable by the dichotomic projection of that operator.  An update that
would lower beta is discarded, which keeps every trace monotone.

A sweep keeps every term's chain environments instead of refolding all terms
after each update (the left/right block caching of DMRG sweeps):

- central slots, left to right: the right environments are built once per
  sweep and each term's left environment advances past a party once its two
  slots are done.  A candidate refolds only the terms that read the updated
  slot, forward from their cached left environment; every other J_i is kept.
- Alice: the open-slot matrices are the full right environments, built once
  for the phase; a candidate rebuilds the Alice sums and refolds each term.
- Charlie: the open-slot matrices are the accepted full left environments; a
  candidate J_i is one closing contraction against the new Charlie sum.

Each cached value is the float sequence of a fresh fold, so the trace equals
that of refolding everything, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (CentralSweep, QuantumModel, close_chain, default_layout,
                    dichotomic_projection, edge_slot_matrix, edge_sums, left_environments,
                    make_model, random_dichotomic, signed_sums, term_expectations)
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
    js = np.array([v.real for v in term_expectations(ya, yc, ws.bobs, table.central, ws.d)])
    return float(np.sum(np.sqrt(np.abs(js)))), js


def _weights(js: np.ndarray) -> np.ndarray:
    sigma = np.where(js >= 0, 1.0, -1.0)
    return sigma / (2.0 * np.sqrt(np.maximum(np.abs(js), WEIGHT_FLOOR)))


def _sweep(ws: _Workspace, table, beta: float, js: np.ndarray,
           optimize_edges: bool) -> tuple[float, np.ndarray]:
    n, d = ws.n, ws.d
    central = table.central

    def keep(cand_js: np.ndarray) -> bool:
        """Accept the candidate J_i unless beta drops."""
        nonlocal beta, js
        cand = float(np.sum(np.sqrt(np.abs(cand_js))))
        if cand < beta - 1e-12:
            return False
        beta, js = cand, cand_js
        return True

    def edge_matrix(slots: list, x: int) -> np.ndarray:
        """sum_i c_i signs[i, x] G_i over every term, with edge slot x open."""
        c = _weights(js)
        w = np.zeros((d, d), dtype=complex)
        for i in range(table.terms):
            w += c[i] * table.signs[i][x] * slots[i]
        return w

    ya, yc = edge_sums(n, ws.alice, ws.charlie)  # fixed while the central slots move
    sweep = CentralSweep(ya, yc, ws.bobs, central, d)
    for t in range(n - 1):
        for yv in range(2):
            old = ws.bobs[t][yv]
            ws.bobs[t][yv] = dichotomic_projection(sweep.slot_matrix(t, yv, _weights(js)))
            cand_js = js.copy()  # terms that do not read the slot keep their J_i
            for i, v in sweep.refold(t, yv).items():
                cand_js[i] = v.real
            if not keep(cand_js):
                ws.bobs[t][yv] = old
        sweep.advance(t)
    if not optimize_edges:
        return beta, js
    ops = [[ws.bobs[t][y] for t, y in enumerate(row)] for row in central]
    lefts = sweep.left  # full left environments of the accepted observables
    # Alice's open-slot matrices are the full right environments, built once;
    # a candidate refolds every term from its new signed sum.
    slots = [edge_slot_matrix("alice", mats, c, d, n) for c, mats in zip(yc, ops)]
    for x in range(n):
        old = ws.alice[x]
        ws.alice[x] = dichotomic_projection(edge_matrix(slots, x))
        cand_lefts = [left_environments(a, mats, d)[-1]
                      for a, mats in zip(signed_sums(table.signs, ws.alice), ops)]
        if keep(np.array([close_chain(env, c, d, n).real for env, c in zip(cand_lefts, yc)])):
            lefts = cand_lefts
        else:
            ws.alice[x] = old
    # Charlie's open-slot matrices are those left environments (what
    # edge_slot_matrix("charlie", ...) would refold); a candidate closes each
    # of them against its new signed sum.
    slots = [env.T / d ** n for env in lefts]
    for x in range(n):
        old = ws.charlie[x]
        ws.charlie[x] = dichotomic_projection(edge_matrix(slots, x))
        cand_yc = signed_sums(table.signs, ws.charlie)
        if not keep(np.array([close_chain(env, c, d, n).real
                              for env, c in zip(lefts, cand_yc)])):
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
