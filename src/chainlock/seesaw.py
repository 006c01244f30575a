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

The restarts run in lockstep: every observable is a stack over the restarts
of a batch, each restart keeps or discards each update on its own (``np.where``
on the restart axis), and a restart leaves the batch on the sweep it stops.
Stacked ``eigh`` and ``@`` are one LAPACK or BLAS call per matrix and the
folds broadcast over ``...`` axes, so each restart runs the float sequence of
a run on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (CentralSweep, QuantumModel, close, default_layout, dichotomic_projection,
                    edge_sums, make_model, pull, push, random_dichotomic, signed_sums,
                    term_expectations)
from .scenario import build_encoding

WEIGHT_FLOOR = 1e-12
# Restarts sweep together in batches of at most this many bytes of cached
# environments and observables: thousands of restarts at d <= 4, 37 at n = 6
# on the default layout (d = 8), and one from n = 8 (d = 16) on.
_RESTART_BATCH_BYTES = 1 << 25  # 32 MB


@dataclass(frozen=True)
class SeesawConfig:
    max_iterations: int = 500
    tolerance: float = 1e-7
    restarts: int = 10
    seed: int = 0
    optimize_edges: bool = True
    qubits_per_half: int | None = None

    def __post_init__(self):
        def number(value, kinds) -> bool:  # bool is an int subclass in Python
            return isinstance(value, kinds) and not isinstance(value, bool)

        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (number(value, (int, np.integer)) and value >= low):
                raise ValueError(f"need an integer {name} >= {low}, got {value!r}")
        if not (number(self.tolerance, (int, float)) and 0 < self.tolerance < math.inf):
            raise ValueError(f"need a finite tolerance > 0, got {self.tolerance!r}")
        m = self.qubits_per_half
        if not (m is None or (number(m, (int, np.integer)) and m >= 1)):
            raise ValueError(f"need qubits_per_half None or an integer >= 1, got {m!r}")


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
    """Mutable observable matrices of a batch of restarts, stacked on a leading axis."""

    def __init__(self, models):
        self.n = models[0].n
        self.d = models[0].layout.link_dim
        self.alice = [np.stack([mo.alice[x].matrix for mo in models]) for x in range(self.n)]
        self.charlie = [np.stack([mo.charlie[x].matrix for mo in models])
                        for x in range(self.n)]
        self.bobs = [[np.stack([mo.bobs[t][y].matrix for mo in models]) for y in range(2)]
                     for t in range(self.n - 1)]

    def _map(self, f):
        """f applied to every stack, as (alice, bobs, charlie)."""
        return ([f(a) for a in self.alice], [[f(b) for b in pair] for pair in self.bobs],
                [f(c) for c in self.charlie])

    def keep_rows(self, rows: np.ndarray):
        """Drop every restart but ``rows`` from each stack."""
        self.alice, self.bobs, self.charlie = self._map(lambda a: a[rows])

    def matrices(self, row: int):
        """(alice, bobs, charlie) of one restart, copied out of the stacks."""
        return self._map(lambda a: a[row].copy())


def _beta_of(ws: _Workspace, table):
    ya, yc = edge_sums(ws.n, ws.alice, ws.charlie)
    js = term_expectations(ya, yc, ws.bobs, table.central, ws.d).real
    return np.sum(np.sqrt(np.abs(js)), axis=-1), js


def _weights(js: np.ndarray) -> np.ndarray:
    sigma = np.where(js >= 0, 1.0, -1.0)
    return sigma / (2.0 * np.sqrt(np.maximum(np.abs(js), WEIGHT_FLOOR)))


def _sweep(ws: _Workspace, table, beta: np.ndarray, js: np.ndarray,
           optimize_edges: bool) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of every restart in the batch; each takes its own accept/reject decisions."""
    n, d = ws.n, ws.d
    central, signs = table.central, table.signs

    def keep(cand_js: np.ndarray) -> np.ndarray:
        """Accept each restart's candidate J_i unless its beta drops; the accepted rows."""
        nonlocal beta, js
        cand = np.sum(np.sqrt(np.abs(cand_js)), axis=-1)
        ok = ~(cand < beta - 1e-12)
        beta, js = np.where(ok, cand, beta), np.where(ok[:, None], cand_js, js)
        return ok

    def chosen(ok: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
        return np.where(ok.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)

    def edge_matrix(slots: np.ndarray, x: int) -> np.ndarray:
        """sum_i c_i signs[i, x] G_i over every term, with edge slot x open."""
        return ((_weights(js) * signs[:, x])[..., None, None] * slots).sum(axis=-3)

    ya, yc = edge_sums(n, ws.alice, ws.charlie)  # fixed while the central slots move
    sweep = CentralSweep(ya, yc, ws.bobs, central, d)
    for t in range(n - 1):
        for yv in range(2):
            old = ws.bobs[t][yv]
            new = ws.bobs[t][yv] = dichotomic_projection(sweep.slot_matrix(t, yv, _weights(js)))
            readers, values = sweep.refold(t, yv)
            cand_js = js.copy()  # terms that do not read the slot keep their J_i
            cand_js[:, readers] = values.real
            ws.bobs[t][yv] = chosen(keep(cand_js), new, old)
        sweep.advance(t)
    if not optimize_edges:
        return beta, js
    lefts = sweep.left  # full left environments of the accepted observables
    # Alice's open-slot matrices are the full right environments, one stacked
    # pull; a candidate pushes its new signed sums through every term.
    slots = pull(yc, ws.bobs, central, d)[0].swapaxes(-1, -2) / d ** n
    for x in range(n):
        old = ws.alice[x]
        new = ws.alice[x] = dichotomic_projection(edge_matrix(slots, x))
        cand_lefts = push(signed_sums(signs, ws.alice), ws.bobs, central, d)
        ok = keep(close(cand_lefts, yc, d, n).real)
        lefts = chosen(ok, cand_lefts, lefts)
        ws.alice[x] = chosen(ok, new, old)
    # Charlie's open-slot matrices are those left environments (what
    # edge_slot_matrix("charlie", ...) would refold); a candidate closes them
    # against its new signed sums.
    slots = lefts.swapaxes(-1, -2) / d ** n
    for x in range(n):
        old = ws.charlie[x]
        new = ws.charlie[x] = dichotomic_projection(edge_matrix(slots, x))
        ws.charlie[x] = chosen(keep(close(lefts, signed_sums(signs, ws.charlie), d, n).real),
                               new, old)
    return beta, js


def _restart_bytes(n: int, d: int) -> int:
    """One restart's share of a batch: a sweep's n + 1 environment stacks and its observables."""
    return 16 * ((n + 1) * 2 ** (n - 1) * d ** 2 + 2 * (n - 1) * d ** 4)


def _ascend(ws: _Workspace, table, restarts: list[int], config: SeesawConfig) -> list:
    """Run a batch of restarts in lockstep until each converges or hits the cap.

    A restart leaves the batch on the sweep it stops.  Returns, in restart
    order, each restart's (trace rows, beta, converged, matrices).
    """
    active = np.array(restarts)
    beta, js = _beta_of(ws, table)
    rows = {r: [(r, 0, float(b))] for r, b in zip(restarts, beta)}
    finals = {}
    for it in range(1, config.max_iterations + 1):
        new_beta, js = _sweep(ws, table, beta, js, config.optimize_edges)
        done = new_beta - beta < config.tolerance
        beta = new_beta
        for k, r in enumerate(active.tolist()):
            rows[r].append((r, it, float(beta[k])))
            if done[k]:
                finals[r] = (float(beta[k]), True, ws.matrices(k))
        if done.any():
            active, beta, js = active[~done], beta[~done], js[~done]
            ws.keep_rows(~done)
            if not active.size:
                break
    for k, r in enumerate(active.tolist()):
        finals[r] = (float(beta[k]), False, ws.matrices(k))
    return [(rows[r], *finals[r]) for r in restarts]


def seesaw_optimize(n: int, config: SeesawConfig | None = None) -> SeesawReport:
    """Best beta over seeded restarts of coordinate ascent on the Bell chain.

    The restarts run in lockstep batches of at most _RESTART_BATCH_BYTES of
    cached environments and observables; each restart's trace and result
    equal those of running it alone.
    """
    config = config or SeesawConfig()
    table = build_encoding(n)
    layout = default_layout(n, config.qubits_per_half)
    size = max(1, _RESTART_BATCH_BYTES // _restart_bytes(n, layout.link_dim))
    trace: list[tuple[int, int, float]] = []
    restart_betas: list[float] = []
    best_beta, best = -1.0, None
    all_converged = True
    for lo in range(0, config.restarts, size):
        restarts = list(range(lo, min(lo + size, config.restarts)))
        models = [random_model(n, seed=config.seed + 7919 * r,
                               qubits_per_half=config.qubits_per_half) for r in restarts]
        for rows, beta, converged, matrices in _ascend(_Workspace(models), table, restarts,
                                                       config):
            trace += rows
            restart_betas.append(beta)
            all_converged &= converged
            if beta > best_beta + 1e-12:  # ties keep the lowest restart index
                best_beta, best = beta, matrices
    return SeesawReport(best_beta=best_beta,
                        best_model=make_model(n, *best, qubits_per_half=layout.qubits_per_half),
                        trace=tuple(trace), converged=all_converged,
                        restart_betas=tuple(restart_betas))
