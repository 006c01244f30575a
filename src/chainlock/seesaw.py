"""Coordinate-ascent maximization of beta over observables from random starts.

Each sub-update forms the effective Hermitian operator of the linearized
objective with one observable slot left open (chain contraction) and replaces
the observable by the dichotomic projection of that operator.  An update that
would lower beta is discarded, which keeps every trace monotone.

A sweep keeps the stacked chain environments of all terms instead of
refolding them after each update (the left/right block caching of DMRG
sweeps), and closes each candidate at its slot against environments it holds:

- central slots, left to right: the right environments are built once per
  sweep and dropped once their slot is passed; the left ones advance past a
  party once its two slots are done, and are dropped before the edge
  passes.  A candidate folds the slot's readers through its operator alone
  and closes them there; other J_i are kept.
- Alice: the open-slot matrices are the full right environments, one stacked
  pull; a candidate closes its new Alice sums against them.
- Charlie: likewise against the accepted Alice sums pushed through every
  party, the sweep's one push.

Candidates closed at different slots can differ from a fresh evaluation in
the last bits, so a sweep returns (beta, J) from one close of the full left
environments it holds: the float sequence of ``_beta_of``, a fresh value.

The restarts run in lockstep: every observable is a stack over the restarts
of a batch, each restart keeps or discards each update on its own (``np.where``
on the restart axis), and a restart leaves the batch on the sweep it stops.
Stacked ``eigh`` and ``@`` are one LAPACK or BLAS call per matrix and the
folds broadcast over ``...`` axes, so each restart runs the float sequence of
a run on its own.  ``ascend`` is that lockstep driver; the condition fitter
runs its starts through it with its own, unchecked, sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import integer_at_least, positive_finite
from .qcore import (CentralSweep, QuantumModel, close, default_layout, dichotomic_projection,
                    edge_sums, make_model, model_to_json_dict, pull, push, random_dichotomic,
                    signed_sums)
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
        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), low))
        if self.qubits_per_half is not None:  # None: the default layout
            object.__setattr__(self, "qubits_per_half",
                               integer_at_least("qubits_per_half", self.qubits_per_half, 1))
        object.__setattr__(self, "tolerance", positive_finite("tolerance", self.tolerance))


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
        return {
            "best_beta": self.best_beta,
            "converged": self.converged,
            "restart_betas": list(self.restart_betas),
            "trace": [list(t) for t in self.trace],
            "best_model": model_to_json_dict(self.best_model),
        }


def random_model(n: int, seed: int, qubits_per_half: int | None = None) -> QuantumModel:
    """Bell-chain model with seeded random dichotomic observables."""
    rng = np.random.default_rng(integer_at_least("seed", seed, 0))
    d = default_layout(n, qubits_per_half).link_dim
    alice = [random_dichotomic(d, rng) for _ in range(n)]
    charlie = [random_dichotomic(d, rng) for _ in range(n)]
    bobs = [[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)]
    return make_model(n, alice, bobs, charlie, qubits_per_half=qubits_per_half)


class Workspace:
    """Mutable observable matrices of a stack of starts, built from stacked matrices:
    (starts, d, d) per edge slot, (starts, d^2, d^2) per central slot; edge lists may be empty."""

    def __init__(self, alice, bobs, charlie):
        self.alice, self.charlie = list(alice), list(charlie)
        self.bobs = [list(pair) for pair in bobs]
        self.n = len(self.bobs) + 1
        self.d = math.isqrt(self.bobs[0][0].shape[-1])

    @classmethod
    def of_models(cls, models):
        """The models' observables, each stacked over the models."""
        def stack(*observables):
            return np.stack([o.matrix for o in observables])
        return cls(map(stack, *(mo.alice for mo in models)),
                   [map(stack, *pairs) for pairs in zip(*(mo.bobs for mo in models))],
                   map(stack, *(mo.charlie for mo in models)))

    def _map(self, f):
        """f applied to every stack, as (alice, bobs, charlie)."""
        return ([f(a) for a in self.alice], [[f(b) for b in pair] for pair in self.bobs],
                [f(c) for c in self.charlie])

    def keep_rows(self, rows: np.ndarray):
        """Drop every start but ``rows`` from each stack."""
        self.alice, self.bobs, self.charlie = self._map(lambda a: a[rows])

    def matrices(self, row: int):
        """(alice, bobs, charlie) of one start, copied out of the stacks."""
        return self._map(lambda a: a[row].copy())


def _closed(lefts: np.ndarray, rights: np.ndarray, d: int, n: int):
    """(beta, J) of every start from full left environments and right edge operators."""
    js = close(lefts, rights, d, n).real
    return np.sum(np.sqrt(np.abs(js)), axis=-1), js


def _beta_of(ws: Workspace, table):
    ya, yc = edge_sums(ws.n, ws.alice, ws.charlie)
    return _closed(push(ya, ws.bobs, table.central, ws.d), yc, ws.d, ws.n)


def _weights(js: np.ndarray) -> np.ndarray:
    sigma = np.where(js >= 0, 1.0, -1.0)
    return sigma / (2.0 * np.sqrt(np.maximum(np.abs(js), WEIGHT_FLOOR)))


def _sweep(ws: Workspace, table, beta: np.ndarray, js: np.ndarray,
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

    def edge_pass(edges: list, env: np.ndarray):
        """Update each edge in turn; env holds every term's chain but the edge side, so
        G_i = env[i]^T / d^n is its open-slot matrix and a candidate closes against env."""
        slots = env.swapaxes(-1, -2) / d ** n
        for x in range(n):
            old = edges[x]
            w = ((_weights(js) * signs[:, x])[..., None, None] * slots).sum(axis=-3)
            new = edges[x] = dichotomic_projection(w)
            edges[x] = chosen(keep(close(env, signed_sums(signs, edges), d, n).real), new, old)

    ya, yc = edge_sums(n, ws.alice, ws.charlie)  # fixed while the central slots move
    sweep = CentralSweep(ya, yc, ws.bobs, central, d)
    del ya  # the sweep's first left level, freed once it advances past party 1
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
        return _closed(sweep.left, yc, d, n)
    del sweep  # no edge pass reads its full left level
    edge_pass(ws.alice, pull(yc, ws.bobs, central, d)[0])
    # Charlie's environments: what edge_slot_matrix("charlie", ...) folds per term
    lefts = push(signed_sums(signs, ws.alice), ws.bobs, central, d)
    edge_pass(ws.charlie, lefts)
    return _closed(lefts, signed_sums(signs, ws.charlie), d, n)


def restart_bytes(n: int, d: int) -> int:
    """One start's bytes in a stack: a sweep's n + 1 environment stacks and central operators.

    A lower bound on a seesaw sweep, not its peak: one sweep with edges peaks
    at 1.11-1.15 x starts x this under tracemalloc ((n, m, starts) = (8, 1, 8),
    (10, 1, 4), (12, 1, 3), (6, 2, 4)).  The condition fitter's sweep peaks at
    0.75-1.26 x; its whole fit, which also holds its drawn starts and each
    start's copied-out operators, at up to 2.2 x where the central operators
    dominate (n = 6, d = 8).
    """
    return 16 * ((n + 1) * 2 ** (n - 1) * d ** 2 + 2 * (n - 1) * d ** 4)


def ascend(ws: Workspace, carry: tuple, sweep, max_sweeps: int, tol: float) -> list:
    """Sweep a stack of starts in lockstep until each stops or has run ``max_sweeps``.

    ``carry`` holds per-start arrays, the objective first; ``sweep(ws, *carry)``
    sweeps every start left in place and returns the new carry.  A start stops
    on the sweep where its objective rises by less than ``tol`` (or falls) and
    leaves the stack, its matrices copied out first.  Returns, in start order,
    each start's (objective history from the start on, converged, matrices).
    """
    active = np.arange(len(carry[0]))
    history = [[float(v)] for v in carry[0]]
    finals = [None] * len(history)
    for sweeps in range(1, max_sweeps + 1):
        new = sweep(ws, *carry)
        done = new[0] - carry[0] < tol
        stop, carry = done | (sweeps == max_sweeps), new
        for k, s in enumerate(active.tolist()):
            history[s].append(float(carry[0][k]))
            if stop[k]:
                finals[s] = (bool(done[k]), ws.matrices(k))
        if stop.any():
            active, carry = active[~stop], tuple(c[~stop] for c in carry)
            ws.keep_rows(~stop)
            if not active.size:
                break
    return [(h, *f) for h, f in zip(history, finals)]


def seesaw_optimize(n: int, config: SeesawConfig | None = None) -> SeesawReport:
    """Best beta over seeded restarts of coordinate ascent on the Bell chain.

    The restarts run in lockstep batches of at most _RESTART_BATCH_BYTES of
    cached environments and observables; each restart's trace and result
    equal those of running it alone.
    """
    config = config or SeesawConfig()
    table = build_encoding(n)
    layout = default_layout(n, config.qubits_per_half)
    size = max(1, _RESTART_BATCH_BYTES // restart_bytes(n, layout.link_dim))
    trace: list[tuple[int, int, float]] = []
    restart_betas: list[float] = []
    best_beta, best = -1.0, None
    all_converged = True
    for lo in range(0, config.restarts, size):
        restarts = list(range(lo, min(lo + size, config.restarts)))
        ws = Workspace.of_models([random_model(n, config.seed + 7919 * r, config.qubits_per_half)
                                  for r in restarts])
        results = ascend(ws, _beta_of(ws, table),
                         lambda ws, beta, js: _sweep(ws, table, beta, js, config.optimize_edges),
                         config.max_iterations, config.tolerance)
        for r, (history, converged, matrices) in zip(restarts, results):
            trace += [(r, it, beta) for it, beta in enumerate(history)]
            restart_betas.append(history[-1])
            all_converged &= converged
            if history[-1] > best_beta + 1e-12:  # ties keep the lowest restart index
                best_beta, best = history[-1], matrices
    return SeesawReport(best_beta=best_beta,
                        best_model=make_model(n, *best, qubits_per_half=layout.qubits_per_half),
                        trace=tuple(trace), converged=all_converged,
                        restart_betas=tuple(restart_betas))
