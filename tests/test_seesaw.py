import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chainlock.nlocal import alpha_closed_form
from chainlock.qcore import Observable, beta_quantum, dichotomic_projection
from chainlock.scenario import build_encoding
from chainlock import qcore, seesaw
from chainlock.seesaw import (SeesawConfig, SeesawReport, Workspace, _beta_of, _sweep, _weights,
                              ascend, random_model, seesaw_optimize)
from chainlock.soscert import tsirelson_ceiling
from reference_folds import (bob_slot, chain_value, close_one, edge_slot, pull_one, push_one,
                             signed_sums)


def test_config_validation():
    with pytest.raises(ValueError):
        SeesawConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SeesawConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SeesawConfig(restarts=0)


@pytest.mark.parametrize("field, value", [
    ("tolerance", float("nan")),  # never met: every restart ran to the cap
    ("tolerance", float("inf")),
    ("restarts", True),  # ran as one restart
    ("restarts", 2.0),  # a TypeError once the run started
    ("max_iterations", 2.5),
    ("seed", -1),  # a ValueError from the generator once the run started
    ("seed", 1.0),
    ("tolerance", -math.inf),
    ("tolerance", True),
    ("tolerance", "1e-7"),
    ("max_iterations", np.int64(0)),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SeesawConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = SeesawConfig(restarts=np.int64(2), seed=np.int64(3), max_iterations=np.int32(5),
                          qubits_per_half=np.int64(2), tolerance=np.float32(0.5))
    assert (config.restarts, config.seed, config.max_iterations, config.qubits_per_half,
            config.tolerance) == (2, 3, 5, 2, 0.5)
    assert all(type(getattr(config, f)) is int
               for f in ("restarts", "seed", "max_iterations", "qubits_per_half"))
    assert type(config.tolerance) is float


@pytest.mark.parametrize("value", [True, 2.0, 0, -1, "2"])
def test_config_rejects_bad_qubits_per_half(value):
    # True was dumped as "qubits_per_half": true, which the model loader
    # refuses; 2.0 failed only once the run started
    with pytest.raises(ValueError, match="qubits_per_half"):
        SeesawConfig(qubits_per_half=value)


def test_numpy_integer_run_round_trips_through_json():
    # a numpy n or pair count must not reach the JSON as a numpy scalar
    import json
    from chainlock.qcore import model_from_json_dict
    rep = seesaw_optimize(np.int64(2), SeesawConfig(restarts=1, seed=1, max_iterations=5,
                                                    qubits_per_half=np.int64(1)))
    data = json.loads(json.dumps(rep.to_json_dict()))
    assert (data["best_model"]["n"], data["best_model"]["qubits_per_half"]) == (2, 1)
    back = model_from_json_dict(data["best_model"])
    assert beta_quantum(back)[0] == beta_quantum(rep.best_model)[0]


def test_random_model_deterministic():
    a = random_model(2, seed=1)
    b = random_model(2, seed=1)
    for oa, ob in zip(a.alice, b.alice):
        assert np.array_equal(oa.matrix, ob.matrix)
    assert len(a.alice) == 2 and len(a.bobs) == 1
    for pair in a.bobs:
        for o in pair:
            Observable(o.matrix)  # revalidates dichotomic + hermitian


@pytest.mark.parametrize("seed", [True, 1.0, -1, "1"])
def test_random_model_refuses_bad_seed(seed):
    # True seeded 1, 1.0 and -1 were numpy errors that did not name the argument
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        random_model(2, seed)


def test_random_model_is_suboptimal():
    beta, _ = beta_quantum(random_model(3, seed=7))
    assert beta < tsirelson_ceiling(3)


def test_seesaw_n2_reaches_optimum():
    rep = seesaw_optimize(2, SeesawConfig(restarts=10, seed=0))
    assert rep.best_beta == pytest.approx(tsirelson_ceiling(2), abs=1e-4)
    assert len(rep.restart_betas) == 10


def test_seesaw_reproducible():
    cfg = SeesawConfig(restarts=3, seed=42, max_iterations=60)
    a = seesaw_optimize(2, cfg)
    b = seesaw_optimize(2, cfg)
    assert a.best_beta == b.best_beta
    assert a.trace == b.trace
    assert a.restart_betas == b.restart_betas


def test_seesaw_traces_monotone():
    rep = seesaw_optimize(3, SeesawConfig(restarts=4, seed=5, max_iterations=80))
    per_restart = {}
    for r, _, beta in rep.trace:
        if r in per_restart:
            assert beta >= per_restart[r] - 1e-10
        per_restart[r] = beta


def test_seesaw_soundness_below_ceiling():
    for n in (2, 3):
        rep = seesaw_optimize(n, SeesawConfig(restarts=4, seed=9, max_iterations=80))
        assert rep.best_beta <= tsirelson_ceiling(n) + 1e-7


def test_seesaw_beta_matches_model():
    rep = seesaw_optimize(2, SeesawConfig(restarts=2, seed=3, max_iterations=60))
    beta, _ = beta_quantum(rep.best_model)
    assert beta == pytest.approx(rep.best_beta, abs=1e-9)


def test_seesaw_freeze_edges():
    cfg = SeesawConfig(restarts=1, seed=11, optimize_edges=False, max_iterations=40)
    rep = seesaw_optimize(2, cfg)
    start = random_model(2, seed=11)
    for got, init in zip(rep.best_model.alice, start.alice):
        assert np.allclose(got.matrix, init.matrix)


def test_seesaw_qubit_override():
    rep = seesaw_optimize(4, SeesawConfig(restarts=1, seed=2, max_iterations=10,
                                          qubits_per_half=1))
    assert rep.best_model.layout.qubits_per_half == 1
    assert rep.best_model.layout.total_qubits == 8


def test_report_json_shape():
    rep = seesaw_optimize(2, SeesawConfig(restarts=1, seed=1, max_iterations=20))
    d = rep.to_json_dict()
    assert set(d) == {"best_beta", "converged", "restart_betas", "trace", "best_model"}
    assert d["best_model"]["n"] == 2


# Restart betas and trace lengths of short seeded runs, frozen from the
# sweep that closes each candidate at its slot and ends each sweep on a fresh
# evaluation.  Any moved bit means the arithmetic order changed.
@pytest.mark.parametrize("n, m, seed, restarts, max_iterations, betas, length", [
    (3, 1, 5, 2, 40, (5.384245129847386, 5.825789526734354), 70),
    (4, 2, 3, 1, 500, (11.128774585060835,), 293),
])
def test_seesaw_pinned_runs(n, m, seed, restarts, max_iterations, betas, length):
    rep = seesaw_optimize(n, SeesawConfig(restarts=restarts, seed=seed, qubits_per_half=m,
                                          max_iterations=max_iterations))
    assert rep.restart_betas == betas
    assert len(rep.trace) == length
    assert rep.best_beta == beta_quantum(rep.best_model, evaluator="contracted")[0]


def test_seesaw_n6_row_violates():
    # the README landscape's n = 6 row:
    # chainlock seesaw --n 6 --pairs-per-source 1 --restarts 8 --seed 0
    rep = seesaw_optimize(6, SeesawConfig(restarts=8, seed=0, qubits_per_half=1))
    assert rep.best_beta > alpha_closed_form(6)
    assert rep.best_beta == pytest.approx(60.0369239481, abs=1e-6)


@pytest.mark.parametrize("n, seed, restarts, max_iterations", [
    (2, 0, 3, 60), (4, 7, 2, 60), (5, 1, 1, 30),
])
def test_seesaw_best_beta_is_contracted_beta(n, seed, restarts, max_iterations):
    rep = seesaw_optimize(n, SeesawConfig(restarts=restarts, seed=seed, qubits_per_half=1,
                                          max_iterations=max_iterations))
    assert rep.best_beta == beta_quantum(rep.best_model, evaluator="contracted")[0]


def _uncached_sweep(ws, table, beta, js, optimize_edges):
    """Reference sweep from the per-term folds of ``reference_folds``, one term at a time.

    A central candidate recomputes the J_i of the terms that read its slot at
    the slot: the Alice sum pushed through the parties up to it, closed
    against the Charlie sum pulled back through the parties after it.  An edge
    candidate closes its new signed sums against the other side's sums folded
    through every central operator.  The sweep returns a from-scratch
    evaluation of every J_i.
    """
    n, d = ws.n, ws.d

    def operators(row):
        return [ws.bobs[t][y] for t, y in enumerate(row)]

    def fresh():
        ya, yc = signed_sums(table.signs, ws.alice), signed_sums(table.signs, ws.charlie)
        cand = np.array([chain_value(a, operators(row), c, d).real
                         for a, c, row in zip(ya, yc, table.central)])
        return float(np.sum(np.sqrt(np.abs(cand)))), cand

    def try_update(slots, k, w, candidate_js):
        nonlocal beta, js
        old = slots[k]
        slots[k] = dichotomic_projection(w)
        cand_js = candidate_js()
        cand = float(np.sum(np.sqrt(np.abs(cand_js))))
        if cand < beta - 1e-12:
            slots[k] = old
        else:
            beta, js = cand, cand_js

    ya, yc = signed_sums(table.signs, ws.alice), signed_sums(table.signs, ws.charlie)
    for t in range(n - 1):
        for yv in range(2):
            readers = np.flatnonzero(table.central[:, t] == yv)
            chains = [(ya[i], operators(table.central[i]), yc[i]) for i in readers]

            def at_slot():
                cand_js = js.copy()  # terms that do not read the slot keep their J_i
                for i in readers:
                    ops = operators(table.central[i])
                    cand_js[i] = close_one(push_one(ya[i], ops[:t + 1], d),
                                           pull_one(yc[i], ops[t + 1:], d), d, n).real
                return cand_js

            try_update(ws.bobs[t], yv, bob_slot(chains, _weights(js)[readers], t, d, n), at_slot)
    if optimize_edges:
        for side, edges, other in (("alice", ws.alice, ws.charlie),
                                   ("charlie", ws.charlie, ws.alice)):
            other_sums = signed_sums(table.signs, other)
            fold = pull_one if side == "alice" else push_one
            envs = [fold(other_sums[i], operators(row), d) for i, row in enumerate(table.central)]

            def closed():
                sums = signed_sums(table.signs, edges)
                return np.array([(close_one(s, env, d, n) if side == "alice"
                                  else close_one(env, s, d, n)).real
                                 for s, env in zip(sums, envs)])

            for x in range(n):
                c = _weights(js)
                w = np.zeros((d, d), dtype=complex)
                for i, row in enumerate(table.central):
                    w += (c[i] * table.signs[i][x]
                          * edge_slot(side, operators(row), other_sums[i], d, n))
                try_update(edges, x, w, closed)
    return fresh()


def _lone_workspace(model):
    """One model's observables as plain matrices, for the reference sweep."""
    return SimpleNamespace(n=model.n, d=model.layout.link_dim,
                           alice=[np.array(o.matrix) for o in model.alice],
                           charlie=[np.array(o.matrix) for o in model.charlie],
                           bobs=[[np.array(o.matrix) for o in pair] for pair in model.bobs])


def _flat(alice, bobs, charlie):
    return (*alice, *charlie, *sum(bobs, []))


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2)])
@pytest.mark.parametrize("optimize_edges", [True, False])
def test_cached_sweep_equals_uncached_sweep(n, m, optimize_edges):
    # the batched cached sweep must take, for each model of the batch, every
    # accept/reject decision of the uncached one on the same floats, so betas,
    # J_i and observables match bit for bit
    table = build_encoding(n)
    models = [random_model(n, seed=10 * n + m + 1000 * k, qubits_per_half=m) for k in range(3)]
    cached, references = Workspace.of_models(models), [_lone_workspace(mo) for mo in models]
    beta, js = _beta_of(cached, table)
    ref = [(beta[k], js[k]) for k in range(len(models))]
    for _ in range(3):
        beta, js = _sweep(cached, table, beta, js, optimize_edges)
        for k, reference in enumerate(references):
            ref[k] = _uncached_sweep(reference, table, *ref[k], optimize_edges)
            assert beta[k] == ref[k][0]
            assert np.array_equal(js[k], ref[k][1])
            for got, want in zip(_flat(*cached.matrices(k)),
                                 _flat(reference.alice, reference.bobs, reference.charlie)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 5])
def test_sweep_pushes_once_and_refolds_one_party(n, monkeypatch):
    # every candidate closes against environments the sweep already holds: a
    # sweep with edges pushes once (Charlie's environments) and pulls once
    # (Alice's), and a central candidate folds its readers through one party
    calls = dict.fromkeys(("push", "pull", "_fold"), 0)

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    table = build_encoding(n)
    ws = Workspace.of_models([random_model(n, seed=n)])
    beta, js = _beta_of(ws, table)
    count(seesaw, "push")
    count(seesaw, "pull")
    _sweep(ws, table, beta, js, True)
    assert (calls["push"], calls["pull"]) == (1, 1)
    count(qcore, "_fold")
    sweep = qcore.CentralSweep(*qcore.edge_sums(n, ws.alice, ws.charlie), ws.bobs,
                               table.central, ws.d)
    for t in range(n - 1):
        for y in range(2):
            calls["_fold"] = 0
            sweep.refold(t, y)
            assert calls["_fold"] == 1
        sweep.advance(t)


@pytest.mark.parametrize("n, m, starts", [(8, 1, 8), (10, 1, 4), (12, 1, 3), (6, 2, 4)])
def test_sweep_peak_within_restart_bytes(n, m, starts):
    # restart_bytes sizes the seesaw's batches: a sweep with edges holds the
    # central sweep's levels, released as it passes them, and then Alice's
    # pull, never both (2.0x of the byte model when it held both); the central
    # sweep and its first left level are dropped before the edge passes
    # (1.19-1.32x while they were kept, 1.11-1.15x since)
    import tracemalloc
    table = build_encoding(n)
    ws = Workspace.of_models([random_model(n, seed=s, qubits_per_half=m) for s in range(starts)])
    beta, js = _beta_of(ws, table)
    tracemalloc.start()
    try:
        _sweep(ws, table, beta, js, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * starts * seesaw.restart_bytes(n, ws.d)


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (5, 2)])
@pytest.mark.parametrize("optimize_edges", [True, False])
def test_restart_equals_lone_restart(n, m, optimize_edges):
    # restart r of a batch runs exactly as seed + 7919 r alone: the same trace
    # rows, restart beta and final observables
    config = SeesawConfig(restarts=3, seed=5, qubits_per_half=m, max_iterations=30,
                          optimize_edges=optimize_edges)
    rep = seesaw_optimize(n, config)
    models = [random_model(n, seed=5 + 7919 * r, qubits_per_half=m) for r in range(3)]
    batch = _seesaw_ascend(models, config)
    for r in range(3):
        lone_config = replace(config, restarts=1, seed=5 + 7919 * r)
        lone = seesaw_optimize(n, lone_config)
        assert [row[1:] for row in rep.trace if row[0] == r] == [row[1:] for row in lone.trace]
        assert rep.restart_betas[r] == lone.restart_betas[0]
        (history, converged, matrices), = _seesaw_ascend(models[r:r + 1], config)
        assert (history, converged) == batch[r][:2]  # the restart's beta ends its history
        for got, want in zip(_flat(*batch[r][2]), _flat(*matrices)):
            assert np.array_equal(got, want)
        if rep.restart_betas.index(rep.best_beta) == r:
            for got, want in zip(_flat(*_model_matrices(rep.best_model)),
                                 _flat(*_model_matrices(lone.best_model))):
                assert np.array_equal(got, want)


def _seesaw_ascend(models, config):
    """The seesaw's ascent of the models as one stack, as ``seesaw_optimize`` runs a batch."""
    ws, table = Workspace.of_models(models), build_encoding(models[0].n)
    return ascend(ws, _beta_of(ws, table),
                  lambda ws, beta, js: _sweep(ws, table, beta, js, config.optimize_edges),
                  config.max_iterations, config.tolerance)


def _model_matrices(model):
    return ([o.matrix for o in model.alice], [[o.matrix for o in p] for p in model.bobs],
            [o.matrix for o in model.charlie])


def test_ascend_retires_each_start_on_its_own_sweep():
    # a scripted sweep and no quantum numerics: start k's objective follows
    # objectives[k], and every sweep writes its number into each start's marks
    objectives = [[0.0, 1.0, 1.0 + 1e-9],  # rises by less than tol: stops on sweep 2
                  [0.0, 2.0, 1.5],  # falls: stops on sweep 2
                  [0.0, 1.0, 2.0, 3.0, 4.0],  # still rising at the cap of 4 sweeps
                  [5.0, 5.0]]  # no rise: stops on sweep 1
    marks = np.array([[k, 0.0] for k in range(4)])  # (start, sweep) per start
    ws = Workspace([marks], [[np.zeros((4, 1, 1))] * 2], [])
    calls = []

    def sweep(ws, objective, ids):
        calls.append(ids.tolist())
        ws.alice[0][:, 1] = len(calls)  # in place, until a start leaves the stack
        return np.array([objectives[k][len(calls)] for k in ids]), ids

    results = ascend(ws, (np.array([o[0] for o in objectives]), np.arange(4)), sweep, 4, 1e-6)
    marks[:] = -1  # start 3 stopped in this stack: its matrices must be a copy
    assert calls == [[0, 1, 2, 3], [0, 1, 2], [2], [2]]
    assert [history for history, _, _ in results] == objectives
    assert [converged for _, converged, _ in results] == [True, True, False, True]
    assert [m[0][0].tolist() for _, _, m in results] == [[0, 2], [1, 2], [2, 4], [3, 1]]


@pytest.mark.parametrize("size", [1, 3])
def test_batch_cap_keeps_every_bit(size, monkeypatch):
    # cutting the restarts into batches of 1 or 3 changes no output bit
    n, m = 4, 1
    config = SeesawConfig(restarts=7, seed=11, qubits_per_half=m, max_iterations=80)
    whole = seesaw_optimize(n, config)
    sizes = []

    def counting(ws, carry, *args):
        sizes.append(len(carry[0]))
        return ascend(ws, carry, *args)

    monkeypatch.setattr(seesaw, "ascend", counting)
    monkeypatch.setattr(seesaw, "_RESTART_BATCH_BYTES", size * seesaw.restart_bytes(n, 2) + 1)
    cut = seesaw_optimize(n, config)
    assert sizes == [size] * (7 // size) + ([7 % size] if 7 % size else [])
    assert cut.trace == whole.trace
    assert cut.restart_betas == whole.restart_betas
    assert (cut.best_beta, cut.converged) == (whole.best_beta, whole.converged)
    for got, want in zip(_flat(*_model_matrices(cut.best_model)),
                         _flat(*_model_matrices(whole.best_model))):
        assert np.array_equal(got, want)
