import math

import numpy as np
import pytest

from chainlock import constructions
from chainlock.constructions import _bell_omegas, fit_bob_observables, optimal_model
from chainlock.errors import (CapacityError, ConstructionFailedError, DegenerateCertificateError,
                              UnsupportedStateError)
from chainlock.qcore import (PAULI_X, PAULI_Z, NetworkState, QuantumModel, bell_chain_state,
                             beta_quantum, jordan_wigner_set, kron_all, random_dichotomic,
                             signed_sums)
from chainlock.scenario import build_encoding
from chainlock.soscert import _omegas, certify, tsirelson_ceiling

SQ2 = math.sqrt(2)


def test_optimal_model_dispatch():
    # every n aims at the ceiling; n=2 is built explicitly, n=3 as the closest
    # product-Pauli model, n >= 4 by the least-squares condition solve
    assert tsirelson_ceiling(4) == pytest.approx(16.0)
    assert tsirelson_ceiling(5) == pytest.approx(16 * math.sqrt(5))
    optimal_model(2)
    with pytest.raises(ConstructionFailedError, match="closest product-Pauli"):
        optimal_model(3)
    with pytest.raises(ConstructionFailedError, match="least-squares"):
        optimal_model(4)


def test_optimal_model_n2():
    model = optimal_model(2)
    beta, terms = beta_quantum(model)
    assert beta == pytest.approx(2 * SQ2, abs=1e-12)
    assert terms == pytest.approx([2.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_optimal_model_n2_on_more_pairs(m):
    # the CHSH chain on the first pair of each source, the identity on the rest
    model = optimal_model(2, qubits_per_half=m)
    assert model.layout.qubits_per_half == m
    beta, _ = beta_quantum(model)
    assert beta == pytest.approx(2 * SQ2, abs=1e-14)
    assert certify(model).certified


def test_optimal_model_unsupported():
    with pytest.raises(CapacityError):
        optimal_model(6)


def test_optimal_model_n3_reports_obstruction():
    with pytest.raises(ConstructionFailedError) as exc:
        optimal_model(3)
    err = exc.value
    assert isinstance(err.model, QuantumModel)
    assert err.expected == pytest.approx(tsirelson_ceiling(3))
    # closest product-Pauli model: every term exactly 2, beta = 4 sqrt(2)
    assert err.beta == pytest.approx(4 * SQ2, abs=1e-9)
    assert err.terms == beta_quantum(err.model)[1]
    assert err.terms == pytest.approx([2.0] * 4, abs=1e-9)
    # residual of the zero conditions is sqrt(2 - 4/3) per term
    assert list(err.residuals) == pytest.approx([math.sqrt(2 - 4 / 3)] * 4, abs=1e-6)


@pytest.mark.parametrize("n,overlap", [(4, 0.5), (5, 0.4)])
def test_optimal_model_solve_route_reports_obstruction(n, overlap):
    with pytest.raises(ConstructionFailedError) as exc:
        optimal_model(n)
    err = exc.value
    assert isinstance(err.model, QuantumModel)
    # least-squares overlap settles at 2/n, so beta = 2^(n-1) sqrt(2)
    assert err.beta == pytest.approx(2 ** (n - 1) * SQ2, abs=1e-6)
    assert err.terms == beta_quantum(err.model)[1]
    expected_res = math.sqrt(2 - 2 * overlap)
    assert list(err.residuals) == pytest.approx([expected_res] * 2 ** (n - 1), abs=1e-6)


def test_optimal_model_n4_residuals_pinned():
    # frozen from the uncached fitter sweep; any moved bit means the
    # arithmetic order of the fit changed (a cold cache, so the fit runs here)
    constructions._fitted_construction.cache_clear()
    with pytest.raises(ConstructionFailedError) as exc:
        optimal_model(4)
    assert list(exc.value.residuals) == [
        0.9999999797012795, 0.9999999643571015, 1.0000000356428982, 1.0000000202987218,
        0.9999999643571011, 0.9999999797012795, 1.0000000202987216, 1.0000000356428984]


def test_optimal_model_n3_two_pairs_still_obstructed():
    with pytest.raises(ConstructionFailedError):
        optimal_model(3, qubits_per_half=2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("value", [0, 1.0, True, -1])
def test_optimal_model_refuses_bad_qubits_per_half(n, value):
    # the layout checks the value before any branch; n = 3 used to return the
    # m = 1 product-Pauli failure for 0, 1.0 and True
    with pytest.raises(ValueError, match="qubits_per_half"):
        optimal_model(n, qubits_per_half=value)


@pytest.mark.parametrize("value", [None, 1])
def test_optimal_model_n3_one_pair_is_product_pauli(value):
    with pytest.raises(ConstructionFailedError, match="closest product-Pauli"):
        optimal_model(3, qubits_per_half=value)


def _fit_residuals(overlaps):
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * overlaps))


def test_fit_recovers_n2_bobs():
    a1 = (PAULI_Z + PAULI_X) / SQ2
    a2 = (PAULI_Z - PAULI_X) / SQ2
    bobs, overlaps = fit_bob_observables(bell_chain_state(2), [a1, a2])
    assert max(_fit_residuals(overlaps)) < 1e-8
    zz, xx = kron_all(PAULI_Z, PAULI_Z), kron_all(PAULI_X, PAULI_X)
    for got, want in zip(bobs[0], (zz, xx)):
        assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-8


def test_fit_misses_n3_conditions():
    edges = [o.matrix for o in jordan_wigner_set(3)]
    _, overlaps = fit_bob_observables(bell_chain_state(3), edges)
    assert max(_fit_residuals(overlaps)) > 0.5


@pytest.mark.parametrize("n,overlap", [(3, 2 / 3), (4, 0.5), (5, 0.4)])
def test_fit_overlap_constant(n, overlap):
    # measured regression constant: best least-squares overlap is 2/n per term
    edges = [o.matrix for o in jordan_wigner_set(n)]
    _, overlaps = fit_bob_observables(bell_chain_state(n), edges)
    assert overlaps == pytest.approx([overlap] * 2 ** (n - 1), abs=1e-7)


def test_fit_rejects_non_bell_states():
    # the fit contracts the chain, so it describes Bell chains only
    a1 = (PAULI_Z + PAULI_X) / SQ2
    a2 = (PAULI_Z - PAULI_X) / SQ2
    layout = bell_chain_state(2).layout
    product = np.zeros(16, dtype=complex)
    product[0] = 1.0
    for state in (NetworkState(product, layout),
                  NetworkState(bell_chain_state(2).amplitudes, layout)):
        with pytest.raises(UnsupportedStateError):
            fit_bob_observables(state, [a1, a2])


def test_fit_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        fit_bob_observables(bell_chain_state(3), [PAULI_Z, PAULI_X])


def test_fit_rejects_wrong_edge_shape():
    # every edge is checked, not only the first: the second is 4 x 4 on a d = 2 chain
    with pytest.raises(ValueError, match=r"edge_observables\[1\] is \(4, 4\), need \(2, 2\)"):
        fit_bob_observables(bell_chain_state(2), [PAULI_Z, kron_all(PAULI_Z, PAULI_X)])


def test_optimal_model_undersized_layout():
    with pytest.raises(CapacityError):
        optimal_model(4, qubits_per_half=1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fit_start_equals_one_start_batch(n, monkeypatch):
    # every start of the lockstep fit ends where it ends when fitted alone:
    # the same total overlaps and observables, bit for bit
    from chainlock.qcore import default_layout, term_expectations
    from chainlock.seesaw import Workspace, ascend
    d, table = default_layout(n).link_dim, build_encoding(n)
    edges = [o.matrix for o in jordan_wigner_set(n)]
    edges = [np.kron(e, np.eye(d // e.shape[0])) for e in edges]
    runs = []

    def spy(ws, carry, *args):  # keeps the fit's sweep, sweep cap and tolerance
        runs.append(args)
        return ascend(ws, carry, *args)

    monkeypatch.setattr(constructions, "ascend", spy)
    fit_bob_observables(bell_chain_state(n), edges)
    (sweep, max_sweeps, tol), = runs
    ys = signed_sums(table.signs, edges)
    lefts = ys / (_bell_omegas(ys, d) ** 2)[:, None, None]  # the fit's pre-scaled terms
    rng = np.random.default_rng(n)
    starts = [[[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)]
              for _ in range(4)]
    stacked = [[np.stack([s[t][y] for s in starts]) for y in range(2)] for t in range(n - 1)]

    def fit(stacks):
        total = term_expectations(lefts, ys, stacks, table.central, d).real.sum(-1)
        return ascend(Workspace([], stacks, []), (total,), sweep, max_sweeps, tol)

    batch = fit(stacked)
    assert len(batch) == len(starts)
    for start, (totals, _, (_, bobs, _)) in zip(starts, batch):
        (lone_totals, _, (_, lone_bobs, _)), = fit([[op[None] for op in pair] for pair in start])
        assert totals == lone_totals
        for got, want in zip(sum(bobs, []), sum(lone_bobs, [])):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 4, 5) for m in (1, 2, 3)
                                 if 2 * m * n <= 20])
def test_closed_form_omegas_match_dense(n, m):
    # every edge marginal of a Bell chain is I/d, so ||Y_i|psi>|| = sqrt(tr(Y_i^2)/d);
    # the dense route is kept to 20 qubits (16 MB) to keep the test small
    d, state = 2 ** m, bell_chain_state(n, m)
    rng = np.random.default_rng(10 * n + m)
    edge_sets = [[random_dichotomic(d, rng) for _ in range(n)] for _ in range(3)]
    if jordan_wigner_set(n)[0].dim <= d:
        edge_sets.append([np.kron(o.matrix, np.eye(d // o.dim)) for o in jordan_wigner_set(n)])
    for edges in edge_sets:
        ys = signed_sums(build_encoding(n).signs, edges)
        closed = _bell_omegas(ys, d)
        dense, _ = _omegas(state, ys, ys)
        assert np.max(np.abs(closed - dense)) < 1e-14
        if d == 4:
            assert closed.tobytes() == np.array(dense).tobytes()


def test_fit_builds_no_state_vector():
    # n = 6 on the default layout is 36 qubits: the fit reads only the layout
    state = bell_chain_state(6)
    bobs, overlaps = fit_bob_observables(state, jordan_wigner_set(6))
    assert "amplitudes" not in vars(state)
    assert len(bobs) == 5 and all(b.shape == (64, 64) for pair in bobs for b in pair)
    assert overlaps.shape == (32,) and np.all(overlaps > 0)


def test_optimal_model_past_dense_limit_reports_obstruction():
    # n = 5 on three pairs per source is 30 qubits: the fit still runs
    with pytest.raises(ConstructionFailedError) as exc:
        optimal_model(5, qubits_per_half=3)
    err = exc.value
    assert isinstance(err.model, QuantumModel)
    assert err.model.layout.qubits_per_half == 3
    assert len(err.residuals) == 16 and all(0 < r < 2 for r in err.residuals)
    assert "amplitudes" not in vars(err.model.state)


def test_fit_capacity_refused_before_allocation(monkeypatch):
    # n = 3 on six pairs per source stacks 9 x 4 central operators of 4096 x 4096
    # complex entries (9.7 GB); the check refuses it before any start is drawn
    import tracemalloc

    def draw(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(constructions, "random_dichotomic", draw)
    edges = [np.eye(64)] * 3
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="limit is"):
            fit_bob_observables(bell_chain_state(3, 6), edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(CapacityError):
        optimal_model(3, qubits_per_half=6)


@pytest.mark.parametrize("n, m", [(18, 1), (2, 5)])
def test_fit_capacity_counts_environment_stacks(n, m, monkeypatch):
    # the nine starts' central operators are 78 kB at n = 18, m = 1, but their
    # sweeps' environment stacks (19 x 2^17 terms each) take 1.4 GB; n = 2, m = 5
    # needs 302 MB; both are refused before any start is drawn
    import tracemalloc

    def draw(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(constructions, "random_dichotomic", draw)
    pad = np.eye(2 ** (m - 1))
    edges = [np.kron(e, pad) for e in [PAULI_Z] + [PAULI_X] * (n - 1)]  # no term vanishes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="limit is"):
            fit_bob_observables(bell_chain_state(n, m), edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fit_degenerate_edges_name_the_term():
    # Y_2 = Z - Z vanishes, so the second term has no normalisation
    with pytest.raises(DegenerateCertificateError, match="term 2"):
        fit_bob_observables(bell_chain_state(2), [PAULI_Z, PAULI_Z])


def _failed_model(n, qubits_per_half=None):
    with pytest.raises(ConstructionFailedError) as exc:
        optimal_model(n, qubits_per_half)
    return exc.value


def _matrices(model):
    return [o.matrix for o in (*model.alice, *sum(model.bobs, ()), *model.charlie)]


def _counted_fits(monkeypatch):
    calls = []
    fit = constructions.fit_bob_observables

    def spy(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(constructions, "fit_bob_observables", spy)
    return calls


@pytest.mark.parametrize("n", [4, 5])
def test_optimal_model_fits_once_per_layout(n, monkeypatch):
    # the second call reuses the fit: no second fit, the same bits, fresh objects
    calls = _counted_fits(monkeypatch)
    constructions._fitted_construction.cache_clear()
    first, second = _failed_model(n), _failed_model(n)
    assert len(calls) == 1
    assert first is not second and first.model is not second.model
    assert first.model.state is not second.model.state
    assert "amplitudes" not in vars(second.model.state)
    for a, b in zip((*first.model.alice, *sum(first.model.bobs, ())),
                    (*second.model.alice, *sum(second.model.bobs, ()))):
        assert a is not b
    for a, b in zip(_matrices(first.model), _matrices(second.model)):
        assert a.tobytes() == b.tobytes()
    assert (first.beta, first.terms, first.residuals, str(first)) == (
        second.beta, second.terms, second.residuals, str(second))
    # the cached arrays are the uncached fit's own output, bit for bit
    state, edges = calls[0]
    bobs, overlaps = fit_bob_observables(state, edges)
    cached_edges, cached_bobs, cached_overlaps = constructions._fitted_construction(n, 2)
    assert overlaps.tobytes() == cached_overlaps.tobytes()
    for a, b in zip(sum(bobs, []), sum(cached_bobs, ())):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(edges, cached_edges):
        assert a.tobytes() == b.tobytes()


def test_cached_construction_is_read_only():
    edges, bobs, overlaps = constructions._fitted_construction(4, 2)
    assert isinstance(edges, tuple) and isinstance(bobs, tuple)
    assert all(isinstance(pair, tuple) for pair in bobs)
    for a in (*edges, *sum(bobs, ()), overlaps):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0
    for a in _matrices(_failed_model(4).model):
        assert not a.flags.writeable


def test_equal_layouts_share_one_cache_entry(monkeypatch):
    calls = _counted_fits(monkeypatch)
    cache = constructions._fitted_construction
    cache.cache_clear()
    for n, m in [(4, None), (4, 2), (4, np.int64(2)), (np.int64(4), None)]:
        _failed_model(n, m)
    assert len(calls) == 1
    info = cache.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
    _failed_model(3, 2)  # another layout is another fit
    assert len(calls) == 2 and cache.cache_info().currsize == 2


def test_capacity_refusal_is_never_cached(monkeypatch):
    # too small a link for the anticommuting set, and the fit's byte check:
    # each call is refused again, and nothing enters the cache
    calls = _counted_fits(monkeypatch)
    cache = constructions._fitted_construction
    cache.cache_clear()
    for _ in range(2):
        with pytest.raises(CapacityError, match="layout provides 2"):
            optimal_model(4, qubits_per_half=1)
        with pytest.raises(CapacityError, match="limit is"):
            optimal_model(3, qubits_per_half=6)
    assert len(calls) == 2  # only the byte check reaches the fit
    info = cache.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 4, 0)
