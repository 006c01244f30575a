import copy
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlock import qcore
from chainlock.errors import (CapacityError, NumericalConsistencyError, ShapeError,
                              UnsupportedStateError)
from chainlock.qcore import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, ChainLayout, NetworkState,
                             Observable, QuantumModel, anticommutator_report, apply_to_slot,
                             bell_chain_state, beta_quantum, correlator_contracted,
                             correlator_dense, default_layout, dichotomic_projection,
                             edge_blocks, edge_sums, jordan_wigner_set, kron_all, make_model,
                             model_from_json_dict, model_to_json_dict, random_dichotomic,
                             reduced_density, signed_sums, term_values, term_vectors)
from chainlock.scenario import TermTable, build_encoding
from chainlock.soscert import certify, condition_residuals, omega_values
from reference_folds import (bob_slot, chain_value, close_one, dense_term_vectors, edge_slot,
                             einsum_pull, einsum_push, einsum_slot, pull_one, push_one)

SQ2 = np.sqrt(2.0)


def zz_xx_model(n=2):
    """The standard two-source model: rotated edge pair, Z(x)Z / X(x)X center."""
    a1 = (PAULI_Z + PAULI_X) / SQ2
    a2 = (PAULI_Z - PAULI_X) / SQ2
    bob = [kron_all(PAULI_Z, PAULI_Z), kron_all(PAULI_X, PAULI_X)]
    return make_model(2, [a1, a2], [bob], [a1, a2])


def random_model_mats(n, m, rng):
    d = 2 ** m
    alice = [random_dichotomic(d, rng) for _ in range(n)]
    charlie = [random_dichotomic(d, rng) for _ in range(n)]
    bobs = [[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)]
    return make_model(n, alice, bobs, charlie, qubits_per_half=m)


@pytest.mark.parametrize("make", [
    lambda: Observable(PAULI_X),
    lambda: NetworkState(bell_chain_state(2, 1).amplitudes, default_layout(2, 1)),
    zz_xx_model,
], ids=["observable", "network_state", "model"])
def test_array_holders_hash_and_compare_by_identity(make):
    value = make()
    hash(value)
    assert value == value
    assert (value == copy.copy(value)) is False


def test_observable_validation():
    Observable(PAULI_X)
    with pytest.raises(ValueError):
        Observable(np.array([[0, 1], [0, 0]], dtype=complex))  # not hermitian
    with pytest.raises(ValueError):
        Observable(0.5 * PAULI_Z)  # eigenvalues not +-1
    with pytest.raises(ShapeError):
        Observable(np.ones((2, 3)))


@pytest.mark.parametrize("entry, message", [
    (1e200, "not dichotomic"), (np.nan, "non-finite"), (np.inf, "non-finite"),
])
def test_observable_refuses_non_finite(entry, message):
    # 1e200 squares to inf, so the spectral norm of m @ m - I is nan, which
    # no > comparison refuses; nan and inf entries must not reach numpy's SVD
    matrix = np.array([[entry, 0], [0, 1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            Observable(matrix)


def test_network_state_refuses_nan_amplitude():
    # abs(nan - 1) > 1e-12 is False: the test must be written so that nan fails
    amp = bell_chain_state(2, 1).amplitudes.copy()
    amp[0] = np.nan
    with pytest.raises(ValueError, match="not normalized"):
        NetworkState(amp, default_layout(2, 1))


def test_layout_slots():
    lay = ChainLayout(n=3, qubits_per_half=1)
    assert lay.total_qubits == 6
    assert lay.alice_slot() == (0, 1)
    assert lay.bob_slot(1) == (1, 2)
    assert lay.bob_slot(2) == (3, 2)
    assert lay.charlie_slot() == (5, 1)
    with pytest.raises(IndexError):
        lay.bob_slot(3)


@pytest.mark.parametrize("field, value", [
    ("n", True), ("n", 3.0), ("n", "3"), ("qubits_per_half", True),
    ("qubits_per_half", 2.0), ("qubits_per_half", np.True_),
    ("n", 2.5), ("n", 1), ("qubits_per_half", 0),
])
def test_layout_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        ChainLayout(**{"n": 3, "qubits_per_half": 1, field: value})


def test_layout_normalises_numpy_integers():
    lay = ChainLayout(n=np.int64(3), qubits_per_half=np.int32(2))
    assert (lay.n, lay.qubits_per_half) == (3, 2)
    assert type(lay.n) is int and type(lay.qubits_per_half) is int


def test_default_layout_half_counts():
    assert default_layout(2).qubits_per_half == 1
    assert default_layout(3).qubits_per_half == 1
    assert default_layout(4).qubits_per_half == 2
    assert default_layout(5).qubits_per_half == 2
    assert default_layout(4, qubits_per_half=1).qubits_per_half == 1
    with pytest.raises(ValueError):
        default_layout(4, qubits_per_half=0)  # an explicit 0 is not "use the default"


def test_bell_chain_n2_amplitudes():
    st = bell_chain_state(2)
    expected = np.zeros(16)
    for idx in (0b0000, 0b0011, 0b1100, 0b1111):
        expected[idx] = 0.5
    assert np.allclose(st.amplitudes, expected)


def test_bell_chain_n3_norm():
    st = bell_chain_state(3)
    assert st.layout.total_qubits == 6
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-13)


def test_bell_chain_n4_link_schmidt_rank():
    st = bell_chain_state(4)
    assert st.layout.total_qubits == 16
    rho = reduced_density(st, *st.layout.alice_slot())
    # Alice's half of source 1 is maximally mixed: Schmidt rank 4 per link pair
    assert np.allclose(rho, np.eye(4) / 4)


def test_bell_chain_capacity():
    with pytest.raises(CapacityError):
        bell_chain_state(7).amplitudes  # 2*3*7 = 42 qubits


def test_jordan_wigner_small_sets():
    assert [o.matrix.tolist() for o in jordan_wigner_set(1)] == [PAULI_X.tolist()]
    assert [o.matrix.tolist() for o in jordan_wigner_set(2)] == \
        [PAULI_X.tolist(), PAULI_Z.tolist()]
    mats = [o.matrix for o in jordan_wigner_set(3)]
    assert np.allclose(mats[0], PAULI_X)
    assert np.allclose(mats[1], PAULI_Y)
    assert np.allclose(mats[2], PAULI_Z)
    assert len(jordan_wigner_set(np.int64(4))) == 4


@pytest.mark.parametrize("n_obs", [2.0, True, 0, "2"])
def test_jordan_wigner_rejects_bad_counts(n_obs):
    # 2.0 gave the CHSH pair and True gave [X]
    with pytest.raises(ValueError, match="n_obs"):
        jordan_wigner_set(n_obs)


@pytest.mark.parametrize("n_obs", [2, 3, 4, 5, 6, 7])
def test_jordan_wigner_anticommutes(n_obs):
    obs = jordan_wigner_set(n_obs)
    assert len(obs) == n_obs
    expected_dim = 2 ** max(1, -(-(n_obs - 1) // 2))
    assert obs[0].dim == expected_dim
    rep = anticommutator_report(obs)
    off = rep - np.diag(np.diag(rep))
    assert np.max(off) < 1e-12
    assert np.allclose(np.diag(rep), 2.0)


def test_anticommutator_report_examples():
    rep = anticommutator_report([Observable(PAULI_X), Observable(PAULI_X)])
    assert rep[0, 1] == pytest.approx(2.0)
    with pytest.raises(ShapeError):
        anticommutator_report([Observable(PAULI_X), Observable(kron_all(PAULI_X, PAULI_X))])


def test_correlator_dense_examples():
    model = make_model(2, [PAULI_Z, PAULI_X], [[kron_all(PAULI_Z, PAULI_Z),
                                                kron_all(PAULI_X, PAULI_X)]],
                       [PAULI_Z, PAULI_X])
    assert correlator_dense(model, 1, (1,), 1) == pytest.approx(1.0, abs=1e-12)
    # mixed bases decorrelate: Z against X (x) X
    assert correlator_dense(model, 1, (2,), 1) == pytest.approx(0.0, abs=1e-12)
    ident = make_model(2, [PAULI_I * 1.0] * 2, [[np.eye(4)] * 2], [PAULI_I * 1.0] * 2)
    assert correlator_dense(ident, 1, (1,), 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("correlator", [correlator_dense, correlator_contracted],
                         ids=["dense", "contracted"])
def test_correlator_input_validation(correlator):
    model = zz_xx_model()
    with pytest.raises(IndexError):
        correlator(model, 3, (1,), 1)
    with pytest.raises(IndexError):
        correlator(model, 1, (1,), 0)
    with pytest.raises(ShapeError):
        correlator(model, 1, (1, 1), 1)
    with pytest.raises(ShapeError):
        correlator(model, 1, (3,), 1)
    # one decoder for both evaluators: bools and floats are refused, numpy integers kept
    for bad in (True, 1.0, np.True_):
        with pytest.raises(IndexError):
            correlator(model, bad, (1,), 1)
        with pytest.raises(IndexError):
            correlator(model, 1, (1,), bad)
        with pytest.raises(ShapeError):
            correlator(model, 1, (bad,), 1)
    one = np.int64(1)
    assert correlator(model, one, (one,), one) == correlator(model, 1, (1,), 1)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_contracted_matches_dense_random(n, m):
    rng = np.random.default_rng(500 + 10 * n + m)
    for rep in range(4):
        model = random_model_mats(n, m, rng)
        combo = tuple(rng.integers(1, 3) for _ in range(n - 1))
        x = int(rng.integers(1, n + 1))
        z = int(rng.integers(1, n + 1))
        a = correlator_dense(model, x, combo, z)
        b = correlator_contracted(model, x, combo, z)
        assert a == pytest.approx(b, abs=1e-11)
        assert -1 - 1e-10 <= a <= 1 + 1e-10


def test_beta_quantum_optimal_n2():
    beta, terms = beta_quantum(zz_xx_model(), evaluator="dense")
    assert beta == pytest.approx(2 * SQ2, abs=1e-12)
    assert terms == pytest.approx([2.0, 2.0], abs=1e-12)
    beta_c, terms_c = beta_quantum(zz_xx_model(), evaluator="contracted")
    assert beta_c == pytest.approx(beta, abs=1e-12)
    assert np.allclose(terms, terms_c)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 2)])
def test_beta_respects_quantum_ceiling(n, m):
    rng = np.random.default_rng(900 + n)
    for rep in range(3):
        model = random_model_mats(n, m, rng)
        beta, _ = beta_quantum(model)
        assert beta <= 2 ** (n - 1) * np.sqrt(n) + 1e-9


def test_beta_evaluators_agree_on_bigger_chain():
    rng = np.random.default_rng(77)
    model = random_model_mats(4, 2, rng)  # 16 qubits: auto picks contracted
    b_auto, _ = beta_quantum(model, evaluator="auto")
    b_dense, _ = beta_quantum(model, evaluator="dense")
    assert b_auto == pytest.approx(b_dense, abs=1e-9)


def test_contracted_requires_bell_links():
    model = zz_xx_model()
    amp = np.zeros(16, dtype=complex)
    amp[0] = 1.0
    product_state = NetworkState(amplitudes=amp, layout=model.layout)
    broken = type(model)(state=product_state, alice=model.alice,
                         bobs=model.bobs, charlie=model.charlie)
    with pytest.raises(UnsupportedStateError):
        correlator_contracted(broken, 1, (1,), 1)
    with pytest.raises(UnsupportedStateError):
        beta_quantum(broken, evaluator="contracted")
    # dense path still works on arbitrary states
    correlator_dense(broken, 1, (1,), 1)
    # only the state's type says it is a Bell chain: explicit Bell amplitudes
    # are a general state, and no flag can mark a product state as one
    explicit = type(model)(state=NetworkState(model.state.amplitudes, model.layout),
                           alice=model.alice, bobs=model.bobs, charlie=model.charlie)
    with pytest.raises(UnsupportedStateError):
        beta_quantum(explicit, evaluator="contracted")
    assert beta_quantum(explicit) == beta_quantum(model, evaluator="dense")
    with pytest.raises(TypeError):
        NetworkState(amplitudes=amp, layout=model.layout, bell_links=True)


def test_layout_is_read_from_the_state():
    model = zz_xx_model()
    assert model.layout is model.state.layout
    with pytest.raises(TypeError):
        type(model)(layout=model.layout, state=model.state, alice=model.alice,
                    bobs=model.bobs, charlie=model.charlie)
    with pytest.raises(ShapeError):  # n=2 observables on an n=3 chain
        type(model)(state=bell_chain_state(3), alice=model.alice, bobs=model.bobs,
                    charlie=model.charlie)


def test_bell_chain_amplitudes_built_once_on_read():
    st = bell_chain_state(3)
    assert "amplitudes" not in vars(st)
    amp = st.amplitudes
    assert st.amplitudes is amp
    assert not amp.flags.writeable


def test_structural_chain_beyond_dense_limit():
    # n=6 on the default layout is 36 qubits: everything that contracts the
    # chain works, and only the routes that read amplitudes hit the limit
    from chainlock.qcore import term_values
    from chainlock.seesaw import random_model
    from chainlock.soscert import certify
    model = random_model(6, seed=1)
    assert model.layout.total_qubits == 36
    beta, terms = beta_quantum(model)
    assert len(terms) == 32 and 0 < beta <= 32 * np.sqrt(6)
    assert beta_quantum(model, evaluator="contracted") == (beta, terms)
    assert "amplitudes" not in vars(model.state)
    with pytest.raises(CapacityError, match="36 qubits"):
        term_values(model, evaluator="dense")
    with pytest.raises(CapacityError, match="36 qubits"):
        certify(model)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_dense_term_values_match_correlator_sums(n, m):
    # the per-term kernel against the n^2 correlators it replaces, and
    # against the contracted evaluator
    from chainlock.qcore import term_values
    from chainlock.scenario import build_bob_input_map, build_encoding
    model = random_model_mats(n, m, np.random.default_rng(700 + 10 * n + m))
    inputs = build_bob_input_map(n)
    want = [sum(s[x - 1] * s[z - 1] * correlator_dense(model, x, inputs[i], z)
                for x in range(1, n + 1) for z in range(1, n + 1))
            for i, s in enumerate(build_encoding(n).signs)]
    dense = term_values(model, evaluator="dense")
    assert np.max(np.abs(dense - want)) < 1e-12
    assert np.max(np.abs(dense - term_values(model, evaluator="contracted"))) < 1e-9
    assert "amplitudes" in vars(model.state)


def einsum_apply_to_slot(amplitudes, op, start, count, total):
    """The dense kernel written as one einsum: the reference for apply_to_slot."""
    dim = 2 ** count
    st = amplitudes.reshape(2 ** start, dim, 2 ** (total - start - count))
    return np.einsum("ts,psq->ptq", op, st).reshape(-1)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_to_slot_matches_einsum_reference(n, m):
    lay = ChainLayout(n=n, qubits_per_half=m)
    rng = np.random.default_rng(100 * n + m)
    total = lay.total_qubits
    psi = rng.normal(size=2 ** total) + 1j * rng.normal(size=2 ** total)
    psi /= np.linalg.norm(psi)
    state = NetworkState(amplitudes=psi, layout=lay)
    amp = state.amplitudes
    before = amp.copy()
    slots = [lay.alice_slot(), *(lay.bob_slot(t) for t in range(1, n)), lay.charlie_slot()]
    assert slots[0][0] == 0 and sum(slots[-1]) == total  # pre == 1 and post == 1 both covered
    for start, count in slots:
        dim = 2 ** count
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        got = apply_to_slot(amp, op, start, count, total)
        want = einsum_apply_to_slot(amp, op, start, count, total)
        assert got.shape == amp.shape
        assert np.max(np.abs(got - want)) < 1e-14
        assert not np.shares_memory(got, amp)
        buf = np.full_like(amp, np.nan)
        assert apply_to_slot(amp, op, start, count, total, out=buf) is buf
        assert buf.tobytes() == got.tobytes()  # the out= path runs the same product
        got[0] += 1.0  # a fresh, writable array
        with pytest.raises(ShapeError):
            apply_to_slot(amp, np.eye(dim + 1), start, count, total)
        work = amp.copy()
        bad_outs = [work, work[::-1], np.empty(amp.size // 2, complex),
                    np.empty(amp.shape, np.complex64), np.empty(2 * amp.size, complex)[::2]]
        for bad in bad_outs:  # overlapping, wrong shape, dtype or layout: no hidden copy
            with pytest.raises(ValueError):
                apply_to_slot(work, op, start, count, total, out=bad)
    assert not amp.flags.writeable
    assert np.array_equal(amp, before)


def edge_vectors(model, ya, yc):
    """(Y^A_i (x) Y^C_i)|psi> for every term, its ``edge_blocks`` written into one vector."""
    for blocks in edge_blocks(model, ya, yc):
        phi_t = np.empty_like(model.state.amplitudes)
        rows = phi_t.reshape(model.layout.link_dim, -1)
        for cols, block in blocks:
            rows[:, cols] = block
        yield phi_t


def assert_walk_equals_reference(model, ya, yc, central):
    """Copies of the walk's vectors and the edge vectors equal the from-scratch ones bit for bit."""
    got = [(phi_b.copy(), phi_t) for phi_b, phi_t
           in zip(term_vectors(model), edge_vectors(model, ya, yc))]
    want = list(dense_term_vectors(model, ya, yc, central))
    assert len(got) == len(want) == len(central)
    for (gb, gt), (wb, wt) in zip(got, want):
        assert gb.tobytes() == wb.tobytes()
        assert gt.tobytes() == wt.tobytes()


@pytest.mark.parametrize("n,m", [(n, m) for m in (1, 2) for n in range(2, 8)
                                 if 2 * n * m <= 16])
def test_term_walk_equals_fresh_vectors(n, m):
    # n <= 5 keeps every leading level, n = 6, 7 keep two and fold the rest
    # through both work buffers (either one ends the term); level 1 is rebuilt
    # in the work buffer from n = 4
    model = random_model_mats(n, m, np.random.default_rng(40 + 10 * n + m))
    ya, yc = edge_sums(n, model.alice, model.charlie)
    assert_walk_equals_reference(model, ya, yc, build_encoding(n).central)


def test_term_walk_on_explicit_amplitudes():
    rng = np.random.default_rng(8)
    bell = random_model_mats(3, 1, rng)
    psi = rng.normal(size=2 ** 6) + 1j * rng.normal(size=2 ** 6)
    model = QuantumModel(state=NetworkState(psi / np.linalg.norm(psi), bell.layout),
                         alice=bell.alice, bobs=bell.bobs, charlie=bell.charlie)
    ya, yc = edge_sums(3, model.alice, model.charlie)
    assert_walk_equals_reference(model, ya, yc, build_encoding(3).central)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_term_walk_in_any_row_order(monkeypatch, n):
    table = build_encoding(n)
    perm = np.random.default_rng(n).permutation(table.terms)
    shuffled = TermTable(n=n, signs=table.signs[perm], central=table.central[perm])
    monkeypatch.setattr(qcore, "build_encoding", lambda k: shuffled)
    model = random_model_mats(n, 1, np.random.default_rng(50 + n))
    mats = [[o.matrix for o in ops] for ops in (model.alice, model.charlie)]
    ya, yc = (signed_sums(shuffled.signs, m) for m in mats)
    assert_walk_equals_reference(model, ya, yc, shuffled.central)


@pytest.mark.parametrize("n,applied", [(2, 2), (3, 6), (4, 16), (5, 32), (6, 104)])
def test_term_walk_shares_leading_levels(monkeypatch, n, applied):
    # central operators only: the edge stage is ``edge_blocks``, no slot
    # application.  A kept central level is recomputed only when its input or
    # an earlier one changes (up to n = 5 every level before the last, above it
    # the two leading ones), level 1 also when level 2 is (from n = 4).  From
    # scratch it is (n - 1) 2^(n-1).
    calls = []
    monkeypatch.setattr(qcore, "apply_to_slot",
                        lambda *a, **k: calls.append(a) or apply_to_slot(*a, **k))
    term_values(random_model_mats(n, 1, np.random.default_rng(n)), evaluator="dense")
    assert len(calls) == applied


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (5, 2), (6, 1), (7, 1), (8, 1)])
def test_dense_term_routes_hold_four_vectors(n, m):
    # the walk holds at most 3 state vectors besides the amplitudes, which are
    # built before tracing, and the residuals form the edge vector by blocks in
    # B_i|psi>; dense term_values writes it whole, one vector more.  The extra
    # half vector covers the block buffers and the small arrays.  Keeping every
    # level alive would hold n.
    model = random_model_mats(n, m, np.random.default_rng(n))
    vector = model.state.amplitudes.nbytes
    for route, bound in ((condition_residuals, 3.5),
                         (lambda mo: term_values(mo, evaluator="dense"), 4.5)):
        tracemalloc.start()
        try:
            route(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * vector


def explicit_amplitudes(model, rng):
    """The model's observables on a random state given by its amplitudes."""
    size = 2 ** model.layout.total_qubits
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    return QuantumModel(state=NetworkState(psi / np.linalg.norm(psi), model.layout),
                        alice=model.alice, bobs=model.bobs, charlie=model.charlie)


@pytest.mark.parametrize("n,m,explicit", [(n, m, False) for m in (1, 2) for n in range(2, 8)
                                          if 2 * n * m <= 16] + [(4, 1, True), (3, 2, True)])
def test_edge_blocks_keep_the_dense_bits(monkeypatch, n, m, explicit):
    # blocks of 64 columns, so every state past 6 qubits takes several; the
    # routes equal the from-scratch vectors with np.divide, np.vdot and one norm
    monkeypatch.setattr(qcore, "_EDGE_BLOCK_BYTES", 1024)
    rng = np.random.default_rng(70 + 10 * n + m)
    model = random_model_mats(n, m, rng)
    if explicit:
        model = explicit_amplitudes(model, rng)
    ya, yc = edge_sums(n, model.alice, model.charlie)
    rest = model.state.amplitudes.size // model.layout.link_dim
    assert len(list(next(edge_blocks(model, ya, yc)))) == max(1, rest // 64)
    omega_a, omega_c = omega_values(model)
    want = list(dense_term_vectors(model, ya, yc, build_encoding(n).central))
    js = np.array([np.vdot(wt, wb).real for wb, wt in want])
    residuals = [float(np.linalg.norm(wb - np.divide(wt, a * c)))
                 for (wb, wt), a, c in zip(want, omega_a, omega_c)]
    assert term_values(model, evaluator="dense").tobytes() == js.tobytes()
    assert condition_residuals(model) == residuals
    report = certify(model)
    assert report.residuals == tuple(residuals)
    if explicit or 2 * n * m <= qcore.AUTO_DENSE_QUBIT_LIMIT:  # beta from the dense route
        assert report.beta == float(np.sum(np.sqrt(np.abs(js))))


def test_beta_invariant_under_local_unitary():
    rng = np.random.default_rng(4)
    model = random_model_mats(3, 1, rng)
    base, _ = beta_quantum(model, evaluator="dense")
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = np.linalg.qr(g)[0]
    rotated_alice = [u @ a.matrix @ u.conj().T for a in model.alice]
    amp = apply_to_slot(model.state.amplitudes, u, *model.layout.alice_slot(),
                        model.layout.total_qubits)
    rotated_state = NetworkState(amplitudes=amp, layout=model.layout)
    rotated = make_model(3, rotated_alice, [[o.matrix for o in p] for p in model.bobs],
                         [c.matrix for c in model.charlie], qubits_per_half=1)
    rotated = type(model)(state=rotated_state,
                          alice=rotated.alice, bobs=rotated.bobs, charlie=rotated.charlie)
    got, _ = beta_quantum(rotated, evaluator="dense")
    assert got == pytest.approx(base, abs=1e-9)


def test_dichotomic_projection_signs_and_ties():
    w = np.diag([3.0, -0.5, 0.0])
    proj = dichotomic_projection(w)
    assert np.allclose(proj, np.diag([1.0, -1.0, 1.0]))  # zero rounds to +1


def test_random_dichotomic_deterministic():
    a = random_dichotomic(4, np.random.default_rng(123))
    b = random_dichotomic(4, np.random.default_rng(123))
    assert np.array_equal(a, b)
    Observable(a)


def test_imaginary_part_guard():
    # force a non-real expectation by sabotaging hermiticity after validation
    model = zz_xx_model()
    bad = (1.0 + 0.1j) * np.array(model.bobs[0][0].matrix, copy=True)
    object.__setattr__(model.bobs[0][0], "matrix", bad)
    with pytest.raises(NumericalConsistencyError):
        correlator_dense(model, 1, (1,), 1)
    with pytest.raises(NumericalConsistencyError):
        correlator_contracted(model, 1, (1,), 1)


def test_model_serialization_roundtrip():
    rng = np.random.default_rng(8)
    model = random_model_mats(3, 1, rng)
    data = model_to_json_dict(model)
    back = model_from_json_dict(data)
    assert back.n == 3
    for a, b in zip(model.alice, back.alice):
        assert np.allclose(a.matrix, b.matrix)
    b0, _ = beta_quantum(model)
    b1, _ = beta_quantum(back)
    assert b0 == pytest.approx(b1, abs=1e-12)


def test_bob_slot_matrix_matches_dense():
    # tr(O G) with the slot left open must reproduce the dense correlator
    # with O inserted, for every central position (dual route for the
    # optimizer's effective operators); G is the one-term slot gemm, bit for bit
    from chainlock.qcore import bob_slot_matrix
    rng = np.random.default_rng(41)
    for n in (2, 3):
        model = random_model_mats(n, 1, rng)
        combo = tuple(int(v) for v in rng.integers(1, 3, size=n - 1))
        x = int(rng.integers(1, n + 1))
        z = int(rng.integers(1, n + 1))
        for t in range(1, n):
            before = [model.bobs[u - 1][combo[u - 1] - 1].matrix for u in range(1, t)]
            after = [model.bobs[u - 1][combo[u - 1] - 1].matrix for u in range(t + 1, n)]
            g = bob_slot_matrix(model.alice[x - 1].matrix, before, after,
                                model.charlie[z - 1].matrix, 2, n)
            probe = model.bobs[t - 1][combo[t - 1] - 1].matrix
            want = correlator_dense(model, x, combo, z)
            assert np.trace(probe @ g).real == pytest.approx(want, abs=1e-11)
            chain = (model.alice[x - 1].matrix, [*before, probe, *after],
                     model.charlie[z - 1].matrix)
            assert np.array_equal(g, bob_slot([chain], [1.0], t - 1, 2, n))


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.data())
@settings(max_examples=25, deadline=None)
def test_central_slot_matrix_is_j_linear(n, seed, data):
    # W for slot (t, y) is built with that slot open, so any dichotomic B put
    # there gives tr(B W) = sum_i w_i J_i over the terms that read the slot,
    # with J_i from the dense evaluator
    from chainlock.qcore import CentralSweep, signed_sums, term_values
    from chainlock.scenario import build_encoding
    t = data.draw(st.integers(min_value=0, max_value=n - 2))
    y = data.draw(st.integers(min_value=0, max_value=1))
    rng = np.random.default_rng(seed)
    model = random_model_mats(n, 1, rng)
    table = build_encoding(n)
    alice = [o.matrix for o in model.alice]
    charlie = [o.matrix for o in model.charlie]
    bobs = [[o.matrix for o in pair] for pair in model.bobs]
    weights = rng.normal(size=table.terms)
    sweep = CentralSweep(signed_sums(table.signs, alice), signed_sums(table.signs, charlie),
                         bobs, table.central, 2)
    for u in range(t):
        sweep.advance(u)
    w = sweep.slot_matrix(t, y, weights)
    bobs[t][y] = random_dichotomic(4, rng)
    js = term_values(make_model(n, alice, bobs, charlie, qubits_per_half=1), evaluator="dense")
    want = sum(weights[i] * js[i] for i, row in enumerate(table.central) if row[t] == y)
    assert abs(np.trace(bobs[t][y] @ w) - want) < 1e-9


def test_edge_slot_matrix_matches_dense():
    from chainlock.qcore import edge_slot_matrix
    rng = np.random.default_rng(42)
    model = random_model_mats(3, 1, rng)
    combo = (2, 1)
    bob_mats = [model.bobs[t][combo[t] - 1].matrix for t in range(2)]
    g_a = edge_slot_matrix("alice", bob_mats, model.charlie[0].matrix, 2, 3)
    g_c = edge_slot_matrix("charlie", bob_mats, model.alice[1].matrix, 2, 3)
    assert np.trace(model.alice[2].matrix @ g_a).real == pytest.approx(
        correlator_dense(model, 3, combo, 1), abs=1e-11)
    assert np.trace(model.charlie[2].matrix @ g_c).real == pytest.approx(
        correlator_dense(model, 2, combo, 3), abs=1e-11)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_cached_environments_equal_fresh_folds(n, m):
    # a cached environment is the same float sequence as a fresh fold, so every
    # slot matrix and chain value of a sweep equals the per-term folds exactly
    from chainlock.qcore import CentralSweep, signed_sums
    from chainlock.scenario import build_encoding
    rng = np.random.default_rng(100 * n + m)
    model = random_model_mats(n, m, rng)
    d, table = model.layout.link_dim, build_encoding(n)
    ya = signed_sums(table.signs, [o.matrix for o in model.alice])
    yc = signed_sums(table.signs, [o.matrix for o in model.charlie])
    bobs = [[o.matrix for o in pair] for pair in model.bobs]

    def ops(row):
        return [bobs[t][y] for t, y in enumerate(row)]

    sweep = CentralSweep(ya, yc, bobs, table.central, d)
    alice_envs = qcore.pull(yc, bobs, table.central, d)[0]  # what the seesaw's Alice pass reads
    for i, row in enumerate(table.central):
        assert np.array_equal(alice_envs[i].T / d ** n,
                              edge_slot("alice", ops(row), yc[i], d, n))
    for t in range(n - 1):
        for y in range(2):
            readers = sweep.readers(t, y)
            chains = [(ya[i], ops(table.central[i]), yc[i]) for i in readers]
            for i in readers:
                weights = np.eye(table.terms)[i]
                want = bob_slot(chains, weights[readers], t, d, n)
                assert np.array_equal(sweep.slot_matrix(t, y, weights), want)
            bobs[t][y] = random_dichotomic(d * d, rng)
            refolded, values = sweep.refold(t, y)
            assert np.array_equal(refolded, readers)
            for i, value in zip(refolded, values):  # closed at the slot
                row = ops(table.central[i])
                assert value == close_one(push_one(ya[i], row[:t + 1], d),
                                          pull_one(yc[i], row[t + 1:], d), d, n)
        sweep.advance(t)
    for i, row in enumerate(table.central):
        assert np.array_equal(sweep.left[i].T / d ** n,
                              edge_slot("charlie", ops(row), ya[i], d, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_central_sweep_holds_what_its_slots_read(n, monkeypatch):
    # the sweep pulls the n-2 right levels its slots close against, releases
    # each once it is passed, and a refold transfers the slot's one operator
    calls = dict.fromkeys(("_fold", "_transfer"), 0)

    def count(name):
        original = getattr(qcore, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(qcore, name, counted)

    rng = np.random.default_rng(n)
    model = random_model_mats(n, 1, rng)
    table = build_encoding(n)
    ya, yc = edge_sums(n, model.alice, model.charlie)
    bobs = [[o.matrix for o in pair] for pair in model.bobs]
    count("_fold")
    count("_transfer")
    sweep = qcore.CentralSweep(ya, yc, bobs, table.central, 2)
    assert calls["_fold"] == n - 2 and len(sweep.right) == n - 1
    for t in range(n - 1):
        for y in range(2):
            calls["_transfer"] = 0
            sweep.refold(t, y)
            assert calls["_transfer"] == 1
        sweep.advance(t)
        assert sweep.right[t] is None
    assert sweep.right == [None] * (n - 1)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_folds_equal_per_term_folds(n, d):
    # every stacked fold runs, term by term, the float sequence of the
    # one-term row product, and a slot matrix is the one gemm over its readers
    from chainlock import qcore
    from chainlock.scenario import build_encoding
    rng = np.random.default_rng(1000 * n + d)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    central = build_encoding(n).central
    terms = len(central)
    lefts, rights = cplx(terms, d, d), cplx(terms, d, d)
    bobs = [[cplx(d * d, d * d) for _ in range(2)] for _ in range(n - 1)]
    ops = [[bobs[t][y] for t, y in enumerate(row)] for row in central]

    pushed, pulled = qcore.push(lefts, bobs, central, d), qcore.pull(rights, bobs, central, d)
    for i in range(terms):
        assert np.array_equal(pushed[i], push_one(lefts[i], ops[i], d))
        for k in range(n):
            assert np.array_equal(pulled[k][i], pull_one(rights[i], ops[i][k:], d))
    for i, value in enumerate(qcore.close(pushed, rights, d, n)):
        assert value == close_one(pushed[i], rights[i], d, n)
    for i, value in enumerate(qcore.term_expectations(lefts, rights, bobs, central, d)):
        assert value == chain_value(lefts[i], ops[i], rights[i], d)

    weights = rng.normal(size=terms)
    sweep = qcore.CentralSweep(lefts, rights, bobs, central, d)
    for t in range(n - 1):
        for y in range(2):
            readers = sweep.readers(t, y)
            want = bob_slot([(lefts[i], ops[i], rights[i]) for i in readers], weights[readers],
                            t, d, n)
            assert np.array_equal(sweep.slot_matrix(t, y, weights), want)
        sweep.advance(t)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("n", range(2, 6))
def test_stacked_models_equal_lone_models(n, d):
    # a leading model axis runs each model on its own float sequence: folds,
    # slot matrices, refolds, signed sums and projections of a stack of 3
    # equal those of each model alone, also when the environments are shared
    # and only the operators are stacked
    from chainlock import qcore
    from chainlock.scenario import build_encoding
    rng = np.random.default_rng(100 * n + d)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    table = build_encoding(n)
    central, terms, models = table.central, table.terms, 3
    lefts, rights = cplx(models, terms, d, d), cplx(models, terms, d, d)
    bobs = [[cplx(models, d * d, d * d) for _ in range(2)] for _ in range(n - 1)]
    weights = rng.normal(size=(models, terms))

    def lone(k):
        return [[op[k] for op in pair] for pair in bobs]

    pushed, pulled = qcore.push(lefts, bobs, central, d), qcore.pull(rights, bobs, central, d)
    shared = qcore.push(lefts[0], bobs, central, d)
    for k in range(models):
        assert np.array_equal(pushed[k], qcore.push(lefts[k], lone(k), central, d))
        assert np.array_equal(shared[k], qcore.push(lefts[0], lone(k), central, d))
        for got, want in zip(pulled, qcore.pull(rights[k], lone(k), central, d)):
            assert np.array_equal(got[k], want)
        assert np.array_equal(qcore.close(pushed, rights, d, n)[k],
                              qcore.close(pushed[k], rights[k], d, n))
    signs = table.signs
    edge = cplx(n, models, d, d)
    hermitian = cplx(models, d * d, d * d)
    for k in range(models):
        assert np.array_equal(qcore.signed_sums(signs, list(edge))[k],
                              qcore.signed_sums(signs, list(edge[:, k])))
        assert np.array_equal(qcore.dichotomic_projection(hermitian)[k],
                              qcore.dichotomic_projection(hermitian[k]))

    stacked = qcore.CentralSweep(lefts, rights, bobs, central, d)
    lones = [qcore.CentralSweep(lefts[k], rights[k], lone(k), central, d)
             for k in range(models)]
    for t in range(n - 1):
        for y in range(2):
            w = stacked.slot_matrix(t, y, weights)
            new = cplx(models, d * d, d * d)
            bobs[t][y] = new
            readers, values = stacked.refold(t, y)
            for k, sweep in enumerate(lones):
                assert np.array_equal(w[k], sweep.slot_matrix(t, y, weights[k]))
                sweep.bobs[t][y] = new[k]
                lone_readers, lone_values = sweep.refold(t, y)
                assert np.array_equal(readers, lone_readers)
                assert np.array_equal(values[k], lone_values)
        stacked.advance(t)
        for sweep in lones:
            sweep.advance(t)
    for k, sweep in enumerate(lones):
        assert np.array_equal(stacked.left[k], sweep.left)


@pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 10) for m in (1, 2)] + [(8, 4)])
def test_folds_match_einsum_oracle(n, m):
    # the row products and the slot gemm contract the same legs as the
    # einsum folds: push, pull, J_i and slot matrices agree to 1e-12 of the
    # norm on random dichotomic models (m = 4 is n = 8 on the default layout)
    from chainlock.qcore import CentralSweep, pull, push, term_expectations
    rng = np.random.default_rng(10 * n + m)
    model = random_model_mats(n, m, rng)
    d, central = model.layout.link_dim, build_encoding(n).central
    ya, yc = edge_sums(n, model.alice, model.charlie)
    bobs = [[o.matrix for o in pair] for pair in model.bobs]
    ops = [[bobs[t][y] for t, y in enumerate(row)] for row in central]

    def within(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # lefts[t][i]: ya[i] pushed through term i's first t operators;
    # rights[t][i]: yc[i] pulled back through its operators after party t
    lefts, rights = [ya], [yc]
    for t in range(n - 1):
        lefts.append([einsum_push(env, row[t:t + 1], d) for env, row in zip(lefts[-1], ops)])
        rights.append([einsum_pull(env, row[n - 2 - t:n - 1 - t], d)
                       for env, row in zip(rights[-1], ops)])
    rights = rights[::-1]
    assert within(push(ya, bobs, central, d), np.array(lefts[-1]))
    for got, want in zip(pull(yc, bobs, central, d), rights):
        assert within(got, np.array(want))
    assert within(term_expectations(ya, yc, bobs, central, d),
                  np.array([close_one(env, c, d, n) for env, c in zip(lefts[-1], yc)]))
    weights = rng.normal(size=len(central))
    sweep = CentralSweep(ya, yc, bobs, central, d)
    for t in range(n - 1):
        for y in range(2):
            i = sweep.readers(t, y)
            want = einsum_slot([lefts[t][j] for j in i], [rights[t + 1][j] for j in i],
                               weights[i], d, n)
            assert within(sweep.slot_matrix(t, y, weights), want)
        sweep.advance(t)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_row_products_independent_of_batch(d):
    # a fold is one row product per term: each term's row must not depend on
    # how many terms share the matmul call (K), on which terms they are, on a
    # strided view of the environments, or on the operators being stacked.
    # A BLAS whose per-row results depend on the batch fails here first.
    from chainlock.qcore import pull, push
    rng = np.random.default_rng(d)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def pull_all(envs, bobs, central, d):
        return pull(envs, bobs, central, d)[0]

    models = 3
    ops = cplx(models, 2, d * d, d * d)
    for k in (4, 16, 64, 256):
        envs = cplx(2 * k, d, d)[::2]  # a strided view
        central = rng.integers(0, 2, size=(k, 1))
        subset = rng.permutation(k)[:k // 3]
        for fold in (push, pull_all):
            got = fold(envs, [[ops[:, 0], ops[:, 1]]], central, d)
            for s in range(models):
                bobs = [[ops[s, 0], ops[s, 1]]]
                assert np.array_equal(got[s], fold(envs, bobs, central, d))
                for i in range(k):
                    assert np.array_equal(got[s, i], fold(envs[i:i + 1], bobs, central[i:i + 1],
                                                          d)[0])
                assert np.array_equal(got[s, subset], fold(envs[subset], bobs, central[subset], d))


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", range(2, 8))
def test_signed_sums_equal_sequential_sums(n, d):
    # the stacked einsum adds the signed edge matrices in the order, and to
    # the bits, of the sequential per-term sum
    from chainlock.qcore import signed_sums
    from chainlock.scenario import build_encoding
    rng = np.random.default_rng(10 * n + d)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)]
    signs = build_encoding(n).signs
    want = np.array([sum(s[x] * mats[x] for x in range(n)) for s in signs])
    assert np.array_equal(signed_sums(signs, mats), want)


def test_embedded_classical_strategy_reproduces_behavior_beta():
    # a +-1 strategy lifted to +-identity observables must give the same beta
    # through the quantum evaluators as through the behavior table
    from chainlock.nlocal import (DeterministicStrategy, behavior_from_strategy,
                                  beta_of_behavior)
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        alice = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        charlie = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        bobs = tuple((int(a), int(b)) for a, b in rng.choice((-1, 1), size=(n - 1, 2)))
        strat = DeterministicStrategy(alice=alice, charlie=charlie, bobs=bobs)
        classical = beta_of_behavior(behavior_from_strategy(strat, n))
        m = max(1, n // 2)
        d = 2 ** m
        model = make_model(
            n, [a * np.eye(d) for a in alice],
            [[y1 * np.eye(d * d), y2 * np.eye(d * d)] for y1, y2 in bobs],
            [c * np.eye(d) for c in charlie], qubits_per_half=m)
        quantum, _ = beta_quantum(model)
        assert quantum == pytest.approx(classical, abs=1e-9)


def test_jordan_wigner_single():
    (obs,) = jordan_wigner_set(1)
    assert np.allclose(obs.matrix, PAULI_X)


def test_dense_correlator_20_qubits():
    model = zz_like_chain_model(5)
    val = correlator_dense(model, 1, (1, 1, 1, 1), 1)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert correlator_contracted(model, 1, (1, 1, 1, 1), 1) == pytest.approx(val, abs=1e-10)


def zz_like_chain_model(n):
    m = max(1, n // 2)
    d = 2 ** m
    z_all = kron_all(*([PAULI_Z] * m))
    zz_all = kron_all(*([PAULI_Z] * (2 * m)))
    return make_model(n, [z_all] * n, [[zz_all] * 2] * (n - 1), [z_all] * n,
                      qubits_per_half=m)


def test_beta_invariant_under_local_unitary_on_central_slot():
    rng = np.random.default_rng(44)
    model = random_model_mats(3, 1, rng)
    base, _ = beta_quantum(model, evaluator="dense")
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = np.linalg.qr(g)[0]
    rotated_bobs = [[u @ o.matrix @ u.conj().T for o in model.bobs[0]],
                    [o.matrix for o in model.bobs[1]]]
    amp = apply_to_slot(model.state.amplitudes, u, *model.layout.bob_slot(1),
                        model.layout.total_qubits)
    rotated = make_model(3, [a.matrix for a in model.alice], rotated_bobs,
                         [c.matrix for c in model.charlie], qubits_per_half=1)
    rotated = type(model)(state=NetworkState(amplitudes=amp, layout=model.layout),
                          alice=rotated.alice, bobs=rotated.bobs,
                          charlie=rotated.charlie)
    got, _ = beta_quantum(rotated, evaluator="dense")
    assert got == pytest.approx(base, abs=1e-9)
