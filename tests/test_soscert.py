import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainlock.constructions import optimal_model
from chainlock.errors import DegenerateCertificateError
from chainlock.qcore import (PAULI_I, PAULI_X, PAULI_Z, beta_quantum, jordan_wigner_set,
                             kron_all, make_model, random_dichotomic, term_values)
from chainlock.scenario import build_encoding
from chainlock.seesaw import random_model
from chainlock.soscert import certify, condition_residuals, omega_values, tsirelson_ceiling
from reference_folds import signed_sums


def test_ceiling_values():
    assert tsirelson_ceiling(2) == pytest.approx(2.8284271247, abs=1e-9)
    assert tsirelson_ceiling(3) == pytest.approx(6.9282032303, abs=1e-9)
    assert tsirelson_ceiling(5) == pytest.approx(16 * math.sqrt(5), abs=1e-12)
    with pytest.raises(ValueError):
        tsirelson_ceiling(1)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0, -1, True, "1e-7"])
def test_certify_rejects_bad_tol(tol):
    # an infinite tol certified every model, this uncertified one included
    model = random_model(2, seed=5)
    assert not certify(model).certified
    with pytest.raises(ValueError, match="tol"):
        certify(model, tol=tol)


def test_omega_anticommuting_edges_hit_sqrt_n():
    edges = [o.matrix for o in jordan_wigner_set(3)]
    model = make_model(3, edges, [[np.eye(4)] * 2] * 2, edges)
    om_a, om_c = omega_values(model)
    assert om_a == pytest.approx([math.sqrt(3)] * 4, abs=1e-12)
    assert om_c == pytest.approx([math.sqrt(3)] * 4, abs=1e-12)


def test_omega_degenerate_direction():
    model = make_model(2, [PAULI_Z, PAULI_Z], [[kron_all(PAULI_Z, PAULI_Z)] * 2],
                       [PAULI_Z, PAULI_Z])
    with pytest.warns(UserWarning):
        om_a, _ = omega_values(model)
    assert om_a == pytest.approx([2.0, 0.0], abs=1e-12)
    with pytest.warns(UserWarning), pytest.raises(DegenerateCertificateError):
        certify(model)


def test_certify_warns_once_per_vanishing_omega():
    # omega^A_2 and omega^C_2 vanish; certify measures each omega once
    model = make_model(2, [PAULI_Z, PAULI_Z], [[kron_all(PAULI_Z, PAULI_Z)] * 2],
                       [PAULI_Z, PAULI_Z])
    with pytest.warns(UserWarning, match="vanishes") as record:
        with pytest.raises(DegenerateCertificateError):
            certify(model)
    assert len(record) == 2


def test_certify_optimal_n2():
    rep = certify(optimal_model(2))
    assert rep.certified
    assert rep.beta == pytest.approx(tsirelson_ceiling(2), abs=1e-9)
    assert rep.gamma < 1e-9
    assert max(rep.residuals) < 1e-9
    assert rep.anticommutator_max < 1e-12
    assert rep.omega_a == pytest.approx([math.sqrt(2)] * 2, abs=1e-8)


def test_certify_random_model_not_certified():
    rep = certify(random_model(2, seed=3))
    assert not rep.certified
    assert rep.gamma > 1e-6


def test_certify_zdiagonal_model():
    # Z-diagonal (commuting) observables cap beta at the classical value, so
    # the gap to tau = 2 sqrt(2) stays macroscopic and certification fails.
    zz = kron_all(PAULI_Z, PAULI_Z)
    model = make_model(2, [PAULI_Z, PAULI_I * 1.0], [[zz, zz]], [PAULI_Z, PAULI_I * 1.0])
    beta, _ = beta_quantum(model)
    assert beta <= 2.0 + 1e-12
    rep = certify(model)
    assert not rep.certified
    assert rep.gamma >= 2 * math.sqrt(2) - 2 - 1e-9
    assert min(rep.residuals) > 0.9


def test_classical_point_self_certifies():
    # Aligned edges: omega = (3,1,1,1), tau = 6 = beta, all residuals vanish.
    # The certificate confirms the model attains its own SOS value, which for
    # this model is the classical bound, far below the global ceiling.
    zz = kron_all(PAULI_Z, PAULI_Z)
    model = make_model(3, [PAULI_Z] * 3, [[zz, zz]] * 2, [PAULI_Z] * 3)
    rep = certify(model)
    assert rep.certified
    assert rep.tau == pytest.approx(6.0, abs=1e-9)
    assert rep.beta == pytest.approx(6.0, abs=1e-9)
    assert rep.omega_a == pytest.approx([3.0, 1.0, 1.0, 1.0], abs=1e-9)
    assert max(rep.residuals) < 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning")  # degenerate random draws
@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 2)])
def test_sos_chain_inequalities_random(n, m):
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        d = 2 ** m
        model = make_model(
            n, [random_dichotomic(d, rng) for _ in range(n)],
            [[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)],
            [random_dichotomic(d, rng) for _ in range(n)], qubits_per_half=m)
        beta, js = beta_quantum(model)
        om_a, om_c = omega_values(model)
        tau = sum(math.sqrt(a * c) for a, c in zip(om_a, om_c))
        cs = math.sqrt(sum(om_a)) * math.sqrt(sum(om_c))
        ceiling = tsirelson_ceiling(n)
        assert beta <= tau + 1e-9
        assert tau <= cs + 1e-9
        assert cs <= ceiling + 1e-9
        # each sqrt|J_i| is bounded by sqrt(omega^A_i omega^C_i)
        for j, a, c in zip(js, om_a, om_c):
            assert math.sqrt(abs(j)) <= math.sqrt(a * c) + 1e-9
        # sum of squared omegas is an exact invariant of the encoding
        assert sum(a * a for a in om_a) == pytest.approx(2 ** (n - 1) * n, abs=1e-8)


def test_omega_bounded_by_sqrt_n_for_anticommuting_edges():
    rng = np.random.default_rng(11)
    edges = [o.matrix for o in jordan_wigner_set(4)]
    model = make_model(
        4, edges, [[random_dichotomic(16, rng) for _ in range(2)] for _ in range(3)],
        edges)
    om_a, _ = omega_values(model)
    assert om_a == pytest.approx([2.0] * 8, abs=1e-9)
    rep = certify(model)
    assert rep.anticommutator_max < 1e-12


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_dense_residuals_match_closed_form(n, m, seed):
    # on a Bell chain every edge marginal is I/d, so omega_i = sqrt(tr(Y_i^2)/d)
    # and r_i^2 = 2 - 2 J_i / (omega^A_i omega^C_i), with J_i by chain contraction
    model = random_model(n, seed, qubits_per_half=m)
    d = model.layout.link_dim
    signs = build_encoding(n).signs
    omegas = [[math.sqrt(np.trace(y @ y).real / d)
               for y in signed_sums(signs, [o.matrix for o in ops])]
              for ops in (model.alice, model.charlie)]
    assume(min(min(om) for om in omegas) > 1e-3)  # a vanishing omega has no residual
    js = term_values(model, evaluator="contracted")
    residuals = condition_residuals(model)
    for r, j, a, c in zip(residuals, js, *omegas):
        assert r * r == pytest.approx(2 - 2 * j / (a * c), abs=1e-9)
