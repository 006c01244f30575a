"""Acceptance suite: one pass/fail line per criterion.

Criteria 3, 4 and 5 assert the equal-term quantum target 2^(n-1) sqrt(n) for
n >= 3.  That target is provably out of reach on Bell-chain states (the zero
conditions behind it are mutually inconsistent; see the constructions module
docstring), so those checks FAIL by design and report the measured values.
They are kept as stated rather than weakened.
"""
import math
import time
import warnings

import numpy as np
import pytest

from chainlock.constructions import optimal_model
from chainlock.errors import ConstructionFailedError
from chainlock.cli import sweep_rows
from chainlock.nlocal import alpha_bruteforce, alpha_closed_form, lhv_exhaustive_max
from chainlock.qcore import (beta_quantum, correlator_contracted, correlator_dense,
                             make_model, random_dichotomic)
from chainlock.seesaw import SeesawConfig, seesaw_optimize
from chainlock.soscert import certify, omega_values, tsirelson_ceiling

# frozen from the first run of this exact configuration (criterion 8)
N4_SINGLE_PAIR_SEESAW_BEST = 12.720904074142965
N4_SINGLE_PAIR_SEED = 2024


def record(criterion, label, ok, detail=""):
    print(f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def _random_model(n, rng):
    m = max(1, n // 2)
    d = 2 ** m
    return make_model(
        n, [random_dichotomic(d, rng) for _ in range(n)],
        [[random_dichotomic(d * d, rng) for _ in range(2)] for _ in range(n - 1)],
        [random_dichotomic(d, rng) for _ in range(n)], qubits_per_half=m)


def test_criterion_1_classical_bounds_exact():
    t0 = time.time()
    ok = all(alpha_bruteforce(n)[0] == alpha_closed_form(n) for n in range(2, 21))
    known = (alpha_closed_form(2), alpha_closed_form(3),
             alpha_closed_form(4), alpha_closed_form(5)) == (2, 6, 12, 30)
    elapsed = time.time() - t0
    record(1, "classical bounds", ok and known and elapsed < 5.0,
           f"n=2..20 exact match, alpha(2..5)=(2,6,12,30), {elapsed:.2f}s")


def test_criterion_2_behavior_level_lhv():
    t0 = time.time()
    ok = all(lhv_exhaustive_max(n).lhv_max == alpha_closed_form(n) for n in (2, 3, 4))
    elapsed = time.time() - t0
    record(2, "behavior-level LHV max", ok and elapsed < 30.0,
           f"n=2,3,4 equal closed form, {elapsed:.2f}s")


@pytest.mark.parametrize("n,tol", [(2, 1e-8), (3, 1e-8), (4, 1e-6), (5, 1e-6)])
def test_criterion_3_constructed_quantum_optimum(n, tol):
    target = tsirelson_ceiling(n)
    try:
        beta, _ = beta_quantum(optimal_model(n))
        detail = f"beta={beta:.9f} target={target:.9f}"
        ok = abs(beta - target) < tol
    except ConstructionFailedError as err:
        detail = (f"construction failed: best beta={err.beta:.9f} < target="
                  f"{target:.9f}, max residual={max(err.residuals):.3f}")
        ok = False
    record(3, f"constructed optimum n={n}", ok, detail)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_4_certification(n):
    try:
        rep = certify(optimal_model(n))
        omegas_ok = (max(abs(w - math.sqrt(n)) for w in rep.omega_a + rep.omega_c)
                     < 1e-8)
        ok = rep.certified and rep.gamma < 1e-7 and max(rep.residuals) < 1e-7 and omegas_ok
        detail = (f"certified={rep.certified} gap={rep.gamma:.2e} "
                  f"max_residual={max(rep.residuals):.2e}")
    except ConstructionFailedError as err:
        ok = False
        detail = (f"no model attains the target: best beta={err.beta:.9f}, "
                  f"max residual={max(err.residuals):.3f}")
    record(4, f"certification n={n}", ok, detail)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_5_seesaw_reachability(n):
    t0 = time.time()
    rep = seesaw_optimize(n, SeesawConfig(restarts=10, seed=0))
    elapsed = time.time() - t0
    target = tsirelson_ceiling(n)
    monotone = True
    last = {}
    for r, _, beta in rep.trace:
        if r in last and beta < last[r] - 1e-10:
            monotone = False
        last[r] = beta
    ok = abs(rep.best_beta - target) < 1e-3 and monotone and elapsed < 300
    record(5, f"seesaw reachability n={n}", ok,
           f"best={rep.best_beta:.9f} target={target:.9f} monotone={monotone} "
           f"{elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(600 + n)
        for _ in range(100):
            model = _random_model(n, rng)
            x = int(rng.integers(1, n + 1))
            z = int(rng.integers(1, n + 1))
            combo = tuple(int(v) for v in rng.integers(1, 3, size=n - 1))
            diff = abs(correlator_dense(model, x, combo, z)
                       - correlator_contracted(model, x, combo, z))
            worst = max(worst, diff)
    record(6, "dense vs contracted oracle", worst < 1e-9,
           f"300 random models, worst |diff|={worst:.2e}")


def test_criterion_7_violation_everywhere():
    rows = sweep_rows(2, 8)
    ratios = [row["ratio"] for row in rows]
    record(7, "ceiling exceeds classical bound for n=2..8", all(r > 1 for r in ratios),
           f"min ratio={min(ratios):.6f}")


def test_criterion_8_qubit_insufficiency():
    rep = seesaw_optimize(4, SeesawConfig(restarts=20, seed=N4_SINGLE_PAIR_SEED,
                                          qubits_per_half=1))
    delta = 16.0 - rep.best_beta
    regression_ok = abs(rep.best_beta - N4_SINGLE_PAIR_SEESAW_BEST) < 1e-6
    record(8, "single pair per source falls short at n=4",
           delta > 0.1 and regression_ok,
           f"best={rep.best_beta:.9f} delta={delta:.4f} (frozen "
           f"{N4_SINGLE_PAIR_SEESAW_BEST:.9f})")


def test_criterion_9_sos_chain_inequalities():
    worst_slack = -np.inf
    count = 0
    vanished = []
    for n in (2, 3, 4):
        rng = np.random.default_rng(900 + n)
        for _ in range(167):
            model = _random_model(n, rng)
            beta, _ = beta_quantum(model)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                om_a, om_c = omega_values(model)
            vanished += [(n, str(w.message).split(":")[0]) for w in caught]
            tau = sum(math.sqrt(a * c) for a, c in zip(om_a, om_c))
            cs = math.sqrt(sum(om_a)) * math.sqrt(sum(om_c))
            ceiling = tsirelson_ceiling(n)
            worst_slack = max(worst_slack, beta - tau, tau - cs, cs - ceiling)
            count += 1
    record(9, "SOS chain inequalities", worst_slack < 1e-9,
           f"{count} random models, worst violation={worst_slack:.2e}")
    # at n = 2 (d = 2) a signed sum of two random dichotomic edges can vanish,
    # which omega_values warns about; those are the only warnings it gives here
    assert set(vanished) == {(2, "omega^A_2 vanishes"), (2, "omega^C_1 vanishes"),
                             (2, "omega^C_2 vanishes")}
