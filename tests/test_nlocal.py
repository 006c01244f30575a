import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlock import nlocal
from chainlock.errors import CapacityError, ShapeError
from chainlock.nlocal import (BRUTEFORCE_MAX_N, Behavior, DeterministicStrategy,
                              _behavior_tables, _betas,
                              _search_range, _strategy_from_index,
                              alpha_bruteforce, alpha_closed_form, assignment_scores, behavior_from_strategy,
                              beta_of_behavior, bound_report, lhv_exhaustive_max)
from chainlock.scenario import build_encoding


def naive_assignment_scores(n):
    """Triple-loop oracle for the edge-assignment functional."""
    from itertools import product
    enc = build_encoding(n)
    scores = []
    for a in product((1, -1), repeat=n):
        scores.append(sum(abs(int(np.dot(row, a))) for row in enc.signs))
    return scores


@pytest.mark.parametrize("n,value", [(2, 2), (3, 6), (4, 12), (5, 30)])
def test_alpha_known_values(n, value):
    assert alpha_closed_form(n) == value


def test_alpha_closed_form_equals_binomial_sum():
    # the one-binomial form against the binomial sum it telescopes, exact integers
    for n in range(2, 301):
        assert alpha_closed_form(n) == sum(math.comb(n, l) * (n - 2 * l)
                                           for l in range(n // 2 + 1))


@pytest.mark.parametrize("n", range(2, 25))
def test_alpha_closed_equals_bruteforce(n):
    value, witness = alpha_bruteforce(n)
    assert value == alpha_closed_form(n)
    assert len(witness) == n


@pytest.mark.parametrize("n", range(2, 11))
def test_bruteforce_against_naive_oracle(n):
    scores = assignment_scores(n)
    assert scores.tolist() == naive_assignment_scores(n)


def reference_walsh_hadamard(v):
    """Per-level radix-2 butterflies in int64, one level per bit from the lowest."""
    v = v.astype(np.int64)
    h = 1
    while h < v.shape[0]:
        pairs = v.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :], pairs[:, 1, :] = top + bot, top - bot
        h *= 2
    return v


def reference_assignment_scores(n):
    """The XOR convolution with a popcount loop and the radix-2 transform."""
    size = 2 ** n
    index = np.arange(size)
    popcount = sum((index >> b) & 1 for b in range(n))
    g = np.abs(n - 2 * popcount)
    indicator = (index < size // 2).astype(np.int64)
    conv = reference_walsh_hadamard(
        reference_walsh_hadamard(indicator) * reference_walsh_hadamard(g))
    assert not np.any(conv % size)
    return conv // size


@pytest.mark.parametrize("n", range(13, 19))
def test_assignment_scores_match_radix2_reference(n):
    scores = assignment_scores(n)
    assert scores.dtype == np.int64
    assert np.array_equal(scores, reference_assignment_scores(n))


@pytest.mark.parametrize("n", range(2, 13))
def test_assignment_scores_match_direct_enumeration(n):
    # row a of `assignments` is the sign vector of assignment index a: first
    # input in the most significant bit, bit 1 meaning sign -1
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    assignments = 1 - 2 * bits
    signs = np.asarray(build_encoding(n).signs, dtype=np.int64)
    direct = np.abs(assignments @ signs.T).sum(axis=1)
    assert np.array_equal(assignment_scores(n), direct)


def test_bruteforce_witnesses():
    assert alpha_bruteforce(2) == (2, (1, 1))
    assert alpha_bruteforce(3) == (6, (1, 1, 1))


def test_bruteforce_capacity():
    for scores_or_alpha in (assignment_scores, alpha_bruteforce):
        with pytest.raises(CapacityError):
            scores_or_alpha(BRUTEFORCE_MAX_N + 1)
        with pytest.raises(ValueError):
            scores_or_alpha(1)


def test_bruteforce_memory_is_bounded():
    # the row sum holds uint8 popcounts and their counts, never a 2^n vector
    tracemalloc.start()
    try:
        result = alpha_bruteforce(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (alpha_closed_form(24), (1,) * 24) == (32449872, (1,) * 24)
    assert peak < 100 * 2 ** 20


def test_bound_report_witness_attains_alpha():
    for n in (2, 3, 4, 5):
        rep = bound_report(n)
        assert rep.match
        beta = beta_of_behavior(
            behavior_from_strategy(rep.witness, n))
        assert beta == pytest.approx(rep.alpha_closed, abs=1e-9)


def test_behavior_all_plus_n2():
    s = DeterministicStrategy(alice=(1, 1), charlie=(1, 1), bobs=((1, 1),))
    b = behavior_from_strategy(s, 2)
    # sign +1 maps to outcome 0 for every party and input
    assert np.all(b.table[0, 0, 0, :, :, :] == 1.0)
    assert b.table.sum() == b.table[0, 0, 0].size


def test_behavior_flipped_alice_input2():
    s = DeterministicStrategy(alice=(1, -1), charlie=(1, 1), bobs=((1, 1),))
    b = behavior_from_strategy(s, 2)
    assert np.all(b.table[1, 0, 0, 1, :, :] == 1.0)  # x=2 -> outcome a=1
    assert np.all(b.table[0, 0, 0, 0, :, :] == 1.0)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_behavior_rows_sum_to_one(n, data):
    s = _draw_strategy(n, data)
    b = behavior_from_strategy(s, n)
    sums = b.table.sum(axis=(0, 1, 2))
    assert np.allclose(sums, 1.0)


def test_behavior_shape_mismatch():
    s = DeterministicStrategy(alice=(1, 1), charlie=(1, 1), bobs=((1, 1),))
    with pytest.raises(ShapeError):
        behavior_from_strategy(s, 3)


def test_behavior_validation():
    half = 2
    bad = np.full((2, half, 2, 2, half, 2), 0.3)
    with pytest.raises(ValueError):
        Behavior(n=2, table=bad)


def test_beta_examples():
    s2 = DeterministicStrategy(alice=(1, 1), charlie=(1, 1), bobs=((1, 1),))
    beta = beta_of_behavior(behavior_from_strategy(s2, 2))
    assert beta == pytest.approx(2.0, abs=1e-12)

    s3 = DeterministicStrategy(alice=(1, 1, 1), charlie=(1, 1, 1), bobs=((1, 1), (1, 1)))
    beta = beta_of_behavior(behavior_from_strategy(s3, 3))
    assert beta == pytest.approx(6.0, abs=1e-12)


def test_beta_uniform_behavior_is_zero():
    half = 2
    table = np.full((2, half, 2, 2, half, 2), 1.0 / 8)
    assert beta_of_behavior(Behavior(n=2, table=table)) == pytest.approx(0.0)


def _draw_strategy(n, data):
    sign = st.sampled_from((1, -1))
    alice = tuple(data.draw(sign) for _ in range(n))
    charlie = tuple(data.draw(sign) for _ in range(n))
    bobs = tuple((data.draw(sign), data.draw(sign)) for _ in range(n - 1))
    return DeterministicStrategy(alice=alice, charlie=charlie, bobs=bobs)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_deterministic_beta_never_exceeds_alpha(n, data):
    s = _draw_strategy(n, data)
    beta = beta_of_behavior(behavior_from_strategy(s, n))
    assert beta <= alpha_closed_form(n) + 1e-9


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=30, deadline=None)
def test_beta_invariant_under_global_negation(n, data):
    s = _draw_strategy(n, data)
    base = beta_of_behavior(behavior_from_strategy(s, n))
    flipped = DeterministicStrategy(
        alice=tuple(-a for a in s.alice), charlie=s.charlie, bobs=s.bobs)
    assert beta_of_behavior(behavior_from_strategy(flipped, n)) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("n,value", [(2, 2), (3, 6)])
def test_lhv_exhaustive_small(n, value):
    rep = lhv_exhaustive_max(n)
    assert rep.lhv_max == value
    assert rep.alpha_closed == value
    assert rep.match


def test_lhv_exhaustive_threads_agree():
    serial = lhv_exhaustive_max(4, threads=1)
    parallel = lhv_exhaustive_max(4, threads=2)
    assert serial.lhv_max == parallel.lhv_max == 12
    assert serial.witness == parallel.witness


@pytest.mark.parametrize("threads", [0, -5, 2.0, True])
def test_lhv_exhaustive_rejects_bad_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        lhv_exhaustive_max(2, threads=threads)


def reference_table(strategy, n):
    """One strategy's table, built per term by joining bit strings."""
    half = 2 ** (n - 1)
    table = np.zeros((2, half, 2, n, half, n))
    central = build_encoding(n).central
    for x in range(n):
        for k in range(half):
            bits = [(1 - strategy.bobs[m][y]) // 2 for m, y in enumerate(central[k])]
            b = int("".join(str(v) for v in bits), 2)
            for z in range(n):
                table[(1 - strategy.alice[x]) // 2, b, (1 - strategy.charlie[z]) // 2, x, k, z] = 1.0
    return table


def reference_beta(table, n):
    """beta of one table: one einsum for the correlators, a loop over terms."""
    half = 2 ** (n - 1)
    parity_b = np.array([(-1.0) ** bin(b).count("1") for b in range(half)])
    sign_a = np.array([1.0, -1.0])
    corr = np.einsum("a,b,c,abcxkz->xkz", sign_a, parity_b, sign_a, table)
    beta = 0.0
    for i, row in enumerate(build_encoding(n).signs):
        s = row.astype(float)
        beta += math.sqrt(abs(s @ corr[:, i, :] @ s))
    return beta


@pytest.mark.parametrize("n,stride", [(2, 1), (3, 1), (4, 37)])
def test_batched_tables_and_betas_match_reference(n, stride):
    # deterministic correlators are exactly +-1 and every J_i an exact integer,
    # so the stacked route and the one-table functions agree bit for bit
    idx = np.arange(0, 2 ** (4 * n - 2), stride)
    tables = _behavior_tables(n, idx)
    betas = _betas(n, tables)
    for row, i in enumerate(idx.tolist()):
        strategy = _strategy_from_index(n, i)
        ref = reference_table(strategy, n)
        assert np.array_equal(tables[row], ref)
        assert np.array_equal(behavior_from_strategy(strategy, n).table, ref)
        beta = reference_beta(ref, n)
        assert betas[row] == beta
        assert beta_of_behavior(behavior_from_strategy(strategy, n)) == beta


@pytest.fixture(scope="module")
def reference_betas_n3():
    return [reference_beta(reference_table(_strategy_from_index(3, i), 3), 3) for i in range(1024)]


@pytest.mark.parametrize("stack_bytes", [nlocal._TABLE_STACK_BYTES, 7 * 576 * 8])
def test_search_range_split_matches_reference(monkeypatch, reference_betas_n3, stack_bytes):
    # n=3 tables hold 576 entries; the second stack size makes batches of 7,
    # so range ends fall inside batches either way
    monkeypatch.setattr(nlocal, "_TABLE_STACK_BYTES", stack_bytes)
    cuts = (0, 1, 5, 300, 511, 512, 1000, 1024)
    best, best_idx = -1.0, -1
    for lo, hi in zip(cuts, cuts[1:]):
        part = reference_betas_n3[lo:hi]
        b, i = _search_range((3, lo, hi))
        assert (b, i) == (max(part), lo + part.index(max(part)))
        if b > best + 1e-12:
            best, best_idx = b, i
    assert (best, best_idx) == _search_range((3, 0, 1024))


def test_lhv_exhaustive_capacity():
    with pytest.raises(CapacityError):
        lhv_exhaustive_max(5)


def test_strategy_validation():
    with pytest.raises(ValueError):
        DeterministicStrategy(alice=(1, 0), charlie=(1, 1), bobs=((1, 1),))


@pytest.mark.parametrize("pair", [(1, 1, -1), (1,)])
def test_strategy_central_pair_length(pair):
    with pytest.raises(ShapeError):
        DeterministicStrategy(alice=(1, 1), charlie=(1, 1), bobs=(pair,))


def test_behavior_hash_and_equality_are_identity():
    b = behavior_from_strategy(_strategy_from_index(2, 5), 2)
    hash(b)
    assert b == b
    assert (b == copy.copy(b)) is False


def test_alpha_even_for_even_n():
    for n in range(2, 21, 2):
        assert alpha_closed_form(n) % 2 == 0
