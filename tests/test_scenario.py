import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlock.scenario import (bob_inputs_for_term, build_bob_input_map, build_encoding,
                                scenario_to_json_dict)


def test_scenario_counts():
    sc = build_encoding(5)
    assert sc.edge_inputs == 5
    assert sc.central_parties == 4
    assert sc.central_inputs == 2
    assert sc.outcomes == 2
    assert sc.terms == 16


def test_scenario_too_small():
    with pytest.raises(ValueError):
        build_bob_input_map(1)
    with pytest.raises(ValueError):
        build_encoding(1)


def test_encoding_n2():
    enc = build_encoding(2)
    assert enc.signs.tolist() == [[1, 1], [1, -1]]
    assert enc.bitstrings == ("00", "01")


def test_encoding_n3():
    enc = build_encoding(3)
    assert enc.signs.tolist() == [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
    assert enc.bitstrings == ("000", "001", "010", "011")


def test_encoding_n3_matches_published_rows_up_to_global_sign():
    # The published trilocal list uses (-1,+1,+1) for the fourth term; our
    # first-bit-zero convention stores its global negation, which leaves
    # every |J_i| unchanged.
    enc = build_encoding(3)
    published = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]])
    for row, pub in zip(enc.signs, published):
        assert np.array_equal(row, pub) or np.array_equal(row, -pub)


def test_encoding_n4_all_distinct_first_plus():
    enc = build_encoding(4)
    assert enc.signs.shape == (8, 4)
    assert np.all(enc.signs[:, 0] == 1)
    assert len({tuple(r) for r in enc.signs.tolist()}) == 8


@pytest.mark.parametrize("n", range(2, 9))
def test_rows_with_negations_cover_hypercube(n):
    enc = build_encoding(n)
    rows = {tuple(r) for r in enc.signs.tolist()}
    rows |= {tuple((-enc.signs[i]).tolist()) for i in range(len(enc.bitstrings))}
    assert len(rows) == 2 ** n


def test_bob_inputs_examples():
    assert bob_inputs_for_term(3, 1) == (1, 1)
    assert bob_inputs_for_term(3, 2) == (1, 2)
    assert bob_inputs_for_term(4, 8) == (2, 2, 2)


def test_bob_inputs_first_and_last_rows():
    rows = build_bob_input_map(6)
    assert rows[0] == (1, 1, 1, 1, 1)
    assert rows[-1] == (2, 2, 2, 2, 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_bob_inputs_bijection(n):
    rows = {bob_inputs_for_term(n, i) for i in range(1, 2 ** (n - 1) + 1)}
    assert len(rows) == 2 ** (n - 1)
    assert all(len(r) == n - 1 and set(r) <= {1, 2} for r in rows)


def test_term_index_out_of_range():
    with pytest.raises(IndexError):
        bob_inputs_for_term(3, 0)
    with pytest.raises(IndexError):
        bob_inputs_for_term(3, 5)
    with pytest.raises(IndexError):
        build_encoding(3).row(5)


@given(st.integers(min_value=2, max_value=10), st.data())
@settings(max_examples=60, deadline=None)
def test_row_is_signed_bitstring(n, data):
    enc = build_encoding(n)
    i = data.draw(st.integers(min_value=1, max_value=2 ** (n - 1)))
    bits = enc.bitstrings[i - 1]
    assert bits[0] == "0"
    assert int(bits, 2) == i - 1
    assert [1 - 2 * int(b) for b in bits] == enc.row(i).tolist()
    # the central inputs of every term are its sign row's trailing bits, plus 1
    assert bob_inputs_for_term(n, i) == tuple(int(b) + 1 for b in bits[1:])
    assert build_bob_input_map(n) == tuple(
        tuple((1 - int(s)) // 2 + 1 for s in row[1:]) for row in enc.signs)


def test_scenario_json_shape():
    d = scenario_to_json_dict(3)
    assert d["n"] == 3
    assert d["signs"] == [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
    assert d["bob_inputs"] == [[1, 1], [1, 2], [2, 1], [2, 2]]


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_encoding_rows_immutable(n):
    # one cached table per n, shared by every caller, so it must stay read-only
    enc = build_encoding(n)
    assert build_encoding(n) is enc
    with pytest.raises(ValueError):
        enc.signs[0, 0] = -1
