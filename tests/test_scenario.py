import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlock.errors import CapacityError
from chainlock.scenario import build_bob_input_map, build_encoding, scenario_to_json_dict


def test_scenario_counts():
    sc = build_encoding(5)
    assert sc.terms == 16
    # n edge inputs per sign row, n-1 central parties with 2 inputs each
    assert sc.signs.shape == (16, 5) and sc.signs.dtype == np.int64
    assert sc.central.shape == (16, 4) and sc.central.dtype == np.int64
    assert set(np.unique(sc.central)) == {0, 1}


def test_scenario_too_small():
    with pytest.raises(ValueError):
        build_bob_input_map(1)
    with pytest.raises(ValueError):
        build_encoding(1)


def test_encoding_refuses_overflowing_row_indices():
    # 2^(n-1) row indices overflow int64 from n = 64: refused, not an empty table
    with pytest.raises(CapacityError, match="n <= 63"):
        build_encoding(64)


def test_encoding_n2():
    enc = build_encoding(2)
    assert enc.signs.tolist() == [[1, 1], [1, -1]]
    assert enc.central.tolist() == [[0], [1]]


def test_encoding_n3():
    enc = build_encoding(3)
    assert enc.signs.tolist() == [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
    assert enc.central.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


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
    rows |= {tuple((-enc.signs[i]).tolist()) for i in range(enc.terms)}
    assert len(rows) == 2 ** n


def test_bob_inputs_examples():
    assert build_bob_input_map(3)[0] == (1, 1)
    assert build_bob_input_map(3)[1] == (1, 2)
    assert build_bob_input_map(4)[7] == (2, 2, 2)
    assert build_encoding(4).central[7].tolist() == [1, 1, 1]


def test_bob_inputs_first_and_last_rows():
    rows = build_bob_input_map(6)
    assert rows[0] == (1, 1, 1, 1, 1)
    assert rows[-1] == (2, 2, 2, 2, 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_bob_inputs_bijection(n):
    rows = set(build_bob_input_map(n))
    assert len(rows) == 2 ** (n - 1)
    assert all(len(r) == n - 1 and set(r) <= {1, 2} for r in rows)
    assert len({tuple(r) for r in build_encoding(n).central.tolist()}) == 2 ** (n - 1)


@given(st.integers(min_value=2, max_value=10), st.data())
@settings(max_examples=60, deadline=None)
def test_row_is_signed_bitstring(n, data):
    enc = build_encoding(n)
    i = data.draw(st.integers(min_value=1, max_value=2 ** (n - 1)))
    bits = format(i - 1, f"0{n}b")  # term i's length-n bit string, first bit 0
    assert len(bits) == n and bits[0] == "0"
    assert [1 - 2 * int(b) for b in bits] == enc.signs[i - 1].tolist()
    # the central inputs of every term are its sign row's trailing bits
    assert enc.central[i - 1].tolist() == [int(b) for b in bits[1:]]
    assert build_bob_input_map(n)[i - 1] == tuple(int(b) + 1 for b in bits[1:])
    assert build_bob_input_map(n) == tuple(
        tuple((1 - int(s)) // 2 + 1 for s in row[1:]) for row in enc.signs)


@pytest.mark.parametrize("n", range(2, 11))
def test_table_matches_loop_reference(n):
    # the table as a Python loop over bit strings: the reference for the numpy build
    bits = [[int(b) for b in format(i, f"0{n}b")] for i in range(2 ** (n - 1))]
    enc = build_encoding(n)
    assert enc.signs.dtype == enc.central.dtype == np.int64
    assert enc.signs.tolist() == [[1 - 2 * b for b in row] for row in bits]
    assert enc.central.tolist() == [row[1:] for row in bits]


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
    with pytest.raises(ValueError):
        enc.central[0, 0] = 1


def test_table_hash_and_equality_are_identity():
    enc = build_encoding(3)
    hash(enc)
    assert enc == build_encoding(3)
    assert (enc == copy.copy(enc)) is False


@pytest.mark.parametrize("n", range(2, 21))
def test_in_place_table_equals_bit_formula(n):
    # the tables are filled in place; they must equal the (-1)^bits and
    # trailing-bits formula and stay read-only int64
    bits = (np.arange(1 << (n - 1), dtype=np.int64)[:, None]
            >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1
    table = build_encoding.__wrapped__(n)  # a fresh table, not kept in the cache
    assert np.array_equal(table.signs, 1 - 2 * bits)
    assert np.array_equal(table.central, bits[:, 1:])
    for arr in (table.signs, table.central):
        assert arr.dtype == np.int64 and not arr.flags.writeable and arr.flags.c_contiguous
