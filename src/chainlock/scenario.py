"""Linear-chain network combinatorics.

A chain with n independent sources has n+1 parties: two edge parties (Alice
and Charlie, n inputs each) and n-1 central parties (one Bob per interior
position, 2 inputs each).  The 2^(n-1) correlator terms are indexed by the
length-n bit strings b that start with 0; term i carries the sign vector
((-1)^b_1, ..., (-1)^b_n) on the edge observables, and its trailing n-1 bits
select the input of each central party (bit 0 -> input 1, bit 1 -> input 2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TermTable:
    """The correlator terms of an n-source chain, one bit string b per term.

    Row i of ``signs`` (0-based internally, 1-based in reports) is (-1)^b for
    the i-th length-n bit string with first bit 0, in ascending binary order,
    so every row starts with +1.  Row i of ``central`` holds the trailing bits
    of that b: the 0-based input of each central party in term i.  Both are
    read-only int arrays, (terms, n) and (terms, n-1).
    """

    n: int
    signs: np.ndarray
    bitstrings: tuple[str, ...]
    central: np.ndarray

    central_inputs = 2
    outcomes = 2

    @property
    def terms(self) -> int:
        return len(self.bitstrings)

    @property
    def edge_inputs(self) -> int:
        return self.n

    @property
    def central_parties(self) -> int:
        return self.n - 1

    def _check(self, i: int):
        if not 1 <= i <= self.terms:
            raise IndexError(f"term index {i} out of range 1..{self.terms}")

    def row(self, i: int) -> np.ndarray:
        """Sign vector for 1-based term index i."""
        self._check(i)
        return self.signs[i - 1]

    def bob_inputs(self, i: int) -> tuple[int, ...]:
        """1-based central-party inputs of 1-based term index i."""
        self._check(i)
        return tuple(int(y) + 1 for y in self.central[i - 1])


@functools.lru_cache(maxsize=None)
def build_encoding(n: int) -> TermTable:
    """The term table of an n-source chain, built once per n."""
    if n < 2:
        raise ValueError(f"chain scenario needs at least 2 sources, got n={n}")
    count = 2 ** (n - 1)
    bits = [[0] + [(i >> (n - 2 - j)) & 1 for j in range(n - 1)] for i in range(count)]
    signs = np.array([[1 - 2 * b for b in row] for row in bits], dtype=np.int64)
    central = np.array([row[1:] for row in bits], dtype=np.int64)
    signs.setflags(write=False)
    central.setflags(write=False)
    return TermTable(n=n, signs=signs, central=central,
                     bitstrings=tuple("".join(map(str, row)) for row in bits))


def build_bob_input_map(n: int) -> tuple[tuple[int, ...], ...]:
    """1-based central-party inputs of every term, in term order."""
    table = build_encoding(n)
    return tuple(table.bob_inputs(i) for i in range(1, table.terms + 1))


def bob_inputs_for_term(n: int, i: int) -> tuple[int, ...]:
    """Central-party inputs used by term i (1-based)."""
    return build_encoding(n).bob_inputs(i)


def scenario_to_json_dict(n: int) -> dict:
    """JSON-ready description of the scenario (signs and bob inputs)."""
    return {
        "n": n,
        "signs": build_encoding(n).signs.tolist(),
        "bob_inputs": [list(r) for r in build_bob_input_map(n)],
    }
