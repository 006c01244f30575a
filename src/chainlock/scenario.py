"""Linear-chain network combinatorics.

A chain with n independent sources has n+1 parties: two edge parties (Alice
and Charlie, n inputs each) and n-1 central parties (one Bob per interior
position, 2 inputs each).  The 2^(n-1) correlator terms are indexed by the
length-n bit strings b that start with 0; term i carries the sign vector
((-1)^b_1, ..., (-1)^b_n) on the edge observables, and its trailing n-1 bits
select the input of each central party (bit 0 -> input 1, bit 1 -> input 2).

The term table is two arrays, ``signs`` and ``central``, and it is the one
owner of this term map: every other module reads which central inputs a term
uses from ``central``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError


@dataclass(frozen=True, eq=False)
class TermTable:
    """The correlator terms of an n-source chain, one bit string b per term.

    Row i of ``signs`` (0-based internally, 1-based in reports) is (-1)^b for
    the i-th length-n bit string with first bit 0, in ascending binary order,
    so every row starts with +1.  Row i of ``central`` holds the trailing bits
    of that b: the 0-based input of each central party in term i.  Both are
    read-only int64 arrays, (terms, n) and (terms, n-1).
    """

    n: int
    signs: np.ndarray
    central: np.ndarray

    @property
    def terms(self) -> int:
        return len(self.signs)


@functools.lru_cache(maxsize=None)
def build_encoding(n: int) -> TermTable:
    """The term table of an n-source chain, built once per n."""
    if n < 2:
        raise ValueError(f"chain scenario needs at least 2 sources, got n={n}")
    if n > 63:
        raise CapacityError(f"term table supports n <= 63 (2^(n-1) int64 row indices), got n={n}")
    # row i: the n bits of i, most significant first; i < 2^(n-1), so bit 0 is
    # 0.  Both tables are filled in place, so only they are ever held whole.
    central = (np.arange(1 << (n - 1), dtype=np.int64)[:, None]
               >> np.arange(n - 2, -1, -1, dtype=np.int64))
    central &= 1
    signs = np.empty((len(central), n), dtype=np.int64)
    signs[:, 0] = 1
    np.multiply(central, -2, out=signs[:, 1:])
    signs[:, 1:] += 1
    signs.setflags(write=False)
    central.setflags(write=False)
    return TermTable(n=n, signs=signs, central=central)


def build_bob_input_map(n: int) -> tuple[tuple[int, ...], ...]:
    """1-based central-party inputs of every term, in term order."""
    return tuple(map(tuple, (build_encoding(n).central + 1).tolist()))


def scenario_to_json_dict(n: int) -> dict:
    """JSON-ready description of the scenario (signs and bob inputs)."""
    return {
        "n": n,
        "signs": build_encoding(n).signs.tolist(),
        "bob_inputs": [list(r) for r in build_bob_input_map(n)],
    }
