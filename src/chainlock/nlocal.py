"""Classical (n-local) bounds for the chain inequality.

Three independent routes to the same number:
  * ``alpha_closed_form``  -- one binomial, n C(n-1, floor((n-1)/2)), exact.
  * ``alpha_bruteforce``   -- one exact sum over the 2^(n-1) sign rows; every
    assignment scores the same, so the functional's maximum is that sum.
  * ``lhv_exhaustive_max`` -- full deterministic-strategy search at the
    behavior level (small n), going through explicit probability tables.
    The search is batched: a run of strategy indices becomes one stack of
    tables, each checked like a ``Behavior``, and one product with the
    outcome-sign weights gives the correlators of the whole stack.  A single
    strategy or behavior is the one-table case of the same code.  The batches
    form one job list, mapped serially or on a process pool; the betas are
    reduced once, in index order, so the worker count decides only which
    process computes a batch.
"""
from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, ShapeError, integer_at_least
from .scenario import build_encoding

BRUTEFORCE_MAX_N = 24
EXHAUSTIVE_MAX_N = 4
_TABLE_STACK_BYTES = 1 << 22  # 4 MB of float64 tables per search batch: 128 at n = 4


@dataclass(frozen=True)
class DeterministicStrategy:
    """One classical assignment of +-1 outputs.

    ``alice``/``charlie`` hold one sign per input; ``bobs[m]`` holds the pair
    of signs central party m answers for inputs 1 and 2.
    """

    alice: tuple[int, ...]
    charlie: tuple[int, ...]
    bobs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(len(pair) != 2 for pair in self.bobs):
            raise ShapeError("each central party needs exactly 2 signs")

        def signs(group) -> tuple[int, ...]:  # plain ints, for JSON; True is not +1
            values = tuple(integer_at_least("strategy entry", v, -1) for v in group)
            if any(v not in (-1, 1) for v in values):
                raise ValueError("strategy entries must be +1 or -1")
            return values

        object.__setattr__(self, "alice", signs(self.alice))
        object.__setattr__(self, "charlie", signs(self.charlie))
        object.__setattr__(self, "bobs", tuple(map(signs, self.bobs)))

    def to_json_dict(self) -> dict:
        return {
            "alice": list(self.alice),
            "charlie": list(self.charlie),
            "bobs": [list(pair) for pair in self.bobs],
        }


def _check_probabilities(tables: np.ndarray) -> None:
    """Every table in a stack (trailing axes a, b, c, x, k, z) is a behavior."""
    if np.any(tables < 0):
        raise ValueError("behavior has negative probabilities")
    sums = tables.sum(axis=(-6, -5, -4))
    if not np.allclose(sums, 1.0, atol=1e-12):
        raise ValueError("behavior is not normalized per input tuple")


@dataclass(frozen=True, eq=False)
class Behavior:
    """Joint conditional probability table P(a, b_vec, c | x, y_vec, z).

    ``table[a, b, c, x, k, z]`` with b the central outcome bits packed big-endian
    and k the 0-based term index (term k+1 of the term table fixes the central inputs).
    """

    n: int
    table: np.ndarray

    def __post_init__(self):
        t = self.table
        half = 2 ** (self.n - 1)
        if t.shape != (2, half, 2, self.n, half, self.n):
            raise ShapeError(f"behavior table has shape {t.shape}, expected "
                             f"{(2, half, 2, self.n, half, self.n)}")
        _check_probabilities(t)


@dataclass(frozen=True)
class BoundReport:
    n: int
    alpha_closed: int
    alpha_bruteforce: int
    witness: DeterministicStrategy
    match: bool
    lhv_max: int | None = None  # behavior-level maximum, when searched

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "alpha_closed": self.alpha_closed,
            "alpha_bruteforce": self.alpha_bruteforce,
            "match": self.match,
            "witness": self.witness.to_json_dict(),
        }
        if self.lhv_max is not None:
            out["lhv_max"] = self.lhv_max
        return out


def alpha_closed_form(n: int) -> int:
    """Classical ceiling n C(n-1, floor((n-1)/2)): sum_{l<=n/2} C(n,l) (n - 2l), telescoped."""
    n = integer_at_least("n", n, 2)
    return n * math.comb(n - 1, (n - 1) // 2)


def assignment_scores(n: int) -> np.ndarray:
    """Score of every edge assignment: f(a) = sum_i |sum_x signs[i,x] a_x|.

    The rows signs[i] hold one of each complement pair {v, -v} of sign
    vectors.  |v . a| = |(v * a) . 1| and v -> v * a maps complement pairs
    onto complement pairs, so every assignment scores f(1): the 2^n scores
    are ``alpha_bruteforce``'s row sum, one int64 broadcast.  Index a's bit
    for input x sits at position n-1-x (first input most significant); bit 0
    means sign +1.
    """
    return np.broadcast_to(np.int64(alpha_bruteforce(n)[0]), (1 << n,))


def alpha_bruteforce(n: int) -> tuple[int, tuple[int, ...]]:
    """Exact maximum of the edge-assignment functional, and the all-+1 maximizer.

    Every assignment scores f(1) = sum_u |n - 2*popcount(u)| over the 2^(n-1)
    row indices u (see ``assignment_scores``), counted by popcount in uint8.
    """
    n = integer_at_least("n", n, 2)
    if n > BRUTEFORCE_MAX_N:
        raise CapacityError(f"alpha_bruteforce supports n <= {BRUTEFORCE_MAX_N}, got {n}")
    counts = np.bincount(np.bitwise_count(np.arange(1 << (n - 1), dtype=np.uint32)),
                         minlength=n)
    return int(counts @ np.abs(n - 2 * np.arange(n))), (1,) * n


def bound_report(n: int) -> BoundReport:
    """Closed form vs brute force, with a strategy witness achieving the bound."""
    n = integer_at_least("n", n, 2)
    closed = alpha_closed_form(n)
    brute, edge = alpha_bruteforce(n)
    # charlie mirroring alice makes every J_i a perfect square, so the witness
    # strategy attains beta = alpha with all central parties answering +1
    witness = DeterministicStrategy(
        alice=edge, charlie=edge, bobs=tuple((1, 1) for _ in range(n - 1)))
    return BoundReport(n=n, alpha_closed=closed, alpha_bruteforce=brute,
                       witness=witness, match=closed == brute)


def _strategy_bits(n: int, idx) -> np.ndarray:
    """Bit rows of strategy numbers ``idx``, most significant first: Alice's n inputs,
    Charlie's n, then inputs 1 and 2 of each central party; bit 1 is sign -1."""
    return (np.asarray(idx, dtype=np.int64)[:, None] >> np.arange(4 * n - 3, -1, -1)) & 1


def _behavior_tables(n: int, bits: np.ndarray) -> np.ndarray:
    """Deterministic tables of strategy bit rows ``bits``, stacked as (B, 2, half, 2, n, half, n).

    An outcome bit is the strategy bit (sign -1 <-> outcome 1).  Each table is
    checked like a ``Behavior``.
    """
    half = 2 ** (n - 1)
    a_bits, c_bits = bits[:, :n], bits[:, n:2 * n]
    bob_bits = bits[:, 2 * n:].reshape(len(bits), n - 1, 2)
    # answers[s, k, m]: central party m's outcome bit in term k, packed big-endian
    answers = bob_bits[:, np.arange(n - 1), build_encoding(n).central]
    b_packed = answers @ (1 << np.arange(n - 2, -1, -1))
    tables = np.zeros((len(bits), 2, half, 2, n, half, n))
    xx, kk, zz = np.ix_(range(n), range(half), range(n))
    ss = np.arange(len(bits))[:, None, None, None]
    tables[ss, a_bits[:, xx], b_packed[:, kk], c_bits[:, zz], xx, kk, zz] = 1.0
    _check_probabilities(tables)
    return tables


@functools.lru_cache(maxsize=None)
def _beta_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-sign weights (-1)^(a + |b| + c), flat, and each term's sign products.

    The second array is s_i[x] s_i[z] at [x, i, z], in the correlators' layout.
    """
    half = 2 ** (n - 1)
    parity_b = (-1.0) ** np.bitwise_count(np.arange(half))
    sign_a = np.array([1.0, -1.0])
    weights = np.einsum("a,b,c->abc", sign_a, parity_b, sign_a).ravel()
    signs = build_encoding(n).signs.astype(float)
    return weights, np.einsum("ix,iz->xiz", signs, signs)


def _betas(n: int, tables: np.ndarray) -> np.ndarray:
    """beta = sum_i sqrt(|s_i E_i s_i|) for every table of a (B, ...) stack.

    E[x, k, z] = sum_{a,b,c} (-1)^(a + |b| + c) P(a,b,c|x,k,z) comes from one
    product with the sign weights.  The square roots are added in term order.
    """
    weights, products = _beta_weights(n)
    half = 2 ** (n - 1)
    corr = (weights @ tables.reshape(len(tables), 4 * half, -1)).reshape(-1, n, half, n)
    roots = np.sqrt(np.abs(np.einsum("xiz,sxiz->si", products, corr)))
    beta = np.zeros(len(tables))
    for i in range(half):
        beta += roots[:, i]
    return beta


def behavior_from_strategy(strategy: DeterministicStrategy, n: int) -> Behavior:
    """Deterministic behavior: probability 1 on the outputs the strategy dictates."""
    if (len(strategy.alice) != n or len(strategy.charlie) != n
            or len(strategy.bobs) != n - 1):
        raise ShapeError(f"strategy dimensions do not match n={n}")
    signs = np.concatenate([strategy.alice, strategy.charlie, np.ravel(strategy.bobs)])
    return Behavior(n=n, table=_behavior_tables(n, (1 - signs[None]) // 2)[0])


def beta_of_behavior(behavior: Behavior) -> float:
    """beta = sum_i sqrt(|J_i|) evaluated on an explicit behavior."""
    return float(_betas(behavior.n, behavior.table[None])[0])


def _strategy_from_index(n: int, idx: int) -> DeterministicStrategy:
    """Strategy number idx in lexicographic order over (alice, charlie, bobs) bits."""
    signs = (1 - 2 * _strategy_bits(n, [idx])[0]).tolist()
    bobs = tuple(zip(signs[2 * n::2], signs[2 * n + 1::2]))
    return DeterministicStrategy(alice=tuple(signs[:n]), charlie=tuple(signs[n:2 * n]), bobs=bobs)


def _search_jobs(n: int) -> list[tuple[int, int, int]]:
    """(n, lo, hi) per batch of strategy numbers, in index order; a batch's tables
    fill ``_TABLE_STACK_BYTES``."""
    half, total = 2 ** (n - 1), 2 ** (4 * n - 2)
    batch = max(1, _TABLE_STACK_BYTES // (8 * (2 * half * 2) * (n * half * n)))
    return [(n, lo, min(lo + batch, total)) for lo in range(0, total, batch)]


def _job_betas(job: tuple[int, int, int]) -> np.ndarray:
    """beta of every strategy number in lo..hi-1, from one stack of tables."""
    n, lo, hi = job
    return _betas(n, _behavior_tables(n, _strategy_bits(n, np.arange(lo, hi))))


def lhv_exhaustive_max(n: int, threads: int = 1) -> BoundReport:
    """Maximize beta over every deterministic strategy, via explicit behaviors.

    The search space is 2^(2n) * 4^(n-1) strategies; supported for n in 2..4.
    ``threads`` must be an integer >= 1 (``ValueError`` otherwise), as on the
    command line; the worker count is capped at the CPU count and the job
    count.  The result is independent of it by construction: the betas of one
    job list are reduced once, in index order, so ties keep the first witness.
    """
    threads = integer_at_least("threads", threads, 1)
    n = integer_at_least("n", n, 2)
    if n > EXHAUSTIVE_MAX_N:
        raise CapacityError(f"lhv_exhaustive_max supports n <= {EXHAUSTIVE_MAX_N}, got {n}")
    jobs = _search_jobs(n)
    threads = min(threads, os.cpu_count() or 1, len(jobs))
    if threads == 1:
        betas = np.concatenate(list(map(_job_betas, jobs)))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            betas = np.concatenate(list(pool.map(_job_betas, jobs,
                                                 chunksize=-(-len(jobs) // threads))))
    best, best_idx = -1.0, -1
    for i, beta in enumerate(betas.tolist()):
        if beta > best + 1e-12:
            best, best_idx = beta, i
    report = bound_report(n)
    if abs(best - report.alpha_closed) > 1e-9:
        raise AssertionError(
            f"behavior-level maximum {best} disagrees with closed form {report.alpha_closed}")
    return replace(report, witness=_strategy_from_index(n, best_idx), lhv_max=round(best))
