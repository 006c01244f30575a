"""Quantum numerics for the chain: states, observables, and two correlator evaluators.

The dense evaluator applies local operators to the full state vector, each as
one BLAS matrix product on the state's (pre, dim, post) view; a term's edge
vector (Y^A (x) Y^C)|psi> is formed by column blocks that stay in cache.
The contracted evaluator exploits that the state is a product of maximally
entangled links: each link of local dimension d turns the expectation into a
d x d matrix transfer, so a full (n+1)-party correlator costs a handful of
d^4 contractions instead of anything exponential in the qubit count.

A Bell chain is therefore held as its layout (``BellChainState``), and its
amplitudes are built only when a dense route reads them; ``NetworkState``
holds any other state by its explicit amplitudes.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, NumericalConsistencyError, ShapeError,
                     UnsupportedStateError, integer_at_least)
from .scenario import build_encoding

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

DENSE_QUBIT_LIMIT = 24
AUTO_DENSE_QUBIT_LIMIT = 12
HERMITIAN_TOL = 1e-12
DICHOTOMIC_TOL = 1e-10
IMAG_TOL = 1e-10
_EDGE_BLOCK_BYTES = 1 << 18  # per edge block buffer; two stay in cache


def kron_all(*ops: np.ndarray) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for o in ops:
        out = np.kron(out, o)
    return out


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian dichotomic operator (eigenvalues +-1)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"observable must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("observable has non-finite entries")
        if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL:
            raise ValueError("observable is not Hermitian")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge entry overflows the square
            off = m @ m - np.eye(m.shape[0])
        if not (np.isfinite(off).all() and np.linalg.norm(off, 2) <= DICHOTOMIC_TOL):
            raise ValueError("observable is not dichotomic (square != identity)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ChainLayout:
    """Qubit bookkeeping for the chain state.

    Each of the n sources emits 2m consecutive qubits: the left half goes to
    the upstream party, the right half to the downstream one.  Alice owns the
    first m qubits, Bob_t the contiguous block [(2t-1)m, (2t+1)m), Charlie
    the last m.  Qubit 0 is the most significant bit of the amplitude index.
    """

    n: int
    qubits_per_half: int

    def __post_init__(self):
        for name, low in (("n", 2), ("qubits_per_half", 1)):  # plain ints, for JSON
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), low))

    @property
    def total_qubits(self) -> int:
        return 2 * self.qubits_per_half * self.n

    @property
    def link_dim(self) -> int:
        return 2 ** self.qubits_per_half

    def alice_slot(self) -> tuple[int, int]:
        return 0, self.qubits_per_half

    def bob_slot(self, t: int) -> tuple[int, int]:
        """Qubit block of central party t (1-based)."""
        if not 1 <= t <= self.n - 1:
            raise IndexError(f"central party index {t} out of range 1..{self.n - 1}")
        m = self.qubits_per_half
        return (2 * t - 1) * m, 2 * m

    def charlie_slot(self) -> tuple[int, int]:
        m = self.qubits_per_half
        return (2 * self.n - 1) * m, m


def default_layout(n: int, qubits_per_half: int | None = None) -> ChainLayout:
    """floor(n/2) Bell pairs per source unless overridden."""
    if qubits_per_half is None:
        qubits_per_half = max(1, n // 2)
    return ChainLayout(n=n, qubits_per_half=qubits_per_half)


@dataclass(frozen=True, eq=False)
class NetworkState:
    """An arbitrary chain state given by its explicit amplitudes."""

    amplitudes: np.ndarray
    layout: ChainLayout

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2 ** self.layout.total_qubits,):
            raise ShapeError("state length does not match layout")
        if not abs(np.linalg.norm(amp) - 1.0) <= 1e-12:  # nan fails too
            raise ValueError("state is not normalized")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class BellChainState:
    """Product of m*n maximally entangled pairs, held as its layout.

    The chain contraction needs nothing else.  The amplitudes are built on
    first read, once per state, for the routes that apply operators to the
    full state vector.
    """

    layout: ChainLayout

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        lay = self.layout
        if lay.total_qubits > DENSE_QUBIT_LIMIT:
            raise CapacityError(
                f"dense state needs {lay.total_qubits} qubits, limit is {DENSE_QUBIT_LIMIT}")
        source = np.eye(lay.link_dim, dtype=complex).reshape(-1) / math.sqrt(lay.link_dim)
        amp = np.array([1.0], dtype=complex)  # vec(I)/sqrt(d) per source
        for _ in range(lay.n):
            amp = np.kron(amp, source)
        amp.setflags(write=False)
        return amp


def bell_chain_state(n: int, qubits_per_half: int | None = None) -> BellChainState:
    """Product of m*n maximally entangled pairs arranged per ChainLayout."""
    return BellChainState(default_layout(n, qubits_per_half))


@dataclass(frozen=True, eq=False)
class QuantumModel:
    state: NetworkState | BellChainState
    alice: tuple[Observable, ...]
    bobs: tuple[tuple[Observable, Observable], ...]
    charlie: tuple[Observable, ...]

    def __post_init__(self):
        n, d = self.layout.n, self.layout.link_dim
        if len(self.alice) != n or len(self.charlie) != n:
            raise ShapeError(f"edge parties need {n} observables each")
        if len(self.bobs) != n - 1:
            raise ShapeError(f"need {n - 1} central parties")
        for o in (*self.alice, *self.charlie):
            if o.dim != d:
                raise ShapeError(f"edge observable dim {o.dim} != {d}")
        for pair in self.bobs:
            if len(pair) != 2:
                raise ShapeError("each central party needs exactly 2 observables")
            for o in pair:
                if o.dim != d * d:
                    raise ShapeError(f"central observable dim {o.dim} != {d * d}")

    @property
    def layout(self) -> ChainLayout:
        return self.state.layout

    @property
    def n(self) -> int:
        return self.layout.n


def make_model(n: int, alice, bobs, charlie,
               qubits_per_half: int | None = None) -> QuantumModel:
    """Wrap raw matrices into a QuantumModel on the Bell chain."""
    return QuantumModel(
        state=bell_chain_state(n, qubits_per_half),
        alice=tuple(Observable(a) for a in alice),
        bobs=tuple((Observable(p[0]), Observable(p[1])) for p in bobs),
        charlie=tuple(Observable(c) for c in charlie),
    )


def jordan_wigner_set(n_obs: int) -> list[Observable]:
    """n_obs mutually anticommuting dichotomic observables on ceil((n_obs-1)/2) qubits.

    Site j contributes the pair Z^(j-1) X I... and Z^(j-1) Y I...; an odd count
    appends Z^m.  The two-observable set is (X, Z), the standard CHSH pair.
    """
    n_obs = integer_at_least("n_obs", n_obs, 1)
    if n_obs == 2:
        return [Observable(PAULI_X), Observable(PAULI_Z)]
    m = max(1, -(-(n_obs - 1) // 2))
    mats = [kron_all(*[PAULI_Z] * j, p, *[PAULI_I] * (m - j - 1))
            for j in range(m) for p in (PAULI_X, PAULI_Y)]
    if n_obs % 2 == 1:
        mats.append(kron_all(*([PAULI_Z] * m)))
    return [Observable(o) for o in mats[:n_obs]]


def anticommutator_report(observables) -> np.ndarray:
    """Entry (j,k) = operator norm of {O_j, O_k}; diagonal is 2 for dichotomic sets."""
    mats = [o.matrix if isinstance(o, Observable) else np.asarray(o) for o in observables]
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise ShapeError(f"observables have mixed dimensions {sorted(dims)}")
    k = len(mats)
    out = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            out[a, b] = np.linalg.norm(mats[a] @ mats[b] + mats[b] @ mats[a], 2)
    return out


# ---------------------------------------------------------------------------
# dense evaluator

def apply_to_slot(amplitudes: np.ndarray, op: np.ndarray, start: int, count: int,
                  total: int, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a 2^count-dim operator to the contiguous qubit block [start, start+count).

    With ``out`` the same ``np.matmul`` writes the product there (same bits) and
    ``out`` is returned.  It must be a C-contiguous vector of the product's shape
    and dtype that does not overlap ``amplitudes``: ``np.matmul`` would otherwise
    work through a hidden copy.
    """
    dim = 2 ** count
    if op.shape != (dim, dim):
        raise ShapeError(f"operator shape {op.shape} does not fit a {count}-qubit slot")
    pre, post = 2 ** start, 2 ** (total - start - count)
    if out is not None:
        dtype = np.result_type(op, amplitudes)
        if out.shape != amplitudes.shape or out.dtype != dtype or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {dtype} vector of shape "
                             f"{amplitudes.shape}")
        if np.shares_memory(out, amplitudes):
            raise ValueError("out overlaps the input vector")
    if post == 1:  # one (pre x dim) product beats a batch of length-dim columns
        res = np.matmul(amplitudes.reshape(pre, dim), op.T,
                        out=None if out is None else out.reshape(pre, dim))
    else:
        res = np.matmul(op, amplitudes.reshape(pre, dim, post),
                        out=None if out is None else out.reshape(pre, dim, post))
    return res.reshape(-1) if out is None else out


def _real_or_raise(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise NumericalConsistencyError(f"{what} has imaginary part {value.imag:.3e}")
    return float(value.real)


def _check_inputs(n: int, x, bob_inputs, z) -> tuple[int, list[int], int]:
    """The correlators' input contract, and their one decoder: 1-based edge inputs
    and n-1 central inputs, as plain ints.  Numpy integers are accepted; bools
    (``np.True_`` too) and non-integers (``1.0`` too) are refused."""
    def valid(v, top):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool) and 1 <= v <= top
    if not (valid(x, n) and valid(z, n)):
        raise IndexError(f"edge inputs must lie in 1..{n}")
    if len(bob_inputs) != n - 1 or not all(valid(y, 2) for y in bob_inputs):
        raise ShapeError(f"need {n - 1} central inputs from {{1,2}}")
    return int(x), [int(y) for y in bob_inputs], int(z)


def correlator_dense(model: QuantumModel, x: int, bob_inputs, z: int) -> float:
    """<A_x B^1_{y_1} ... B^(n-1)_{y_(n-1)} C_z> by direct statevector application.

    x, z and the bob inputs are 1-based, matching the term conventions.
    """
    n, lay = model.n, model.layout
    x, bob_inputs, z = _check_inputs(n, x, bob_inputs, z)
    total = lay.total_qubits
    amp = model.state.amplitudes
    phi = apply_to_slot(amp, model.alice[x - 1].matrix, *lay.alice_slot(), total)
    for t in range(1, n):
        phi = apply_to_slot(phi, model.bobs[t - 1][bob_inputs[t - 1] - 1].matrix,
                            *lay.bob_slot(t), total)
    phi = apply_to_slot(phi, model.charlie[z - 1].matrix, *lay.charlie_slot(), total)
    return _real_or_raise(np.vdot(amp, phi), "correlator")


def term_vectors(model: QuantumModel):
    """B_i|psi> for every term i, B_i the central operators it reads, by statevector application.

    A depth-first walk over the term table, in its row order: level t holds
    B^t ... B^1|psi> for the current row's leading inputs, and each row
    recomputes only the levels after the first input that differs from the
    previous row.  Every vector is the float sequence of applying the term's
    central operators one by one to |psi>.

    The walk holds at most three state vectors besides the amplitudes, in
    buffers allocated once per call: a work buffer and the kept levels, the n-2
    leading ones up to n = 5 and two above, where the rest of each term folds
    through a second work buffer.  Level 1 lives in the work buffer too, except
    at n = 3, so it is rebuilt with level 2.  The yielded vector is a view of
    those buffers, valid until the next step; the caller may overwrite it.
    """
    n, lay = model.n, model.layout
    total = lay.total_qubits
    amp = model.state.amplitudes
    keep = n - 2 if n <= 5 else 2
    work = [np.empty_like(amp) for _ in range(min(2, n - 1 - keep))]
    shared = keep > 1  # level 1 lives in the work buffer, except at n = 3
    levels = work[:shared] + [np.empty_like(amp) for _ in range(keep - shared)]

    def central(t, row, src, dst):
        return apply_to_slot(src, model.bobs[t][row[t]].matrix, *lay.bob_slot(t + 1), total,
                             out=dst)

    prev = [-1] * keep
    for row in build_encoding(n).central.tolist():
        first = next((t for t in range(keep) if row[t] != prev[t]), keep)
        if first == 1 and shared:  # level 1 was overwritten
            first = 0
        for t in range(first, keep):
            central(t, row, levels[t - 1] if t else amp, levels[t])
        prev = row
        phi_b = levels[-1] if keep else amp
        for t in range(keep, n - 1):
            phi_b = central(t, row, phi_b, work[(t - keep) % 2])
        yield phi_b


def edge_blocks(model: QuantumModel, ya, yc):
    """(Y^A_i (x) Y^C_i)|psi> for every term i, as column blocks of the state's (d, rest) view.

    Yields one iterator per term, of (cols, block) pairs: block is the vector's
    [:, cols] part, Y^A_i times the state's columns (strided BLAS), then its rows
    of d times Y^C_i^T.  A block is a power of two of columns, so every BLAS tile
    is full and each entry has the bits of ``apply_to_slot`` on the whole vector.
    The two block buffers, allocated once per call, take at most
    ``_EDGE_BLOCK_BYTES`` and, from 64 columns on, a 16th of the state vector
    each; ``block`` is valid until the next step.
    """
    d = model.layout.link_dim
    view = model.state.amplitudes.reshape(d, -1)
    rest = view.shape[1]
    # columns; at least 64 (or the whole row), a margin over any BLAS tile width
    budget = max(64, min(_EDGE_BLOCK_BYTES // (16 * d), rest // 16))
    width = min(rest, 1 << (budget.bit_length() - 1))
    part, block = np.empty((2, d, width), dtype=complex)

    def blocks(y_a, y_c):
        for start in range(0, rest, width):
            cols = slice(start, start + width)
            np.matmul(y_a, view[:, cols], out=part)
            np.matmul(part.reshape(-1, d), y_c.T, out=block.reshape(-1, d))
            yield cols, block

    for y_a, y_c in zip(ya, yc):
        yield blocks(y_a, y_c)


# ---------------------------------------------------------------------------
# chain-contraction evaluator
#
# Per-term quantities carry a term axis: edge sums and environments are
# (..., terms, d, d), or rows (..., terms, d^2) in a slot gemm.  Term i reads
# bobs[t][central[i, t]] at central party t+1 (``central``: the term table's
# 0-based inputs).  Every route is one of two folds, one party at a time: left
# environments pushed forward or right ones pulled back, on each link
# <phi| P (x) Q |phi> = tr(P Q^T)/d.  A fold is a row product: each term's
# environment, flattened to a row vec(E_i) of length d^2, times its operator
# with the legs permuted into a (d^2, d^2) transfer matrix, all terms that
# read the operator in one broadcast ``np.matmul`` with a row of length 1 per
# term.  That per-term product is one BLAS call whose float order does not
# depend on how many terms or stacked models share the ``matmul`` call, so a
# stacked fold runs, for each term, the float sequence of a one-term fold.
# (A multi-row gemm would not: a row inside a larger product may differ in
# its last bits from the same row on its own.)  The leading ``...`` axes stack
# independent models (the starts of an ascent): an operator is (D, D) or
# (..., D, D), and environments, operators and weights broadcast against each
# other, each model on its own float sequence.

def _permute_legs(mat: np.ndarray, d: int, legs: tuple) -> np.ndarray:
    """(..., d^2, d^2) matrices with their four d-dim legs (numbered 1..4) in order ``legs``."""
    flat = mat.reshape((-1, d, d, d, d)).transpose((0, *legs))
    return flat.reshape(mat.shape[:-2] + (d * d, d * d))


def _transfer(op, d: int, forward: bool) -> np.ndarray:
    """op's legs permuted into the (d^2, d^2) matrix T of a fold, vec(E') = vec(E) T.

    op has [bra l, bra r, ket l, ket r] legs; a forward (push) fold maps
    (bra l, ket l) to (bra r, ket r), a backward (pull) fold the reverse.
    """
    return _permute_legs(np.asarray(op, dtype=complex), d,
                         (1, 3, 2, 4) if forward else (2, 4, 1, 3))


def _fold(envs: np.ndarray, bobs, central, t: int, d: int, forward: bool) -> np.ndarray:
    """envs through central party t+1, each term through the operator it reads."""
    mats = [_transfer(op, d, forward)[..., None, :, :] for op in bobs[t]]
    batch = np.broadcast_shapes(envs.shape[:-3], *(m.shape[:-3] for m in mats))
    rows = envs.reshape(envs.shape[:-2] + (1, d * d))
    out = np.empty(batch + rows.shape[-3:], dtype=complex)
    for y, mat in enumerate(mats):
        m = central[:, t] == y
        out[..., m, :, :] = np.matmul(rows[..., m, :, :], mat)
    return out.reshape(out.shape[:-2] + (d, d))


def push(lefts: np.ndarray, bobs, central, d: int) -> np.ndarray:
    """Left environments pushed forward through every central party."""
    lefts = np.asarray(lefts, dtype=complex)
    for t in range(central.shape[1]):
        lefts = _fold(lefts, bobs, central, t, d, forward=True)
    return lefts


def pull(rights: np.ndarray, bobs, central, d: int) -> list[np.ndarray]:
    """envs[k] = right environments pulled back through central parties k+1..n-1."""
    envs = [np.asarray(rights, dtype=complex)]
    for t in reversed(range(central.shape[1])):
        envs.append(_fold(envs[-1], bobs, central, t, d, forward=False))
    return envs[::-1]


def close(lefts: np.ndarray, rights: np.ndarray, d: int, n: int) -> np.ndarray:
    """Chain values from full left environments and the right edge operators."""
    return np.einsum("...iab,...iab->...i", lefts, rights) / d ** n


def _slot_gemm(lefts: np.ndarray, rights: np.ndarray, d: int, n: int) -> np.ndarray:
    """W = sum_k G_k, tr(B G_k) = <L_k (x) B (x) R_k>: one gemm L^T R over rows vec(E_k)."""
    w = np.matmul(lefts.reshape(*lefts.shape[:-2], d * d).swapaxes(-1, -2),
                  rights.reshape(*rights.shape[:-2], d * d))
    return _permute_legs(w, d, (2, 4, 1, 3)) / d ** n  # [ket l, ket r, bra l, bra r]


def term_expectations(lefts, rights, bobs, central, d: int) -> np.ndarray:
    """<L_i (x) B_i (x) R_i> for every term i, B_i the central operators it reads.

    With L_i = Y^A_i and R_i = Y^C_i the values are the J_i.
    """
    return close(push(lefts, bobs, central, d), rights, d, central.shape[1] + 1)


def _one_chain(edge_mat, bob_mats):
    """A single chain in the folds' one-term layout: (edge stack, bobs, central)."""
    return (np.asarray(edge_mat, dtype=complex)[None], [[b] for b in bob_mats],
            np.zeros((1, len(bob_mats)), dtype=np.int64))


def chain_expectation(a_mat: np.ndarray, bob_mats, c_mat: np.ndarray, d: int) -> complex:
    """<a (x) bobs (x) c> on a chain of maximally entangled links of dimension d."""
    lefts, bobs, central = _one_chain(a_mat, bob_mats)
    return term_expectations(lefts, _one_chain(c_mat, [])[0], bobs, central, d)[0]


def bob_slot_matrix(a_mat, bob_mats_before, bob_mats_after, c_mat, d: int,
                    n: int) -> np.ndarray:
    """G with <chain> = tr(B G) when central operator B is left open: a one-term slot gemm."""
    return _slot_gemm(push(*_one_chain(a_mat, bob_mats_before), d),
                      pull(*_one_chain(c_mat, bob_mats_after), d)[0], d, n)


def edge_slot_matrix(side: str, bob_mats, other_edge_mat, d: int, n: int) -> np.ndarray:
    """G with <chain> = tr(E G) when one edge operator E is left open."""
    if side == "alice":
        env = pull(*_one_chain(other_edge_mat, bob_mats), d)[0]
    elif side == "charlie":
        env = push(*_one_chain(other_edge_mat, bob_mats), d)
    else:
        raise ValueError("side must be 'alice' or 'charlie'")
    return env[0].T / d ** n


def require_bell_chain(state):
    """Raise UnsupportedStateError unless chain contraction describes the state."""
    if not isinstance(state, BellChainState):
        raise UnsupportedStateError(
            "chain contraction requires a product-of-Bell-links state; "
            "use the dense evaluator for general states")


def correlator_contracted(model: QuantumModel, x: int, bob_inputs, z: int) -> float:
    """Same contract as correlator_dense, evaluated by chain contraction."""
    require_bell_chain(model.state)
    n, d = model.n, model.layout.link_dim
    x, bob_inputs, z = _check_inputs(n, x, bob_inputs, z)
    bobs = [[o.matrix for o in pair] for pair in model.bobs]
    val = term_expectations(model.alice[x - 1].matrix[None], model.charlie[z - 1].matrix[None],
                            bobs, np.array([bob_inputs], dtype=np.int64) - 1, d)[0]
    return _real_or_raise(val, "correlator")


def _resolve_evaluator(model: QuantumModel, evaluator: str) -> str:
    if evaluator == "auto":
        if (isinstance(model.state, BellChainState)
                and model.layout.total_qubits > AUTO_DENSE_QUBIT_LIMIT):
            return "contracted"
        return "dense"
    if evaluator not in ("dense", "contracted"):
        raise ValueError(f"unknown evaluator {evaluator!r}")
    return evaluator


def term_values(model: QuantumModel, evaluator: str = "auto") -> np.ndarray:
    """J_i = sum_{x,z} signs[i,x] signs[i,z] E(x, central inputs of i, z) for every term.

    Both evaluators read J_i as <Y^A_i (x) B_i (x) Y^C_i>: the dense one as the
    inner product of the ``edge_blocks`` vector, written whole into one buffer,
    with the ``term_vectors`` vector; the contracted one by chain contraction.
    """
    ya, yc = edge_sums(model.n, model.alice, model.charlie)
    if _resolve_evaluator(model, evaluator) == "contracted":
        require_bell_chain(model.state)
        bobs = [[o.matrix for o in pair] for pair in model.bobs]
        values = term_expectations(ya, yc, bobs, build_encoding(model.n).central,
                                   model.layout.link_dim)
    else:
        phi_t = np.empty_like(model.state.amplitudes)
        rows = phi_t.reshape(model.layout.link_dim, -1)
        values = []
        for phi_b, blocks in zip(term_vectors(model), edge_blocks(model, ya, yc)):
            for cols, block in blocks:
                rows[:, cols] = block
            values.append(np.vdot(phi_t, phi_b))
    return np.array([_real_or_raise(v, f"term {i + 1}") for i, v in enumerate(values)])


def beta_quantum(model: QuantumModel,
                 evaluator: str = "auto") -> tuple[float, list[float]]:
    """beta = sum_i sqrt(|J_i|), with the per-term values."""
    js = term_values(model, evaluator)
    return float(np.sum(np.sqrt(np.abs(js)))), [float(j) for j in js]


# ---------------------------------------------------------------------------
# open-slot functionals (used by the seesaw and the condition fitter)
#
# ``CentralSweep`` keeps the stacked environments through a left-to-right
# pass, so a slot matrix is one gemm over the slot's readers: their weighted
# left environments against their right ones, legs permuted into the slot's
# operator layout.  Stacked models get one gemm each, on the float sequence
# of the model alone.  A cached environment is the float sequence of a fresh
# fold, so cached and fresh values are equal bit for bit.

def signed_sums(signs: np.ndarray, mats) -> np.ndarray:
    """Y_i = sum_x signs[i, x] M_x for every term: the signed edge combinations.

    Each M_x is (d, d) or a stack (..., d, d); the sums are (..., terms, d, d).
    """
    return np.einsum("ix,x...ab->...iab", signs, np.asarray(mats))


def edge_sums(n: int, alice, charlie) -> tuple[np.ndarray, np.ndarray]:
    """(Y^A_i, Y^C_i) for every term i from the edge observables or their matrices."""
    signs = build_encoding(n).signs
    mats = [[o.matrix if isinstance(o, Observable) else o for o in ops]
            for ops in (alice, charlie)]
    return signed_sums(signs, mats[0]), signed_sums(signs, mats[1])


class CentralSweep:
    """Every term's environments through one left-to-right pass over the central slots.

    ``right[t][i]``, what slot t closes against, is rights[i] pulled back
    through term i's operators after party t+1: n-2 folds of ``bobs`` as they
    stand at construction, each level released once ``advance`` passes it.
    ``left[i]`` is lefts[i] pushed through the parties already passed.  The
    caller may change ``bobs[t][y]`` (in place) while the sweep is at party
    t+1 and calls ``advance(t)`` once it moves on; after the last party
    ``left`` holds the full left environments.  ``refold`` closes a candidate
    in slot (t, y) there: one fold through its operator, then ``right[t]``.
    Stacked models sweep together: the term axis is -3 of every environment,
    with the model axes before it.
    """

    def __init__(self, lefts, rights, bobs, central, d: int):
        self.bobs, self.central, self.d = bobs, central, d
        self.n = central.shape[1] + 1
        self.left = np.asarray(lefts, dtype=complex)
        self.right = pull(rights, bobs[1:], central[:, 1:], d)

    def readers(self, t: int, y: int) -> np.ndarray:
        """The terms whose central party t+1 reads input y."""
        return np.flatnonzero(self.central[:, t] == y)

    def slot_matrix(self, t: int, y: int, weights) -> np.ndarray:
        """W = sum_i weights[i] G_i over the readers of slot (t, y).

        G_i is term i's open-slot matrix, so an operator B placed in the slot
        gives tr(B W) = sum_i weights[i] <L_i (x) B_i (x) R_i>: one
        ``_slot_gemm`` over the readers' weighted left environments.
        """
        i = self.readers(t, y)
        left = np.asarray(weights)[..., i, None, None] * self.left[..., i, :, :]
        return _slot_gemm(left, self.right[t][..., i, :, :], self.d, self.n)

    def refold(self, t: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """Readers of slot (t, y) and their chain values with its new operator, closed there."""
        i = self.readers(t, y)
        lefts = _fold(self.left[..., i, :, :], [[self.bobs[t][y]]],
                      np.zeros((i.size, 1), dtype=np.int64), 0, self.d, forward=True)
        return i, close(lefts, self.right[t][..., i, :, :], self.d, self.n)

    def advance(self, t: int):
        """Push every left environment through its operator of party t+1; drop ``right[t]``."""
        self.left = _fold(self.left, self.bobs, self.central, t, self.d, forward=True)
        self.right[t] = None


def dichotomic_projection(hermitian: np.ndarray) -> np.ndarray:
    """Nearest dichotomic observable: replace eigenvalues by their signs.

    Zero eigenvalues round to +1 so the output is deterministic.  A stack
    (..., D, D) is projected matrix by matrix.
    """
    w, v = np.linalg.eigh((hermitian + hermitian.conj().swapaxes(-1, -2)) / 2)
    signs = np.where(w >= 0, 1.0, -1.0)
    return (v * signs[..., None, :]) @ v.conj().swapaxes(-1, -2)


def random_dichotomic(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Sign-of-eigenvalues of a standard complex-normal Hermitian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return dichotomic_projection((g + g.conj().T) / 2)


# ---------------------------------------------------------------------------
# reduced states and serialization

def reduced_density(state: NetworkState | BellChainState, start: int, count: int) -> np.ndarray:
    """Reduced density matrix on the contiguous qubit block [start, start+count)."""
    total = state.layout.total_qubits
    pre, dim, post = 2 ** start, 2 ** count, 2 ** (total - start - count)
    psi = state.amplitudes.reshape(pre, dim, post)
    return np.einsum("paq,pbq->ab", psi, psi.conj())


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]


def _matrix_from_pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def model_to_json_dict(model: QuantumModel) -> dict:
    return {
        "n": model.n,
        "qubits_per_half": model.layout.qubits_per_half,
        "alice": [_matrix_to_pairs(o.matrix) for o in model.alice],
        "bobs": [[_matrix_to_pairs(o.matrix) for o in pair] for pair in model.bobs],
        "charlie": [_matrix_to_pairs(o.matrix) for o in model.charlie],
    }


def model_from_json_dict(data: dict) -> QuantumModel:
    """Inverse of ``model_to_json_dict``; a missing or malformed field raises ShapeError."""
    if not isinstance(data, dict):
        raise ShapeError(f"model must be a JSON object, got {type(data).__name__}")

    def field(name, parse=lambda ms: [_matrix_from_pairs(m) for m in ms]):
        try:
            return parse(data[name])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ShapeError(f"model field {name!r} is missing or malformed: {exc!r}") from None

    def integer(name, low):
        return field(name, lambda value: integer_at_least(name, value, low))

    return make_model(integer("n", 2), field("alice"),
                      field("bobs", lambda pairs: [[_matrix_from_pairs(m) for m in p]
                                                   for p in pairs]),
                      field("charlie"), qubits_per_half=integer("qubits_per_half", 1))
