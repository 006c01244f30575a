"""Per-term chain folds: one row product per term and central party.

The tests' independent reference for the stacked folds of ``chainlock.qcore``:
a stacked fold must run, for each term, exactly this float sequence.  On each
link <phi| P (x) Q |phi> = tr(P Q^T)/d, so a chain of n links is a product of
d x d transfers with one global 1/d^n factor.  A transfer is the environment
flattened to a row times the operator's legs permuted into a d^2 x d^2
matrix, and a slot matrix is one gemm over the terms that read the slot.

The ``einsum_*`` folds contract the same legs with ``einsum``, on their own
float sequence: an oracle for the leg bookkeeping, equal to the row products
up to rounding.  ``dense_term_vectors`` is the reference for the dense term
walk.
"""
import numpy as np

from chainlock.qcore import apply_to_slot


def _legs(op, d):
    """op as [bra left, bra right, ket left, ket right] legs."""
    return np.asarray(op, dtype=complex).reshape(d, d, d, d)


def _row(env, d):
    return np.asarray(env, dtype=complex).reshape(1, d * d)


def push_one(env, ops, d):
    """A left environment pushed forward through the central operators ops."""
    row = _row(env, d)
    for op in ops:  # [bra l, ket l] -> [bra r, ket r]
        row = row @ _legs(op, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return row.reshape(d, d)


def pull_one(env, ops, d):
    """A right environment pulled back through the central operators ops."""
    row = _row(env, d)
    for op in reversed(ops):  # [bra r, ket r] -> [bra l, ket l]
        row = row @ _legs(op, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    return row.reshape(d, d)


def close_one(left, right, d, n):
    """Chain value from a full left environment and the right edge operator."""
    return np.einsum("ab,ab->", left, np.asarray(right, dtype=complex)) / d ** n


def open_one(left, right, d, n):
    """G with <chain> = tr(B G) for the central operator B between two environments."""
    return np.einsum("ab,cd->bdac", left, right).reshape(d * d, d * d) / d ** n


def slot_sum(lefts, rights, weights, d, n):
    """sum_k weights[k] open_one(lefts[k], rights[k]) as one gemm over the terms."""
    x = np.array([w * _row(env, d)[0] for w, env in zip(weights, lefts)])
    w = x.T @ np.array([_row(env, d)[0] for env in rights])
    return w.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d ** n


def chain_value(a, ops, c, d):
    """<a (x) ops (x) c> on a chain of len(ops) + 1 links."""
    return close_one(push_one(a, ops, d), c, d, len(ops) + 1)


def bob_slot(chains, weights, t, d, n):
    """sum_k weights[k] G_k over the chains (a, ops, c), central party t+1 left open."""
    return slot_sum([push_one(a, ops[:t], d) for a, ops, _ in chains],
                    [pull_one(c, ops[t + 1:], d) for _, ops, c in chains], weights, d, n)


def edge_slot(side, ops, other, d, n):
    """Open-slot matrix of Alice's or Charlie's edge operator."""
    env = pull_one(other, ops, d) if side == "alice" else push_one(other, ops, d)
    return env.T / d ** n


def einsum_push(env, ops, d):
    """push_one, contracted by ``einsum``."""
    env = np.asarray(env, dtype=complex)
    for op in ops:
        env = np.einsum("ab,acbd->cd", env, _legs(op, d))
    return env


def einsum_pull(env, ops, d):
    """pull_one, contracted by ``einsum``."""
    env = np.asarray(env, dtype=complex)
    for op in reversed(ops):
        env = np.einsum("cd,acbd->ab", env, _legs(op, d))
    return env


def einsum_slot(lefts, rights, weights, d, n):
    """slot_sum as a sequential sum of weighted open-slot matrices."""
    w = np.zeros((d * d, d * d), dtype=complex)
    for weight, left, right in zip(weights, lefts, rights):
        w += weight * open_one(left, right, d, n)
    return w


def signed_sums(signs, mats):
    """Y_i = sum_x signs[i, x] M_x, added x by x."""
    return [sum(s[x] * mats[x] for x in range(len(mats))) for s in signs]


def dense_term_vectors(model, ya, yc, central):
    """(B_i|psi>, (Y^A_i (x) Y^C_i)|psi>) per row of central, from scratch.

    Each term's operators are applied one by one, each into a fresh vector:
    its central operators in party order, then Y^A_i and Y^C_i.
    """
    lay, amp = model.layout, model.state.amplitudes
    total = lay.total_qubits
    for i, row in enumerate(central):
        phi_b = amp
        for t, y in enumerate(row, start=1):
            phi_b = apply_to_slot(phi_b, model.bobs[t - 1][y].matrix, *lay.bob_slot(t), total)
        phi_t = apply_to_slot(amp, ya[i], *lay.alice_slot(), total)
        yield phi_b, apply_to_slot(phi_t, yc[i], *lay.charlie_slot(), total)
