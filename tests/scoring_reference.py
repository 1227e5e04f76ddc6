"""Reference copy of the optimality check's scoring kernel as it was
written with a broadcast child axis, verbatim: each level multiplies the
demands into ``(rows, nodes, 2, n)`` products and adds the gains through
``(rows, nodes, 2)`` views in one call each.  The tests hold
``verify._batch_utilities``, which computes one child at a time, to it bit
for bit."""

from __future__ import annotations

import numpy as np


def _batch_utilities(a: float, increments, demands, work=None) -> np.ndarray:
    """Expected utility at risk aversion ``a`` of each demand in
    ``demands``, an array of shape ``(batch, nodes, n)`` holding the levels
    of each predictable demand one after another.  Only the terminal gain
    enters the utility, so each level carries the gains forward with the
    recurrence of ``stochastic_integral`` and drops the level before;
    ``increments[k]`` pairs the price increments to the two children of
    each of the nodes of step ``k``.  The stocks are summed in ``np.sum``'s
    order, as the integral sums them, so the gains equal its terminal values
    bit for bit: numpy adds a row shorter than eight in column order, which
    an explicit column loop does many times faster, and pairwise beyond.

    Every level writes into ``work`` (``_score_work``'s buffers for at least
    ``batch`` rows; allocated here if None), so a caller scoring block after
    block reuses one set of pages instead of mapping fresh ones per level."""
    rows, n = len(demands), demands.shape[-1]
    if work is None:
        work = _score_work(rows * 2 * len(increments[-1]), n)
    prod_buf, inc_buf, *gain_bufs = work
    gain = np.zeros((rows, 1))
    start = 0  # the first node of the level in each demand
    for k, dx in enumerate(increments):
        size = 2 * gain.size  # the gains one level down
        prod = np.multiply(demands[:, start:start + len(dx), None, :], dx,
                           out=prod_buf[:size * n].reshape(rows, -1, 2, n))
        start += len(dx)
        if n == 1:
            inc = prod[..., 0]
        elif n < 8:
            inc = np.add(prod[..., 0], prod[..., 1], out=inc_buf[:size].reshape(rows, -1, 2))
            for j in range(2, n):
                np.add(inc, prod[..., j], out=inc)
        else:
            inc = prod.sum(axis=-1, out=inc_buf[:size].reshape(rows, -1, 2))
        gain = np.add(gain[:, :, None], inc,
                      out=gain_bufs[k % 2][:size].reshape(rows, -1, 2)).reshape(rows, -1)
    # -exp(-a * gain) / a, in place
    np.multiply(gain, -a, out=gain)
    np.exp(gain, out=gain)
    np.negative(gain, out=gain)
    np.divide(gain, a, out=gain)
    return np.mean(gain, axis=1)


def _score_work(leaves: int, n: int):
    """Buffers for ``_batch_utilities`` on ``leaves`` leaf gains in all: the
    products of one level, their stock sums and two alternating gains."""
    return np.empty(leaves * n), np.empty(leaves), np.empty(leaves), np.empty(leaves)
