"""Reference forms of fused package ops, kept for the tests that check the
fused ops against them.

``unfold`` made the n-gram windows before ``numeric.pool_windows`` did;
``pool_windows`` and its ``_tap_layout`` are that node as it gathered every
window's taps and took tanh before the max; ``unstack``, ``compose_views``
and ``stack_views`` are the per-view tape chain that ``numeric.stack_views``
runs as one node. Their bodies are the ones the package ran. ``padded`` turns the (ids, validity mask) pair that
``numeric.attend_heads`` once took into the -1 ids it takes now.
``_make_doc`` and ``random_label_corpus`` are the synthetic generators as
they drew each filler token with its own scalar ``rng.integers`` call; the
package draws a document's filler run in one sized call and must produce
the same documents.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from mvnet.config import VARIANT_FULL, VARIANT_NO_LINKS, seed_stream
from mvnet.data import LabeledDocument
from mvnet.numeric import (ShapeError, Tensor, _accum, _graph_of, concat_rows, linear,
                           require_finite, tanh_ew)


def unfold(a: Tensor, order: int) -> Tensor:
    """Every window of ``order`` consecutive rows, flattened: (..., rows, d) ->
    (..., rows - order + 1, order * d); window p is rows p..p+order-1 end to
    end, taken separately under each leading batch index."""
    if a.ndim < 2:
        raise ShapeError("unfold", f"expected a matrix, got {a.shape}")
    rows, width = a.shape[-2:]
    if not 1 <= order <= rows:
        raise ShapeError("unfold", f"order {order} invalid for {rows} rows")
    count = rows - order + 1
    # Window p chains rows p, p+1, ..., so the k-th row block of every
    # window is the matrix shifted up by k rows.
    out = np.concatenate([a.value[..., k:k + count, :] for k in range(order)], axis=-1)

    def push(grad):
        full = np.zeros_like(a.value)
        for k in range(order):
            full[..., k:k + count, :] += grad[..., k * width:(k + 1) * width]
        _accum(a, full, own=True)

    return a.graph._record("unfold", out, (a,), push, copied=True)


def padded(ids, valid):
    """``ids`` with -1 wherever ``valid`` is False; ``ids`` as they are when
    ``valid`` is None."""
    return ids if valid is None else np.where(valid, ids, -1)


def unstack(a: Tensor) -> list[Tensor]:
    """The blocks a[0], a[1], ... of the leading axis, one node each; their
    values are views of ``a``'s."""
    if a.ndim < 1:
        raise ShapeError("unstack", f"expected a leading axis, got {a.shape}")

    def part(k):
        def push(grad):
            if a.grad is None:
                a.grad = np.zeros_like(a.value)
            a.grad[k] += grad

        return a.graph._record("unstack", a.value[k], (a,), push, copied=True)

    return [part(k) for k in range(a.shape[0])]


def compose_views(selections: list[Tensor], leaves: Mapping[str, Tensor],
                  variant: str) -> list[Tensor]:
    """Turn per-view selections into view vectors.

    The first and last views are their selections unchanged. Interior view i
    is tanh(leaves["view<i>.combine"] @ inputs) with no bias, where inputs
    concatenate the selection with every earlier view (full) or just the
    previous view (chain). Each selection and view is a (B, d) block.
    """
    count = len(selections)
    if variant == VARIANT_NO_LINKS or count <= 2:
        return list(selections)
    views = [selections[0]]
    for position in range(2, count):  # 1-based interior view numbers
        selection = selections[position - 1]
        if variant == VARIANT_FULL:
            inputs = concat_rows([*views, selection], axis=-1)
        else:
            inputs = concat_rows([views[-1], selection], axis=-1)
        views.append(tanh_ew(linear(inputs, leaves[f"view{position}.combine"])))
    views.append(selections[-1])
    return views


def stack_views(selections: list[Tensor], leaves: Mapping[str, Tensor],
                variant: str) -> Tensor:
    """The classifier's (B, V * d) input from per-view (B, d) selections:
    :func:`compose_views`' views end to end, as the classifier concatenated
    them."""
    views = compose_views(selections, leaves, variant)
    return views[0] if len(views) == 1 else concat_rows(views, axis=-1)


@lru_cache(maxsize=8)
def _tap_layout(orders: tuple[int, ...]):
    """The tap count, the orders, each filter's first tap, each tap's filter
    group[t] and window offset shift[t], and ``group``'s (K, taps) indicator."""
    group = np.repeat(np.arange(len(orders)), orders)
    layout = (np.array(orders), np.cumsum(orders) - orders, group,
              np.array([j for n in orders for j in range(n)]), np.eye(len(orders))[:, group])
    for array in layout:
        array.flags.writeable = False
    return (len(group), *layout)


def pool_windows(table: Tensor, ids, filters: Sequence[Tensor],
                 biases: Sequence[Tensor]) -> Tensor:
    """Max-over-time pooled tanh filter responses of each text of a batch.

    ``ids`` (B, T) holds each text's rows of ``table`` (U, d), then -1 past
    its end, where the text reads row 0, the pad row; ids narrower than the
    widest filter are widened with -1 here. Filter k, (d, n * d) with a (d,)
    bias, maps each window of n consecutive positions to tanh(filter @ rows
    end to end + bias); each channel keeps its largest response over the
    windows p <= max(length - n, 0), so a text shorter than n keeps its
    single padded window. The result is (K * B, d): row k * B + b is text
    b's pool under filter k.

    Each filter's (d, d) block per window offset (tap) multiplies the table
    once. Only the first maximal window of each text, filter and channel,
    found in backward, gets a gradient, so scoring never looks for it.
    """
    inputs = (table, *filters, *biases)
    graph = _graph_of("pool_windows", *inputs)
    slots = np.asarray(ids, dtype=np.intp)
    rows, width = table.shape if table.ndim == 2 else (0, 0)
    orders = tuple(f.size // max(width * width, 1) for f in filters)
    # The id check is one pass: -1 becomes 0 and a lower id a huge unsigned one.
    # Every text reads row 0 once its ids are widened, so the table needs it.
    if (slots.ndim != 2 or not filters or len(filters) != len(biases) or rows == 0
            or any(n < 1 or f.shape != (width, n * width) or b.shape != (width,)
                   for f, b, n in zip(filters, biases, orders))
            or slots.size and (slots + 1).view(np.uintp).max() > rows):
        raise ShapeError("pool_windows", f"filters and biases must fit table {table.shape},"
                                         f" and ids {slots.shape} must be its rows or -1,"
                                         f" which reads row 0, the pad row")
    if slots.shape[1] < max(orders):
        slots = np.hstack([slots, np.full((len(slots), max(orders) - slots.shape[1]), -1)])
    batch, positions = slots.shape
    lengths = (slots >= 0).sum(axis=1)
    slots = np.maximum(slots, 0)
    taps, order, starts, group, shift, member = _tap_layout(orders)
    # Q's row t * U + u is table row u through tap t's block; first taps add the bias.
    q = np.empty((taps, rows, width))
    for f, b, n, start in zip(filters, biases, orders, starts):
        np.matmul(table.value, f.value.reshape(width, n, width).transpose(1, 2, 0),
                  out=q[start:start + n])
        q[start] += b.value
    require_finite("pool_windows", q)
    # Every filter slides over the narrowest one's windows; those past its
    # own last window read the last position and are masked out.
    windows = positions - min(orders) + 1
    reads = (slots.T[np.minimum(shift[:, None] + np.arange(windows), positions - 1)]
             + (rows * np.arange(taps))[:, None, None])
    # The indicator product sums each filter's taps: y is (K, windows, B, d).
    y = np.tanh((member @ np.take(q.reshape(-1, width), reads.reshape(taps, -1), axis=0)
                 .reshape(taps, -1)).reshape(len(orders), windows, batch, width))
    y[np.arange(windows)[:, None] > np.maximum(lengths - order[:, None], 0)[:, None]] = -np.inf
    out = y.max(axis=1).reshape(-1, width)

    def push(grad):
        # First max per channel: a deterministic subgradient.
        winner = np.argmax(y, axis=1)
        top = np.take_along_axis(y, winner[:, None], axis=1)[:, 0]
        dz = grad.reshape(top.shape) * (1.0 - top * top)
        for bias, part in zip(biases, dz.sum(axis=1)):
            _accum(bias, part, own=True)
        # Each tap of a winning window adds to Q's gradient at its text's
        # slot, laid out per filter as the filter's rows viewed as (d * n, d).
        read = slots[np.arange(batch)[:, None], winner[group] + shift[:, None, None]]
        column = ((starts[group] * width + shift)[:, None, None]
                  + np.arange(width) * order[group][:, None, None])
        dq = np.bincount((read * (taps * width) + column).reshape(-1), dz[group].reshape(-1),
                         minlength=q.size).reshape(rows, -1)
        _accum(table, dq @ np.concatenate([f.value.reshape(-1, width) for f in filters]))
        dfilters = dq.T @ table.value
        for f, start, n in zip(filters, starts, orders):
            _accum(f, dfilters[start * width:(start + n) * width].reshape(width, -1), own=True)

    return graph._record("pool_windows", out, inputs, push)


def _make_doc(rng, label: int, noise: list[str], keywords: list[list[str]],
              min_len: int, max_len: int, min_keywords: int, max_keywords: int,
              ) -> LabeledDocument:
    length = int(rng.integers(min_len, max_len + 1))
    tokens = [noise[int(rng.integers(len(noise)))] for _ in range(length)]
    plant = int(rng.integers(min_keywords, max_keywords + 1))
    for _ in range(plant):
        word = keywords[label][int(rng.integers(len(keywords[label])))]
        tokens.insert(int(rng.integers(len(tokens) + 1)), word)
    return LabeledDocument(label=label, tokens=tokens, raw=" ".join(tokens))


def random_label_corpus(size: int = 50, num_classes: int = 4,
                        vocab_size: int = 30, min_len: int = 5,
                        max_len: int = 10, seed: int = 0,
                        ) -> list[LabeledDocument]:
    """Documents of random tokens with labels drawn independently of the text;
    learnable only by memorization."""
    rng = seed_stream(seed, "data")
    words = [f"token{i:02d}" for i in range(vocab_size)]
    docs = []
    for _ in range(size):
        length = int(rng.integers(min_len, max_len + 1))
        tokens = [words[int(rng.integers(vocab_size))] for _ in range(length)]
        label = int(rng.integers(num_classes))
        docs.append(LabeledDocument(label=label, tokens=tokens, raw=" ".join(tokens)))
    return docs
