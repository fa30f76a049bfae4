"""Reference forms of fused package ops, kept for the tests that check the
fused ops against them.

``unfold`` made the n-gram windows before ``numeric.pool_windows`` did;
``unstack``, ``compose_views`` and ``stack_views`` are the per-view tape
chain that ``numeric.stack_views`` runs as one node. Their bodies are the
ones the package ran. ``padded`` turns the (ids, validity mask) pair that
``numeric.attend_heads`` once took into the -1 ids it takes now.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from mvnet.config import VARIANT_FULL, VARIANT_NO_LINKS
from mvnet.numeric import ShapeError, Tensor, _accum, concat_rows, linear, tanh_ew


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
