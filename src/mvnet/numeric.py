"""Dense float64 tensors on a recorded computation graph, with reverse-mode gradients.

Values are numpy arrays. Every leaf and operation result that needs a
gradient is appended as a node to the owning :class:`Graph`, so the node
list is already topologically ordered; backward walks it in reverse creation
order and accumulates gradients in that fixed order, which keeps repeated
runs bit-identical. A tensor that needs no gradient stays off the tape and
is freed as soon as nothing uses it.

The structural ops accept leading batch axes, so one graph can carry a whole
mini-batch of padded documents: ``softmax_vec`` and ``attend_heads`` take a
validity mask and ``pool_windows`` reads each text's length from its row
ids, so padding stays out of the result without ever recording an infinite
value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Tensor",
    "NumericError",
    "ShapeError",
    "require_finite",
    "matvec",
    "mul",
    "tanh_ew",
    "softmax_vec",
    "concat_rows",
    "unfold",
    "linear",
    "reshape",
    "transpose",
    "gather_rows",
    "pool_windows",
    "attend_heads",
    "unstack",
    "cross_entropy",
    "sum_all",
    "mean_scalars",
    "finite_diff_check",
]


class NumericError(RuntimeError):
    """An operation received or produced invalid values."""


class ShapeError(NumericError):
    """Operand dimensions are incompatible with the requested operation."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")


def _as_value(value) -> np.ndarray:
    return np.ascontiguousarray(value, dtype=np.float64)


def require_finite(op: str, value: np.ndarray, what: str = "result") -> None:
    # isfinite does no arithmetic: unlike a screening sum, it cannot
    # overflow or meet inf - inf, so it never warns before the raise.
    if not np.isfinite(value).all():
        raise NumericError(f"{op}: {what} contains non-finite values")


class Tensor:
    """One graph node: a float64 array plus a gradient accumulator."""

    __slots__ = ("graph", "value", "grad", "requires_grad", "op", "name", "_push")

    def __init__(self, graph: "Graph", value: np.ndarray,
                 requires_grad: bool, op: str, name: str | None = None):
        self.graph = graph
        self.value = value
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.name = name
        self._push: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    @property
    def size(self) -> int:
        return self.value.size

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Tensor({label}, shape={self.value.shape})"


class Graph:
    """Ordered record of tensor operations for one forward/backward pass."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def tensor(self, value, requires_grad: bool = False,
               name: str | None = None) -> Tensor:
        """Create a leaf node; float64 C-order input arrays are wrapped, not copied."""
        arr = _as_value(value)
        require_finite("tensor", arr)
        return self.parameter(arr, requires_grad, name)

    def parameter(self, value, requires_grad: bool = False, name: str | None = None) -> Tensor:
        """:meth:`tensor` without the non-finite screen, for an array screened
        where it was made or last changed, such as a model parameter."""
        node = Tensor(self, _as_value(value), requires_grad, "leaf", name)
        if requires_grad:
            self.nodes.append(node)
        return node

    def _record(self, op: str, value, inputs: tuple, push, copied: bool = False) -> Tensor:
        """Wrap an op's result. ``copied`` marks a result whose entries are
        all copied from its inputs, which were screened when they were made,
        so it skips the non-finite screen."""
        arr = np.asarray(value, dtype=np.float64)
        if not copied:
            require_finite(op, arr)
        requires = any(t.requires_grad for t in inputs)
        node = Tensor(self, arr, requires, op)
        if requires:
            node._push = push
            self.nodes.append(node)
        return node

    def release(self) -> None:
        """Drop the recorded nodes. Every node refers back to its graph, so a
        graph with nodes is a reference cycle that only the cyclic collector
        frees; released, its tensors go as soon as nothing else holds them.
        A graph that records nothing needs no release."""
        self.nodes.clear()

    def backward(self, loss: Tensor) -> None:
        """Push gradients from a scalar loss back through the graph.

        Afterwards every requires_grad leaf holds its gradient in ``grad``
        (zeros when the loss does not depend on it). Grad slots are cleared
        first, so calling backward twice on the same graph gives
        bit-identical results. An inner node's gradient is dropped once it
        has been pushed to the node's inputs, so only the leaves keep theirs.
        """
        if loss.graph is not self:
            raise NumericError("backward: loss belongs to a different graph")
        if loss.value.shape != ():
            raise NumericError("backward: loss must be a scalar")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.array(1.0)
        for node in reversed(self.nodes):
            if node.grad is None or node._push is None:
                continue
            node._push(node.grad)
            node.grad = None
        for node in self.nodes:
            if node.op == "leaf" and node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.value)


def _accum(tensor: Tensor, grad, own: bool = False) -> None:
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        # First contribution must not alias the upstream gradient buffer.
        if own and isinstance(grad, np.ndarray) and grad.dtype == np.float64:
            tensor.grad = grad
        else:
            # C order, so the optimizer's flat views of a leaf gradient
            # never copy it (a transposed push hands over a strided view).
            tensor.grad = np.array(grad, dtype=np.float64, order="C")
    else:
        tensor.grad += grad


def _graph_of(op: str, *tensors: Tensor) -> Graph:
    graph = tensors[0].graph
    for t in tensors[1:]:
        if t.graph is not graph:
            raise NumericError(f"{op}: operands belong to different graphs")
    return graph


def matvec(a: Tensor, x: Tensor) -> Tensor:
    """Matrix-vector product (..., m, n) @ (n,) -> (..., m). ``x`` may instead
    carry the leading axes of ``a``, one vector (..., n) per matrix."""
    graph = _graph_of("matvec", a, x)
    batched = x.ndim > 1
    if (a.ndim < 2 or x.ndim < 1 or a.shape[-1] != x.shape[-1]
            or (batched and x.shape[:-1] != a.shape[:-2])):
        raise ShapeError("matvec", f"incompatible shapes {a.shape} and {x.shape}")
    if batched:
        out = (a.value @ x.value[..., None])[..., 0]
    else:
        out = a.value @ x.value

    def push(grad):
        _accum(a, grad[..., None] * x.value[..., None, :], own=True)
        if batched:
            _accum(x, (grad[..., None, :] @ a.value)[..., 0, :], own=True)
        else:
            _accum(x, a.value.reshape(-1, x.shape[0]).T @ grad.reshape(-1), own=True)

    return graph._record("matvec", out, (a, x), push)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    graph = _graph_of("mul", a, b)
    if a.shape != b.shape:
        raise ShapeError("mul", f"shapes differ: {a.shape} vs {b.shape}")
    out = a.value * b.value

    def push(grad):
        _accum(a, grad * b.value, own=True)
        _accum(b, grad * a.value, own=True)

    return graph._record("mul", out, (a, b), push)


def tanh_ew(a: Tensor) -> Tensor:
    """Elementwise tanh; backward uses 1 - tanh(x)^2."""
    out = np.tanh(a.value)

    def push(grad):
        _accum(a, grad * (1.0 - out * out), own=True)

    return a.graph._record("tanh_ew", out, (a,), push)


def softmax_vec(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax over the last axis (max subtracted before
    exp). ``mask``, boolean and of ``a``'s shape, marks the valid entries:
    the others get weight exactly 0; every vector needs one valid entry."""
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError("softmax_vec", f"expected nonempty vectors, got {a.shape}")
    values = a.value
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape or not mask.any(axis=-1).all():
            raise ShapeError("softmax_vec", f"mask {mask.shape} does not leave a "
                                            f"valid entry in every vector of {a.shape}")
        values = np.where(mask, values, -np.inf)  # exp sends the padding to 0
    shifted = np.exp(values - values.max(axis=-1, keepdims=True))
    out = shifted / shifted.sum(axis=-1, keepdims=True)

    def push(grad):
        # dx = y * (g - <g, y>)
        _accum(a, out * (grad - (grad * out).sum(axis=-1, keepdims=True)), own=True)

    return a.graph._record("softmax_vec", out, (a,), push)


def concat_rows(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``. The default leading axis chains vectors
    and stacks matrix rows; under a leading batch axis, ``axis=1`` stacks
    each example's rows and ``axis=-1`` chains its vectors."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_rows", "empty part list")
    graph = _graph_of("concat_rows", *parts)
    first = parts[0]
    if not -first.ndim <= axis < first.ndim:
        raise ShapeError("concat_rows", f"axis {axis} invalid for parts of shape {first.shape}")
    axis %= first.ndim

    def others(shape):
        return shape[:axis] + shape[axis + 1:]

    for p in parts[1:]:
        if p.ndim != first.ndim or others(p.shape) != others(first.shape):
            raise ShapeError(
                "concat_rows",
                f"incompatible part shapes {[tuple(q.shape) for q in parts]}")
    out = np.concatenate([p.value for p in parts], axis=axis)
    offsets = list(accumulate((p.shape[axis] for p in parts), initial=0))
    lead = (slice(None),) * axis

    def push(grad):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            _accum(p, grad[lead + (slice(lo, hi),)])

    return graph._record("concat_rows", out, tuple(parts), push, copied=True)


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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map x @ weight^T + bias of rows x (..., in), a vector or rows
    under any leading axes, with weight (out, in); ``bias`` (out,) is
    optional. All rows go through one matrix product."""
    inputs = (x, weight) if bias is None else (x, weight, bias)
    graph = _graph_of("linear", *inputs)
    if x.ndim < 1 or weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ShapeError("linear", f"incompatible shapes {x.shape} and {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError("linear", f"bias {bias.shape} does not match weight {weight.shape}")
    size_out, size_in = weight.shape
    rows = x.value.reshape(-1, size_in)
    out = rows @ weight.value.T
    if bias is not None:
        out += bias.value
    out = out.reshape(x.shape[:-1] + (size_out,))

    def push(grad):
        flat = grad.reshape(-1, size_out)
        _accum(x, (flat @ weight.value).reshape(x.shape), own=True)
        _accum(weight, flat.T @ rows, own=True)
        if bias is not None:
            _accum(bias, flat.sum(axis=0), own=True)

    return graph._record("linear", out, inputs, push)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError("reshape", f"cannot view {a.shape} as {shape}")
    out = a.value.reshape(shape).copy()

    def push(grad):
        _accum(a, np.asarray(grad).reshape(a.shape))

    return a.graph._record("reshape", out, (a,), push, copied=True)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: every matrix of a batch is transposed."""
    if a.ndim < 2:
        raise ShapeError("transpose", f"expected a matrix, got {a.shape}")
    out = a.value.swapaxes(-1, -2).copy()

    def push(grad):
        _accum(a, grad.swapaxes(-1, -2))

    return a.graph._record("transpose", out, (a,), push, copied=True)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of ``a`` by an index array of any shape, repeats allowed:
    the result has shape ``indices.shape + a.shape[1:]``; backward
    scatter-adds."""
    if a.ndim < 1:
        raise ShapeError("gather_rows", f"expected rows, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        raise ShapeError("gather_rows", "empty index list")
    # One pass: a negative index reads as a huge unsigned one.
    if idx.view(np.uintp).max() >= a.shape[0]:
        raise ShapeError("gather_rows", f"row index out of range for {a.shape[0]} rows")
    out = a.value[idx]

    def push(grad):
        # Stable sort by index, then one reduceat sums each run of repeats.
        flat = idx.reshape(-1)
        order = np.argsort(flat, kind="stable")
        ordered = flat[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        full = np.zeros_like(a.value)
        full[ordered[starts]] = np.add.reduceat(
            grad.reshape((-1,) + a.shape[1:])[order], starts, axis=0)
        _accum(a, full, own=True)

    return a.graph._record("gather_rows", out, (a,), push, copied=True)


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
    its end, where the text reads row 0, the pad row. Filter k, (d, n * d)
    with a (d,) bias, maps each window of n consecutive positions to
    tanh(filter @ rows end to end + bias); each channel keeps its largest
    response over the windows p <= max(length - n, 0), so a text shorter
    than n keeps its single padded window. The result is (K * B, d): row
    k * B + b is text b's pool under filter k.

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
    if (slots.ndim != 2 or not filters or len(filters) != len(biases)
            or any(n < 1 or f.shape != (width, n * width) or b.shape != (width,)
                   for f, b, n in zip(filters, biases, orders))
            or slots.shape[1] < max(orders)
            or slots.size and (slots + 1).view(np.uintp).max() > rows):
        raise ShapeError("pool_windows", f"filters and biases must fit table {table.shape},"
                                         f" and ids {slots.shape} must be its rows, padded"
                                         f" with -1 to the widest window")
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


def attend_heads(table: Tensor, row_index, valid: np.ndarray | None,
                 transforms: Sequence[Tensor],
                 score_vectors: Sequence[Tensor]) -> tuple[Tensor, np.ndarray]:
    """V soft-attention selections over the rows of ``table`` in one node.

    ``row_index`` (B, R) holds each text's rows of ``table`` (U, d);
    ``valid``, boolean (B, R) or None for all valid, marks the entries that
    take part, at least one per text. Head v scores a row as
    score_vectors[v] . tanh(transforms[v] @ row), transforms (a, d) and score
    vectors (a,); its weights are the softmax of a text's valid scores (the
    others get weight exactly 0), its selection the weighted sum of the rows.

    Returns the (V, B, d) selections and the (V, B, R) weights, a plain array
    without gradient. One (V * a, d) product of the stacked transforms scores
    each table row once for all heads, and the rows are mixed through the
    (V * B, U) matrix of each text's weights per row, which backward reuses;
    backward sums repeated rows' score gradients with one ``np.bincount``.
    """
    inputs = (table, *transforms, *score_vectors)
    graph = _graph_of("attend_heads", *inputs)
    idx = np.asarray(row_index, dtype=np.intp)
    rows, width = table.shape if table.ndim == 2 else (0, 0)
    heads = len(transforms)
    size = transforms[0].shape[0] if heads and transforms[0].ndim == 2 else 0
    # The index check is one pass: a negative index reads as a huge unsigned one.
    if (not heads or len(score_vectors) != heads or not rows or idx.ndim != 2 or not idx.size
            or any(t.shape != (size, width) for t in transforms)
            or any(s.shape != (size,) for s in score_vectors)
            or idx.view(np.uintp).max() >= rows):
        raise ShapeError("attend_heads", f"transforms and score vectors must fit table"
                                         f" {table.shape}, and row index {idx.shape}"
                                         f" must be rows of it")
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != idx.shape or not valid.any(axis=1).all():
            raise ShapeError("attend_heads", f"mask {valid.shape} does not leave a valid"
                                             f" entry in every row of {idx.shape}")
    batch = idx.shape[0]
    stacked = np.concatenate([t.value for t in transforms])
    hidden = table.value @ stacked.T
    require_finite("attend_heads", hidden)
    np.tanh(hidden, out=hidden)
    # (U, V * a) viewed per head: scores[v, u] = score_vectors[v] . hidden[u, v].
    per_head = hidden.reshape(rows, heads, size)
    score_rows = np.stack([s.value for s in score_vectors])
    scores = np.einsum("uva,va->vu", per_head, score_rows)
    weights = scores[:, idx]
    if valid is not None:
        weights[:, ~valid] = -np.inf  # exp sends them to 0
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    # Entry (v * B + b, u) sums head v's weights on text b's entries of row u.
    slot = idx + rows * np.arange(heads * batch).reshape(heads, batch, 1)
    mix = np.bincount(slot.reshape(-1), weights.reshape(-1),
                      minlength=heads * batch * rows).reshape(heads * batch, rows)
    out = (mix @ table.value).reshape(heads, batch, width)

    def push(grad):
        flat = grad.reshape(-1, width)
        # A weight's gradient is its selection's gradient . its row.
        dweights = (flat @ table.value.T).reshape(-1)[slot]
        dentries = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        # Entry (v, u) sums head v's score gradients on every entry of row u.
        dscores = np.bincount((idx + rows * np.arange(heads)[:, None, None]).reshape(-1),
                              dentries.reshape(-1), minlength=heads * rows).reshape(heads, rows)
        for s, part in zip(score_vectors, np.einsum("vu,uva->va", dscores, per_head)):
            _accum(s, part, own=True)
        dz = (dscores.T[:, :, None] * score_rows * (1.0 - per_head * per_head)).reshape(rows, -1)
        _accum(table, mix.T @ flat + dz @ stacked, own=True)
        for t, part in zip(transforms, (dz.T @ table.value).reshape(heads, size, width)):
            _accum(t, part, own=True)

    return graph._record("attend_heads", out, inputs, push), weights


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


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the rows of a (B, classes) logit block of the loss
    log-sum-exp(row) - row[label], computed stably; ``labels`` holds B class
    indices. A logit vector with one integer label is the B = 1 case."""
    if logits.ndim not in (1, 2) or logits.size < 1:
        raise ShapeError("cross_entropy", f"expected logit rows, got {logits.shape}")
    n = logits.shape[-1]
    rows = logits.value.reshape(-1, n)
    count = rows.shape[0]
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    if labels.shape != (count,):
        raise ShapeError("cross_entropy", f"{labels.size} labels for {count} logit rows")
    bad = labels[(labels < 0) | (labels >= n)]
    if bad.size:
        raise ValueError(f"cross_entropy: label {int(bad[0])} out of range for {n} classes")
    picked = np.arange(count), labels
    peak = rows.max(axis=1, keepdims=True)
    lse = peak + np.log(np.exp(rows - peak).sum(axis=1, keepdims=True))
    probs = np.exp(rows - lse)
    out = np.asarray((lse[:, 0] - rows[picked]).sum() / count)

    def push(grad):
        d = probs.copy()
        d[picked] -= 1.0
        d *= float(grad) / count
        _accum(logits, d.reshape(logits.shape), own=True)

    return logits.graph._record("cross_entropy", out, (logits,), push)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.value.sum())

    def push(grad):
        _accum(a, np.full_like(a.value, float(grad)), own=True)

    return a.graph._record("sum_all", out, (a,), push)


def mean_scalars(parts: Sequence[Tensor]) -> Tensor:
    """Mean of scalar tensors, summed in list order."""
    parts = list(parts)
    if not parts:
        raise ShapeError("mean_scalars", "empty part list")
    graph = _graph_of("mean_scalars", *parts)
    for p in parts:
        if p.value.shape != ():
            raise ShapeError("mean_scalars", f"expected scalars, got {p.shape}")
    total = 0.0
    for p in parts:
        total += float(p.value)
    count = len(parts)
    out = np.asarray(total / count)

    def push(grad):
        share = float(grad) / count
        for p in parts:
            _accum(p, np.asarray(share))

    return graph._record("mean_scalars", out, tuple(parts), push)


def finite_diff_check(build_loss, params: dict[str, np.ndarray],
                      eps: float = 1e-5) -> float:
    """Worst mismatch between analytic and central-difference gradients.

    ``build_loss(graph, leaves)`` must construct a scalar loss tensor from the
    leaf map and be deterministic. ``params`` arrays are perturbed one
    coordinate at a time and restored. The per-coordinate error is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so it reads as a
    relative error for unit-scale gradients without blowing up near zero.
    """
    graph = Graph()
    leaves = {k: graph.tensor(v, requires_grad=True, name=k) for k, v in params.items()}
    loss = build_loss(graph, leaves)
    graph.backward(loss)
    analytic = {k: np.array(leaves[k].grad, copy=True) for k in params}

    def loss_value() -> float:
        probe = Graph()
        probe_leaves = {k: probe.tensor(v) for k, v in params.items()}
        return float(build_loss(probe, probe_leaves).value)

    worst = 0.0
    for key, array in params.items():
        flat = array.reshape(-1)
        flat_analytic = analytic[key].reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + eps
            upper = loss_value()
            flat[j] = original - eps
            lower = loss_value()
            flat[j] = original
            numeric = (upper - lower) / (2.0 * eps)
            known = flat_analytic[j]
            err = abs(numeric - known) / max(1.0, abs(numeric), abs(known))
            if err > worst:
                worst = err
    return worst
