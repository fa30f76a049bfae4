"""Dense float64 tensors on a recorded computation graph, with reverse-mode gradients.

Values are numpy arrays. Every leaf and operation result that needs a
gradient is appended as a node to the owning :class:`Graph`, so the node
list is already topologically ordered; backward walks it in reverse creation
order and accumulates gradients in that fixed order, which keeps repeated
runs bit-identical. A tensor that needs no gradient stays off the tape and
is freed as soon as nothing uses it.

The structural ops accept leading batch axes, so one graph can carry a whole
mini-batch of padded documents. The batched ops ``pool_windows`` and
``attend_heads`` take each text's row ids with -1 past its end and handle
that padding themselves (``softmax_vec`` takes a validity mask instead), so
padding stays out of the result without ever recording an infinite value.
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
    "linear",
    "reshape",
    "transpose",
    "gather_rows",
    "pool_windows",
    "attend_heads",
    "stack_views",
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
    """The tap count, the orders, each filter's first tap, and each tap's
    filter group[t] and window offset shift[t]."""
    group = np.repeat(np.arange(len(orders)), orders)
    layout = (np.array(orders), np.cumsum(orders) - orders, group,
              np.array([j for n in orders for j in range(n)]))
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
    once; a window adds its taps' product rows in tap order, and tanh runs
    on each channel's largest sum alone. Only the first window with that
    sum, per text, filter and channel, gets a gradient; backward finds it,
    so scoring never looks for it.
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
    taps, order, starts, group, shift = _tap_layout(orders)
    # Q[t] is the table through tap t's block; first taps add the bias.
    q = np.empty((taps, rows, width))
    for f, b, n, start in zip(filters, biases, orders, starts):
        np.matmul(table.value, f.value.reshape(width, n, width).transpose(1, 2, 0),
                  out=q[start:start + n])
        q[start] += b.value
    require_finite("pool_windows", q)
    # Every filter slides over the narrowest one's windows; those past its
    # own last window read the last position and are masked out.
    windows = positions - min(orders) + 1
    reads = slots.T[np.minimum(np.arange(max(orders))[:, None] + np.arange(windows),
                               positions - 1)]
    # z[k] adds filter k's taps in tap order. The id check proved every slot
    # in range, so mode="clip" never clips; it lets take fill out= unbuffered.
    z = np.empty((len(orders), windows, batch, width))
    scratch = np.empty((windows, batch, width))
    for zk, n, start in zip(z, orders, starts.tolist()):
        q[start].take(reads[0], axis=0, out=zk, mode="clip")
        for j in range(1, n):
            zk += q[start + j].take(reads[j], axis=0, out=scratch, mode="clip")
    z[np.arange(windows)[:, None] > np.maximum(lengths - order[:, None], 0)[:, None]] = -np.inf
    peak = z.max(axis=1)
    out = np.tanh(peak)  # tanh is non-decreasing, so this is the largest response

    def push(grad):
        # The first window at the peak, a deterministic subgradient, has the largest countdown.
        countdown = np.arange(windows, 0, -1, dtype=np.min_scalar_type(windows))
        winner = windows - ((z == peak[:, None]) * countdown[:, None, None]).max(axis=1)
        dz = grad.reshape(out.shape) * (1.0 - out * out)
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

    return graph._record("pool_windows", out.reshape(-1, width), inputs, push)


def attend_heads(table: Tensor, row_index, transforms: Sequence[Tensor],
                 score_vectors: Sequence[Tensor]) -> tuple[Tensor, np.ndarray]:
    """V soft-attention selections over the rows of ``table`` in one node.

    ``row_index`` (B, R) holds each text's rows of ``table`` (U, d), then -1
    past its end; every text has at least one row. Head v scores a row as
    score_vectors[v] . tanh(transforms[v] @ row), transforms (a, d) and score
    vectors (a,); its weights are the softmax of a text's scores (the -1
    entries get weight exactly 0), its selection the weighted sum of the rows.

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
    valid = idx >= 0
    # The range check is one pass: -1 becomes 0 and a lower index a huge unsigned one.
    if (not heads or len(score_vectors) != heads or not rows or idx.ndim != 2 or not idx.size
            or any(t.shape != (size, width) for t in transforms)
            or any(s.shape != (size,) for s in score_vectors)
            or (idx + 1).view(np.uintp).max() > rows or not valid.any(axis=1).all()):
        raise ShapeError("attend_heads", f"transforms and score vectors must fit table"
                                         f" {table.shape}, and row index {idx.shape}"
                                         f" must be rows of it or -1, with a row in every text")
    # Without a -1 entry no weight needs masking.
    valid = None if valid.all() else valid
    idx = np.maximum(idx, 0)
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


def stack_views(selections: Tensor, combines: Sequence[Tensor]) -> Tensor:
    """The (B, V * d) stack of V views composed from (V, B, d) selections,
    in one node: columns (p - 1) * d .. p * d of a row hold view p.

    Views 1 and V, and all views without ``combines``, are their selections.
    Otherwise combine p - 2, (d, w), makes interior view p = tanh(combine @
    x), x the w buffer columns that end with slot p while it holds selection
    p: w = p * d reads every earlier view, 2 * d the previous one. No input
    is concatenated. Backward walks the views in reverse and adds each input
    gradient into the earlier slots, in the order a tape of per-view
    concatenations, linear maps and tanh nodes sums them.
    """
    graph = _graph_of("stack_views", selections, *combines)
    count, batch, width = selections.shape if selections.ndim == 3 else (0, 0, 0)
    spans = [c.shape[-1] if c.ndim else 0 for c in combines]
    if (not count * batch * width or combines and len(combines) != count - 2
            or any(c.shape != (width, w) or not width <= w <= p * width or w % width
                   for p, (c, w) in enumerate(zip(combines, spans), start=2))):
        raise ShapeError("stack_views", f"combines {[tuple(c.shape) for c in combines]} do"
                                        f" not fit selections {selections.shape}")
    # A copy even at B = 1, where the transposed selections are in C order.
    out = np.array(selections.value.transpose(1, 0, 2), order="C").reshape(batch, -1)
    inner = np.empty((len(combines), batch, width))
    for p, (c, w) in enumerate(zip(combines, spans), start=2):
        np.matmul(out[:, p * width - w:p * width], c.value.T, out=inner[p - 2])
        np.tanh(inner[p - 2], out=out[:, (p - 1) * width:p * width])
    # tanh hides an overflow, so the products are screened before it.
    require_finite("stack_views", inner)

    def push(grad):
        # The node owns ``grad``: it becomes each slot's selection gradient.
        for p, c, w in reversed(list(zip(range(2, count), combines, spans))):
            lo, hi = p * width - w, p * width
            view = out[:, hi - width:hi]
            dz = grad[:, hi - width:hi] * (1.0 - view * view)
            # View p's input in C order, as a concatenation held it: numpy
            # may order a strided product's sums differently (at d = 1).
            rows = out[:, lo:hi].copy()
            rows[:, -width:] = selections.value[p - 1]
            _accum(c, dz.T @ rows, own=True)
            dx = dz @ c.value
            grad[:, lo:hi - width] += dx[:, :-width]
            grad[:, hi - width:hi] = dx[:, -width:]
        # 0 + g, as the tape's per-view adds into a zeroed gradient: -0.0 becomes +0.0.
        _accum(selections, np.add(grad.reshape(batch, count, width).transpose(1, 0, 2), 0.0,
                                  order="C"), own=True)

    return graph._record("stack_views", out, (selections, *combines), push, copied=True)


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
