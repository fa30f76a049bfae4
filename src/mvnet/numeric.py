"""Dense float64 tensors on a recorded computation graph, with reverse-mode gradients.

Values are numpy arrays. Every operation appends a node to the owning
:class:`Graph`, so the node list is already topologically ordered; backward
walks it in reverse creation order and accumulates gradients in that fixed
order, which keeps repeated runs bit-identical.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Tensor",
    "NumericError",
    "ShapeError",
    "matmul",
    "matvec",
    "add",
    "add_rowvec",
    "mul",
    "scale",
    "tanh_ew",
    "softmax_vec",
    "concat_rows",
    "unfold",
    "linear",
    "reshape",
    "transpose",
    "max_rows",
    "gather_rows",
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
        self.op = op
        self.detail = detail


def _as_value(value) -> np.ndarray:
    return np.ascontiguousarray(value, dtype=np.float64)


def _require_finite(op: str, value: np.ndarray) -> None:
    # np.sum is non-finite whenever any entry is NaN/Inf; cheap screen first,
    # exact scan only on suspicion (the sum may overflow on its own).
    if not np.isfinite(value.sum()):
        if not bool(np.isfinite(value).all()):
            raise NumericError(f"{op}: result contains non-finite values")


class Tensor:
    """One graph node: a float64 array plus a gradient accumulator."""

    __slots__ = ("graph", "index", "value", "grad", "requires_grad", "op", "name",
                 "_inputs", "_push")

    def __init__(self, graph: "Graph", index: int, value: np.ndarray,
                 requires_grad: bool, op: str, name: str | None = None):
        self.graph = graph
        self.index = index
        self.value = value
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.name = name
        self._inputs: tuple = ()
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
        _require_finite("tensor", arr)
        node = Tensor(self, len(self.nodes), arr, requires_grad, "leaf", name)
        self.nodes.append(node)
        return node

    def _record(self, op: str, value, inputs: tuple, push) -> Tensor:
        arr = np.asarray(value, dtype=np.float64)
        _require_finite(op, arr)
        requires = any(t.requires_grad for t in inputs)
        node = Tensor(self, len(self.nodes), arr, requires, op)
        if requires:
            node._inputs = inputs
            node._push = push
        self.nodes.append(node)
        return node

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Push gradients from a scalar loss back through the graph.

        Returns the gradient of every requires_grad leaf (zeros when the loss
        does not depend on it). Grad slots are cleared first, so calling
        backward twice on the same graph gives bit-identical results.
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
        grads: dict[Tensor, np.ndarray] = {}
        for node in self.nodes:
            if node.op == "leaf" and node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.value)
                grads[node] = node.grad
        return grads


def _accum(tensor: Tensor, grad, own: bool = False) -> None:
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        # First contribution must not alias the upstream gradient buffer.
        if own and isinstance(grad, np.ndarray) and grad.dtype == np.float64:
            tensor.grad = grad
        else:
            tensor.grad = np.array(grad, dtype=np.float64)
    else:
        tensor.grad += grad


def _graph_of(op: str, *tensors: Tensor) -> Graph:
    graph = tensors[0].graph
    for t in tensors[1:]:
        if t.graph is not graph:
            raise NumericError(f"{op}: operands belong to different graphs")
    return graph


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; backward is dA = G @ B^T, dB = A^T @ G."""
    graph = _graph_of("matmul", a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul", f"expected two matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", f"inner dimensions differ: {a.shape} x {b.shape}")
    out = a.value @ b.value

    def push(grad):
        _accum(a, grad @ b.value.T, own=True)
        _accum(b, a.value.T @ grad, own=True)

    return graph._record("matmul", out, (a, b), push)


def matvec(a: Tensor, x: Tensor) -> Tensor:
    """Matrix-vector product (m, n) @ (n,) -> (m,)."""
    graph = _graph_of("matvec", a, x)
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise ShapeError("matvec", f"incompatible shapes {a.shape} and {x.shape}")
    out = a.value @ x.value

    def push(grad):
        _accum(a, np.outer(grad, x.value), own=True)
        _accum(x, a.value.T @ grad, own=True)

    return graph._record("matvec", out, (a, x), push)


def add(a: Tensor, b: Tensor) -> Tensor:
    graph = _graph_of("add", a, b)
    if a.shape != b.shape:
        raise ShapeError("add", f"shapes differ: {a.shape} vs {b.shape}")
    out = a.value + b.value

    def push(grad):
        _accum(a, grad)
        _accum(b, grad)

    return graph._record("add", out, (a, b), push)


def add_rowvec(a: Tensor, b: Tensor) -> Tensor:
    """Add a vector to every row of a matrix."""
    graph = _graph_of("add_rowvec", a, b)
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ShapeError("add_rowvec", f"incompatible shapes {a.shape} and {b.shape}")
    out = a.value + b.value

    def push(grad):
        _accum(a, grad)
        _accum(b, grad.sum(axis=0), own=True)

    return graph._record("add_rowvec", out, (a, b), push)


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


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = a.value * factor

    def push(grad):
        _accum(a, grad * factor, own=True)

    return a.graph._record("scale", out, (a,), push)


def tanh_ew(a: Tensor) -> Tensor:
    """Elementwise tanh; backward uses 1 - tanh(x)^2."""
    out = np.tanh(a.value)

    def push(grad):
        _accum(a, grad * (1.0 - out * out), own=True)

    return a.graph._record("tanh_ew", out, (a,), push)


def softmax_vec(a: Tensor) -> Tensor:
    """Numerically stable softmax of a vector (max subtracted before exp)."""
    if a.ndim != 1 or a.size < 1:
        raise ShapeError("softmax_vec", f"expected a nonempty vector, got {a.shape}")
    shifted = np.exp(a.value - a.value.max())
    out = shifted / shifted.sum()

    def push(grad):
        # dx = y * (g - <g, y>)
        _accum(a, out * (grad - float(grad @ out)), own=True)

    return a.graph._record("softmax_vec", out, (a,), push)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the leading axis; vectors chain, matrices stack rows."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_rows", "empty part list")
    graph = _graph_of("concat_rows", *parts)
    first = parts[0]
    if first.ndim not in (1, 2):
        raise ShapeError("concat_rows", f"expected vectors or matrices, got {first.shape}")
    for p in parts[1:]:
        if p.ndim != first.ndim or p.shape[1:] != first.shape[1:]:
            raise ShapeError(
                "concat_rows",
                f"incompatible part shapes {[tuple(q.shape) for q in parts]}")
    out = np.concatenate([p.value for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def push(grad):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            _accum(p, grad[lo:hi])

    return graph._record("concat_rows", out, tuple(parts), push)


def unfold(a: Tensor, order: int) -> Tensor:
    """Every window of ``order`` consecutive rows, flattened: (rows, d) ->
    (rows - order + 1, order * d); window p is rows p..p+order-1 end to end."""
    if a.ndim != 2:
        raise ShapeError("unfold", f"expected a matrix, got {a.shape}")
    rows, width = a.shape
    if not 1 <= order <= rows:
        raise ShapeError("unfold", f"order {order} invalid for {rows} rows")
    count = rows - order + 1
    # A window is one contiguous run of the row-major buffer, so the windows
    # are every width-th slide of an order*width view over it.
    flat = a.value.reshape(-1)
    out = np.lib.stride_tricks.sliding_window_view(flat, order * width)[::width].copy()

    def push(grad):
        full = np.zeros_like(a.value)
        for k in range(order):
            full[k:k + count] += grad[:, k * width:(k + 1) * width]
        _accum(a, full, own=True)

    return a.graph._record("unfold", out, (a,), push)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map x @ weight^T + bias of a row matrix (n, in) or a vector (in,)
    with weight (out, in); ``bias`` (out,) is optional."""
    inputs = (x, weight) if bias is None else (x, weight, bias)
    graph = _graph_of("linear", *inputs)
    if x.ndim not in (1, 2) or weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ShapeError("linear", f"incompatible shapes {x.shape} and {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError("linear", f"bias {bias.shape} does not match weight {weight.shape}")
    out = x.value @ weight.value.T
    if bias is not None:
        out += bias.value

    def push(grad):
        _accum(x, grad @ weight.value, own=True)
        if x.ndim == 1:
            _accum(weight, np.outer(grad, x.value), own=True)
            if bias is not None:
                _accum(bias, grad)
        else:
            _accum(weight, grad.T @ x.value, own=True)
            if bias is not None:
                _accum(bias, grad.sum(axis=0), own=True)

    return graph._record("linear", out, inputs, push)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError("reshape", f"cannot view {a.shape} as {shape}")
    out = a.value.reshape(shape).copy()

    def push(grad):
        _accum(a, np.asarray(grad).reshape(a.shape))

    return a.graph._record("reshape", out, (a,), push)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError("transpose", f"expected a matrix, got {a.shape}")
    out = a.value.T.copy()

    def push(grad):
        _accum(a, grad.T)

    return a.graph._record("transpose", out, (a,), push)


def max_rows(a: Tensor) -> Tensor:
    """Columnwise maximum over rows; gradient flows to the first maximal row."""
    if a.ndim != 2 or a.shape[0] < 1:
        raise ShapeError("max_rows", f"expected a nonempty matrix, got {a.shape}")
    winners = np.argmax(a.value, axis=0)  # first max per column: deterministic subgradient
    cols = np.arange(a.shape[1])
    out = a.value[winners, cols]

    def push(grad):
        full = np.zeros_like(a.value)
        full[winners, cols] = grad
        _accum(a, full, own=True)

    return a.graph._record("max_rows", out, (a,), push)


def gather_rows(a: Tensor, indices: Iterable[int]) -> Tensor:
    """Select rows by index, repeats allowed; backward scatter-adds."""
    if a.ndim != 2:
        raise ShapeError("gather_rows", f"expected a matrix, got {a.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size == 0:
        raise ShapeError("gather_rows", "empty index list")
    if (idx < 0).any() or (idx >= a.shape[0]).any():
        raise ShapeError("gather_rows", f"row index out of range for {a.shape[0]} rows")
    out = a.value[idx]

    def push(grad):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, grad)
        _accum(a, full, own=True)

    return a.graph._record("gather_rows", out, (a,), push)


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Scalar loss log-sum-exp(logits) - logits[label], computed stably."""
    if logits.ndim != 1 or logits.size < 1:
        raise ShapeError("cross_entropy", f"expected a logit vector, got {logits.shape}")
    label = int(label)
    n = logits.size
    if not 0 <= label < n:
        raise ValueError(f"cross_entropy: label {label} out of range for {n} classes")
    peak = logits.value.max()
    lse = peak + np.log(np.exp(logits.value - peak).sum())
    probs = np.exp(logits.value - lse)
    out = np.asarray(lse - logits.value[label])

    def push(grad):
        d = probs.copy()
        d[label] -= 1.0
        d *= float(grad)
        _accum(logits, d, own=True)

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
