"""Minimal reverse-mode differentiation over dense float64 arrays.

A Tensor wraps a numpy array plus a requires_grad flag. While a Tape is
active (``with Tape() as tape:``), every primitive whose inputs include a
grad-requiring tensor appends one node -- output, inputs, and a closure
producing input gradients from the output gradient -- so record order is a
topological order by construction. ``backward`` walks the tape once in
reverse, accumulating gradients in that fixed order, which makes repeated
runs bit-identical. Without an active tape the same primitives act as plain
numpy evaluation.

Broadcasting is deliberately restricted to scalar-tensor; the row/column
patterns the models need (bias rows, per-row temperature scaling) are
explicit named primitives with hand-written backward rules rather than
implicit numpy broadcasting, so every gradient path stays visible. The one
stacked pattern is matmul with a 3-D left operand: (n, m, k) @ (n, k, p)
multiplies n matrix pairs slice by slice, and (n, m, k) @ (k, p) applies one
matrix to every slice, its gradient summed over the stack. transpose swaps the
last two axes of a 3-D tensor and reshape moves between the flat (n*m, d) and
stacked (n, m, d) views, so a model can batch equal-length sequences through
per-sequence attention without a block-diagonal mask.

Ops do not check their outputs for NaN or infinity: a non-finite value flows
on, and the callers check where it matters. The trainer checks the loss value
and each optimizer group's flat update, the temperature networks their inputs
and outputs, the evaluation passes their results and the checkpoint reader
every stored array.

Tapes are single-owner while recording (the active-tape stack is
thread-local); a finished tape is read-only and may be consumed anywhere.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "Gradients",
    "backward",
    "stop_gradient",
    "finite_diff_check",
    "add",
    "sub",
    "mul",
    "neg",
    "reciprocal",
    "exp",
    "log",
    "relu",
    "logistic",
    "matmul",
    "transpose",
    "reshape",
    "affine",
    "add_rowvec",
    "mul_rowvec",
    "scale_rows",
    "softmax",
    "logsumexp",
    "l2_normalize",
    "mean",
    "sum",
    "concat",
    "gather_rows",
    "embedding_lookup",
]


class Tensor:
    """Dense float64 array with a differentiation flag."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DomainError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


_tape_stack = threading.local()


def _current_tape():
    stack = getattr(_tape_stack, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Ordered operation record; record order is the topological order."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self):
        stack = getattr(_tape_stack, "stack", None)
        if stack is None:
            stack = _tape_stack.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack.stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    @property
    def nodes(self):
        return tuple(self._nodes)


class Gradients:
    """Read-only mapping from parameter tensor to its gradient tensor."""

    def __init__(self):
        self._entries: dict[int, tuple[Tensor, Tensor]] = {}

    def _set(self, param: Tensor, grad: np.ndarray):
        self._entries[id(param)] = (param, Tensor(grad))

    def __getitem__(self, param: Tensor) -> Tensor:
        try:
            return self._entries[id(param)][1]
        except KeyError:
            raise KeyError(f"no gradient recorded for {param!r}") from None

    def __contains__(self, param: Tensor) -> bool:
        return id(param) in self._entries

    def __len__(self):
        return len(self._entries)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    needs = any(t.requires_grad for t in inputs)
    out.requires_grad = needs
    tape = _current_tape()
    if tape is not None and needs:
        tape._nodes.append(_Node(out, inputs, backward_fn))
    return out


def _as_operand(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 0:
        raise DomainError(
            "non-Tensor operands must be python scalars; wrap arrays in Tensor"
        )
    return Tensor(arr)


def _pairwise_shapes(op: str, a: Tensor, b: Tensor):
    """Allow equal shapes or scalar-tensor; anything else is a shape error."""
    if a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise ShapeError(op, a.shape, b.shape)


def _reduce_to(grad: np.ndarray, shape) -> np.ndarray:
    # collapse a broadcast gradient back onto a scalar operand
    if grad.shape == tuple(shape):
        return grad
    return np.asarray(grad.sum(), dtype=np.float64).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_operand(a), _as_operand(b)
    _pairwise_shapes("add", a, b)
    out = a.data + b.data
    return _emit(
        out,
        (a, b),
        lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _as_operand(a), _as_operand(b)
    _pairwise_shapes("sub", a, b)
    out = a.data - b.data
    return _emit(
        out,
        (a, b),
        lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_operand(a), _as_operand(b)
    _pairwise_shapes("mul", a, b)
    out = a.data * b.data
    return _emit(
        out,
        (a, b),
        lambda g: (_reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)),
    )


def neg(x: Tensor) -> Tensor:
    return _emit(-x.data, (x,), lambda g: (-g,))


def reciprocal(x: Tensor) -> Tensor:
    # a non-finite result (division by zero) flows on to the caller's check
    # of its loss, gradients or outputs; the numpy warning would only repeat it
    with np.errstate(divide="ignore"):
        out = 1.0 / x.data
    return _emit(out, (x,), lambda g: (-g * out * out,))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)
    return _emit(out, (x,), lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    return _emit(out, (x,), lambda g: (g / x.data,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def logistic(x: Tensor) -> Tensor:
    d = x.data
    t = np.exp(-np.abs(d))  # in (0, 1]: stable for any magnitude
    out = np.where(d >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return _emit(out, (x,), lambda g: (g * out * (1.0 - out),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 3:
        return _stacked_matmul(a, b)
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError("matmul", a.shape, b.shape)
    if ad.shape[-1] != (bd.shape[0] if bd.ndim else 0):
        raise ShapeError("matmul", a.shape, b.shape)

    def back(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        return g * bd, g * ad  # 1-d dot product, g is scalar

    return _emit(ad @ bd, (a, b), back)


def _stacked_matmul(a: Tensor, b: Tensor) -> Tensor:
    """(n, m, k) @ (n, k, p) slice by slice, or (n, m, k) @ (k, p) shared."""
    ad, bd = a.data, b.data
    if bd.ndim not in (2, 3) or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    if bd.ndim == 3 and bd.shape[0] != ad.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)

    def back(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        if bd.ndim == 3:
            return ga, np.swapaxes(ad, 1, 2) @ g
        k, p = bd.shape
        return ga, ad.reshape(-1, k).T @ g.reshape(-1, p)

    return _emit(ad @ bd, (a, b), back)


def transpose(x: Tensor) -> Tensor:
    """Matrix transpose; a 3-D tensor swaps its last two axes per slice."""
    if x.data.ndim == 3:
        return _emit(
            np.swapaxes(x.data, 1, 2).copy(), (x,), lambda g: (np.swapaxes(g, 1, 2),)
        )
    if x.data.ndim != 2:
        raise ShapeError("transpose", x.shape, x.shape)
    return _emit(x.data.T.copy(), (x,), lambda g: (g.T,))


def reshape(x: Tensor, shape) -> Tensor:
    """Same entries in row-major order under a new shape of equal size."""
    shape = tuple(int(n) for n in shape)
    if min(shape, default=0) < 0 or math.prod(shape) != x.data.size:
        raise ShapeError("reshape", x.shape, shape)
    return _emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """w @ x + b for a vector x; x @ w.T + b (bias per row) for a matrix x."""
    if x.data.ndim == 1:
        return add(matmul(w, x), b)
    return add_rowvec(matmul(x, transpose(w)), b)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError("add_rowvec", x.shape, v.shape)
    return _emit(x.data + v.data, (x, v), lambda g: (g, g.sum(axis=0)))


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError("mul_rowvec", x.shape, v.shape)
    return _emit(
        x.data * v.data,
        (x, v),
        lambda g: (g * v.data, (g * x.data).sum(axis=0)),
    )


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Row i of x times scalar s_i."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[0] != s.shape[0]:
        raise ShapeError("scale_rows", x.shape, s.shape)
    col = s.data[:, None]
    return _emit(
        x.data * col,
        (x, s),
        lambda g: (g * col, (g * x.data).sum(axis=1)),
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _emit(out, (x,), back)


def logsumexp(x: Tensor, axis: int | None = None) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    se = e.sum(axis=axis, keepdims=True)
    out = (m + np.log(se)).reshape(()) if axis is None else np.squeeze(m + np.log(se), axis=axis)
    soft = e / se

    def back(g):
        if axis is None:
            return (g * soft,)
        return (np.expand_dims(g, axis) * soft,)

    return _emit(out, (x,), back)


def l2_normalize(x: Tensor, axis: int = -1, zero_policy: str = "error") -> Tensor:
    """Unit-normalize along axis.

    zero_policy governs vectors with zero norm: "error" rejects them, "keep"
    passes them through unchanged with zero gradient (the only sensible
    subgradient for a vector pinned at the origin).
    """
    if zero_policy not in ("error", "keep"):
        raise DomainError(f"unknown zero_policy {zero_policy!r}")
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    zero = norm == 0.0
    if zero.any():
        if zero_policy == "error":
            raise DomainError("l2_normalize: zero vector along the normalized axis")
        norm = np.where(zero, 1.0, norm)
    out = x.data / norm

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        grad = (g - out * inner) / norm
        return (np.where(zero, 0.0, grad),) if zero.any() else (grad,)

    return _emit(out, (x,), back)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    out = x.data.mean(axis=axis)
    if axis is None:
        count = x.data.size
        back = lambda g: (np.full(x.shape, float(g) / count),)
    else:
        count = x.shape[axis]
        back = lambda g: (np.repeat(np.expand_dims(g / count, axis), count, axis=axis),)
    return _emit(np.asarray(out), (x,), back)


def sum(x: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - op name
    out = x.data.sum(axis=axis)
    if axis is None:
        back = lambda g: (np.full(x.shape, float(g)),)
    else:
        back = lambda g: (np.repeat(np.expand_dims(g, axis), x.shape[axis], axis=axis),)
    return _emit(np.asarray(out), (x,), back)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DomainError("concat needs at least one tensor")
    if axis != 0:
        raise DomainError("concat supports axis=0 only")
    nd = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != nd or t.shape[1:] != tensors[0].shape[1:]:
            raise ShapeError("concat", tensors[0].shape, t.shape)
    sizes = [t.shape[0] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=0)
    return _emit(out, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=0)))


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice out[i] = x[start + i], backward zero-pads."""
    if x.data.ndim < 1:
        raise ShapeError("slice_rows", x.shape, (start, stop))
    n = x.shape[0]
    if not (0 <= start < stop <= n):
        raise DomainError(f"slice_rows: invalid range [{start}, {stop}) for {n} rows")

    def back(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _emit(x.data[start:stop].copy(), (x,), back)


def add_colvec(x: Tensor, v: Tensor) -> Tensor:
    """out[i, j] = x[i, j] + v[i] (one scalar per row)."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[0] != v.shape[0]:
        raise ShapeError("add_colvec", x.shape, v.shape)
    return _emit(
        x.data + v.data[:, None],
        (x, v),
        lambda g: (g, g.sum(axis=1)),
    )


def gather_rows(x: Tensor, idx) -> Tensor:
    """Per-row element pick: out[i] = x[i, idx[i]]."""
    ii = np.asarray(idx)
    if x.data.ndim != 2 or ii.ndim != 1 or ii.shape[0] != x.shape[0]:
        raise ShapeError("gather_rows", x.shape, ii.shape)
    if ii.size and (ii.min() < 0 or ii.max() >= x.shape[1]):
        raise DomainError(f"gather_rows: index out of range for width {x.shape[1]}")
    rows = np.arange(x.shape[0])

    def back(g):
        gx = np.zeros_like(x.data)
        gx[rows, ii] = g
        return (gx,)

    return _emit(x.data[rows, ii], (x,), back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ii = np.asarray(ids)
    if table.data.ndim != 2 or ii.ndim != 1:
        raise ShapeError("embedding_lookup", table.shape, ii.shape)
    if ii.size and (ii.min() < 0 or ii.max() >= table.shape[0]):
        raise DomainError(
            f"embedding_lookup: id out of range for table of {table.shape[0]} rows"
        )

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ii, g)
        return (gt,)

    return _emit(table.data[ii], (table,), back)


def stop_gradient(x: Tensor) -> Tensor:
    """Forward identity that contributes nothing to anything upstream."""
    return Tensor(x.data, requires_grad=False)


def backward(root: Tensor, tape: Tape) -> Gradients:
    """Accumulate gradients of a scalar root over the tape, reverse order.

    Every requires_grad leaf seen on the tape receives a gradient; leaves the
    root never touches get zeros. Accumulation order is fixed by the record
    order, so results are bit-identical across runs.
    """
    if root.data.size != 1:
        raise DomainError(f"backward root must be scalar, got shape {root.shape}")

    produced = {id(node.output) for node in tape.nodes}
    acc: dict[int, np.ndarray] = {id(root): np.ones(root.shape)}

    for node in reversed(tape.nodes):
        g = acc.get(id(node.output))
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for inp, ig in zip(node.inputs, input_grads):
            if not inp.requires_grad:
                continue
            prev = acc.get(id(inp))
            acc[id(inp)] = ig.copy() if prev is None else prev + ig

    grads = Gradients()
    for node in tape.nodes:
        for inp in node.inputs:
            if inp.requires_grad and id(inp) not in produced and inp not in grads:
                grads._set(inp, acc.get(id(inp), np.zeros(inp.shape)))
    return grads


def finite_diff_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    The denominator is max(1, |analytic coordinate|). f must be a pure
    scalar-valued function of x; it is re-evaluated 2*size(x) times.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be > 0, got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True, name=x.name)
    with Tape() as tape:
        out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise DomainError("finite_diff_check needs a scalar-valued function")
    analytic = backward(out, tape)[probe].data

    flat = probe.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f(Tensor(probe.data)).item()
        flat[i] = keep - eps
        lo = f(Tensor(probe.data)).item()
        flat[i] = keep
        fd = (hi - lo) / (2.0 * eps)
        a = analytic.reshape(-1)[i]
        worst = max(worst, abs(a - fd) / max(1.0, abs(a)))
    return worst
