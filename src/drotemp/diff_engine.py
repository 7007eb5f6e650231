"""Minimal reverse-mode differentiation over dense float64 arrays.

A Tensor wraps a numpy array plus a requires_grad flag. While a Tape is
active (``with Tape() as tape:``), every primitive whose inputs include a
grad-requiring tensor appends one node -- output, inputs, and a closure
producing input gradients from the output gradient -- so record order is a
topological order by construction. ``backward`` walks the tape once in
reverse, accumulating gradients in that fixed order, which makes repeated
runs bit-identical, and returns a plain dict from each grad-requiring leaf
that received a contribution to its gradient array. An absent leaf has a zero
gradient, and the arrays are read-only; ``into`` has it write chosen leaves'
gradients into the caller's arrays (the optimizer's flat buffer). Without an
active tape the same primitives act as plain numpy evaluation.

Broadcasting is deliberately restricted to scalar-tensor; the row/column
patterns the models need (bias rows, per-row temperature scaling) are
explicit named primitives with hand-written backward rules, so every gradient
path stays visible. Each op takes only the shapes the models give it:

- add, sub, mul (equal shapes or a scalar), relu;
- affine (x @ w.T + b, one node; a stacked (n, m, k) x takes no b), so no
  weight is transposed on the tape, and matmul of same-rank operands;
- transpose of a matrix or of stacked keys' last two axes, and reshape
  between the flat (n*m, d) and stacked (n, m, d) views, so equal-length
  sequences batch through per-sequence attention without a block mask;
- sub_colvec (one scalar taken from each row), gather_rows and robust_rows
  (row i's robust loss at tau_i, which every training objective ends in) on
  (n, d) matrices, and embedding_lookup of a matrix's rows;
- tempnet_head, the temperature network's pooling and output map from
  prototypical logits to temperatures, one node;
- softmax along the last axis, l2_normalize along one axis; sum and mean of
  every entry; concat along the first axis.

stop_gradient passes a tensor's values on without a path back to it.
finite_diff_check compares a reverse-mode gradient with the numeric one from
central_difference, which verify also calls.

Ops do not check their outputs for NaN or infinity: a non-finite value flows
on, and the callers check where it matters. The trainer checks the loss value
and each optimizer group's flat update, the temperature networks their inputs
and outputs, the evaluation passes their results and the checkpoint reader
every stored array.

Tapes are single-owner while recording (the active-tape stack is
thread-local); a finished tape is read-only and may be consumed anywhere.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "stop_gradient",
    "finite_diff_check",
    "central_difference",
    "add",
    "sub",
    "mul",
    "relu",
    "matmul",
    "transpose",
    "reshape",
    "affine",
    "sub_colvec",
    "robust_rows",
    "tempnet_head",
    "softmax",
    "l2_normalize",
    "mean",
    "sum",
    "concat",
    "gather_rows",
    "embedding_lookup",
]


class Tensor:
    """Dense float64 array with a differentiation flag. It hashes and compares
    by identity, which keys ``backward``'s gradient dict."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

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
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def named_tensors(params, prefix: str = "") -> tuple:
    """The Tensor fields of a parameter dataclass as (name, tensor) pairs, in
    field order. A field holding a dataclass, or a tuple of them, is walked in
    turn under its dotted path ("image.W1", "blocks.0.Wq"); a config holds no
    Tensor, and any other field is skipped."""
    out = []
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            out.append((prefix + f.name, value))
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                out.extend(named_tensors(item, f"{prefix}{f.name}.{i}."))
        elif dataclasses.is_dataclass(value):
            out.extend(named_tensors(value, f"{prefix}{f.name}."))
    return tuple(out)


_tape_stack = threading.local()


class Tape:
    """Ordered (output, inputs, backward_fn) records; record order is topological."""

    def __init__(self):
        self._nodes: list[tuple] = []

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


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    # every op hands over a float64 array of its own, wrapped as is; only a
    # 0-d ufunc result (a scalar times a scalar) is a numpy scalar
    out = object.__new__(Tensor)
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            stack = getattr(_tape_stack, "stack", None)
            if stack:
                stack[-1]._nodes.append((out, inputs, backward_fn))
            break
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


def relu(x: Tensor) -> Tensor:
    # a NaN input passes through, so the checks downstream still see it.
    # numpy leaves the sign of max(-0.0, 0.0) open; the add makes it +0.0,
    # so the bytes are where(~(x <= 0), x, 0) and out != 0 is its mask
    out = np.maximum(x.data, 0.0)
    out += 0.0
    return _emit(out, (x,), lambda g: (g * (out != 0.0),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, p), or a stacked (n, m, k) @ (n, k, p) slice by slice."""
    ad, bd = a.data, b.data
    if (ad.ndim not in (2, 3) or bd.ndim != ad.ndim or ad.shape[-1] != bd.shape[-2]
            or ad.shape[:-2] != bd.shape[:-2]):
        raise ShapeError("matmul", a.shape, b.shape)
    back = lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)
    return _emit(ad @ bd, (a, b), back)


def transpose(x: Tensor) -> Tensor:
    """Matrix transpose; a 3-D tensor swaps its last two axes per slice."""
    if x.data.ndim not in (2, 3):
        raise ShapeError("transpose", x.shape, x.shape)
    return _emit(x.data.swapaxes(-1, -2).copy(), (x,), lambda g: (g.swapaxes(-1, -2),))


def reshape(x: Tensor, shape) -> Tensor:
    """Same entries in row-major order under a new shape of equal size."""
    shape = tuple(int(n) for n in shape)
    if min(shape, default=0) < 0 or math.prod(shape) != x.data.size:
        raise ShapeError("reshape", x.shape, shape)
    return _emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T, plus b on every row of a matrix x, in one node with the numpy
    operations, and so the bits, of matmul(x, transpose(w)) (+ b); a stacked
    (n, m, k) x shares w across its slices and takes no b."""
    xd, wd = x.data, w.data
    if xd.ndim not in (2, 3) or wd.ndim != 2 or xd.shape[-1] != wd.shape[1]:
        raise ShapeError("affine", x.shape, w.shape)
    if b is not None and (xd.ndim != 2 or b.data.ndim != 1 or b.shape[0] != wd.shape[0]):
        raise ShapeError("affine", x.shape, b.shape)
    (p, k), wt = wd.shape, wd.T.copy()

    def back(g):
        gw = (xd.reshape(-1, k).T @ g.reshape(-1, p)).T
        return (g @ wt.T, gw) if b is None else (g @ wt.T, gw, g.sum(axis=0))

    out = xd @ wt
    return _emit(out, (x, w), back) if b is None else _emit(out + b.data, (x, w, b), back)


def softmax(x: Tensor) -> Tensor:
    """Along the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return _emit(out, (x,), back)


def robust_rows(x: Tensor, taus: Tensor, c: float) -> Tensor:
    """Row i: taus_i * (logsumexp(x_i / taus_i) + c) in one node, with the
    numpy operations, and so the bits, of 1 / taus, row scaling, shifted
    logsumexp, + c and * taus. The taus get a gradient only if they need one."""
    xd, td = x.data, taus.data
    if xd.ndim != 2 or td.ndim != 1 or xd.shape[0] != td.shape[0]:
        raise ShapeError("robust_rows", x.shape, taus.shape)
    # a zero tau's infinite reciprocal flows on to the caller's checks
    with np.errstate(divide="ignore"):
        r = 1.0 / td
    z = xd * r[:, None]
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    se = e.sum(axis=1, keepdims=True)
    s, soft = np.squeeze(m + np.log(se), axis=1) + c, e / se

    def back(g):
        gz = (g * td)[:, None] * soft
        dtaus = g * s + (-(gz * xd).sum(axis=1)) * r * r if taus.requires_grad else None
        return gz * r[:, None], dtaus

    return _emit(td * s, (x, taus), back)


def tempnet_head(u: Tensor, w3: Tensor, phi: Tensor, b: Tensor, rho: float, tau0: float,
                 tau_max: float) -> tuple[Tensor, Tensor]:
    """The temperature network's head on prototypical logits u (n, d2), one
    node: s_i = (sum_k (softmax(u_i / phi)_k - 1/d2) w3_k u_ik - b) / rho and
    tau_i = (tau_max - tau0) sigmoid(s_i) + tau0, with the numpy operations,
    and so the bits, of those ops composed. Returns (s, tau), s on no tape;
    w3, phi and b get a gradient only if they need one."""
    ud, wd = u.data, w3.data
    if ud.ndim != 2 or wd.ndim != 1 or ud.shape[1] != wd.shape[0]:
        raise ShapeError("tempnet_head", u.shape, w3.shape)
    if phi.data.ndim != 0 or b.data.ndim != 0:
        raise ShapeError("tempnet_head", phi.shape, b.shape)
    if float(phi.data) <= 0.0:
        raise DomainError(f"phi must be positive, got {float(phi.data)}")
    r, d2, span = 1.0 / phi.data, wd.shape[0], tau_max - tau0
    z = ud * r
    e = np.exp(z - z.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    centered = soft - 1.0 / d2
    cw = centered * wd
    s = ((cw * ud).sum(axis=1) - b.data) * (1.0 / rho)
    t = np.exp(-np.abs(s))  # in (0, 1]: stable for any magnitude
    sig = np.where(s >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    def back(g):
        gs = g * span * sig * (1.0 - sig) * (1.0 / rho)
        gp = np.repeat(gs[:, None], d2, axis=1)
        gcw, gu = gp * ud, gp * cw
        gw3 = (gcw * centered).sum(axis=0) if w3.requires_grad else None
        gc = gcw * wd
        gz = (gc - (gc * soft).sum(axis=1, keepdims=True)) * soft
        gu += gz * r
        gphi = np.asarray(-(gz * ud).sum() * r * r) if phi.requires_grad else None
        gb = np.asarray((-gs).sum()) if b.requires_grad else None
        return gu, gw3, gphi, gb

    return Tensor(s), _emit(sig * span + tau0, (u, w3, phi, b), back)


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


def mean(x: Tensor) -> Tensor:
    count = x.data.size
    return _emit(
        np.asarray(x.data.mean()), (x,), lambda g: (np.full(x.shape, float(g) / count),)
    )


def sum(x: Tensor) -> Tensor:  # noqa: A001 - op name
    return _emit(np.asarray(x.data.sum()), (x,), lambda g: (np.full(x.shape, float(g)),))


def concat(tensors: list[Tensor]) -> Tensor:
    if not tensors:
        raise DomainError("concat needs at least one tensor")
    nd = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != nd or t.shape[1:] != tensors[0].shape[1:]:
            raise ShapeError("concat", tensors[0].shape, t.shape)
    sizes = [t.shape[0] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=0)
    return _emit(out, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=0)))


def sub_colvec(x: Tensor, v: Tensor) -> Tensor:
    """out[i, j] = x[i, j] - v[i] (one scalar per row)."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[0] != v.shape[0]:
        raise ShapeError("sub_colvec", x.shape, v.shape)
    return _emit(x.data - v.data[:, None], (x, v), lambda g: (g, -g.sum(axis=1)))


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
        # bincount sums each cell's contributions in id order from 0.0, as
        # np.add.at does, at a fraction of its cost
        rows, d = table.shape
        flat = ii.astype(np.intp, copy=False)[:, None] * d + np.arange(d)
        gt = np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=rows * d)
        return (gt.reshape(rows, d),)

    return _emit(table.data[ii], (table,), back)


def stop_gradient(x: Tensor) -> Tensor:
    """Forward identity that contributes nothing to anything upstream."""
    return Tensor(x.data, requires_grad=False)


def backward(root: Tensor, tape: Tape, into: dict | None = None) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar root, from one reverse pass over the tape.

    Returns a plain dict from each grad-requiring leaf that received a
    contribution to its gradient array; a leaf that is absent has a zero
    gradient. A leaf in ``into`` has its gradient written into the array it
    maps to (zeros if it gets none; another shape raises ShapeError). Each
    node's output gradient is popped once the node has used it, so
    intermediates are freed as the walk goes and none is returned. Treat the
    arrays as read-only. Accumulation order is fixed by the record order, so
    results are bit-identical across runs.
    """
    if root.data.size != 1:
        raise DomainError(f"backward root must be scalar, got shape {root.shape}")
    into = {} if into is None else into

    grads: dict[Tensor, np.ndarray] = {root: np.ones(root.shape)}
    for output, inputs, backward_fn in reversed(tape._nodes):
        g = grads.pop(output, None)
        if g is None:
            continue
        for inp, ig in zip(inputs, backward_fn(g)):
            if not inp.requires_grad:
                continue
            prev = grads.get(inp)
            if prev is not None:
                prev += ig  # no op holds a stored array, so the sum is in place
            elif inp in into:
                dest = into[inp]
                if ig.shape != dest.shape:
                    raise ShapeError("backward", ig.shape, dest.shape)
                dest[...] = ig  # written, not added to zeros: keeps a -0.0
                grads[inp] = dest
            elif (type(ig) is np.ndarray and ig.base is None and ig is not g
                  and ig.flags.c_contiguous):
                grads[inp] = ig  # a fresh array that only this dict holds
            else:
                # g itself, a view or a numpy scalar: later matmuls and sums
                # need a C-contiguous array of its own (bytes follow layout)
                grads[inp] = np.array(ig, order="C")
    for leaf, dest in into.items():
        if leaf not in grads:
            dest[...] = 0.0
    return grads


def finite_diff_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    The denominator is max(1, |analytic coordinate|), and a NaN in either
    gradient makes the result NaN. f must be a pure scalar-valued function of
    x; it is re-evaluated 2*size(x) times.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be > 0, got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise DomainError("finite_diff_check needs a scalar-valued function")
    analytic = backward(out, tape).get(probe, np.zeros(probe.shape))
    numeric = central_difference(lambda t: f(t).item(), Tensor(probe.data), eps)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))))


def central_difference(f, x: Tensor, eps: float = 1e-6) -> np.ndarray:
    """The gradient of the float-valued f at x by central differences: each
    entry of x.data in turn moves by +eps and -eps in place, f(x) is called at
    both, and the entry is restored. f may read x.data through another tensor
    that shares it, such as a model's parameter."""
    grad = np.zeros(x.shape)
    flat, out = x.data.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f(x)
        flat[i] = keep - eps
        lo = f(x)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * eps)
    return grad
