"""Dense tensors with a reverse-mode autodiff tape.

Values are numpy buffers (float32 for training fixtures, float64 for
gradient checks). Recording happens only inside an active ``Graph``
context; outside of one, operations compute plain values and keep no
history. A graph is single-use: ``backward`` releases the tape as it
runs, so it runs once. Leaf gradients, and those of intermediates the
caller still holds, stay readable through ``grad``.

    with Graph() as g:
        y = (x * x).sum()
    g.backward(y)
    dx = g.grad(x)

Broadcasting follows trailing-dimension alignment; incompatible shapes
raise ``ShapeError``. Mixed float32/float64 operands are rejected, but
``max_``'s VJP divides by int64 tie counts: gradients through it are float64,
and so are those through ``target_logprobs``, whose VJP replays that division.
Layer ops are single nodes over numpy kernels that ``forge.decode`` calls
too; attention, for one, is ``attention`` over ``_attend``. The loss head
``target_logprobs`` is one node as well. Every other op is one the pipeline
records or a test reference uses; ``silu`` and ``swiglu`` share the sigmoid
kernel ``_stable_sigmoid``. ``where`` and ``concat`` are test references
only, since the loss heads that recorded them became single nodes.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class GraphError(RuntimeError):
    """Tape misuse: double backward, cross-graph mixing, bad seed."""


_ACTIVE_GRAPH: list["Graph"] = []


def _current_graph() -> "Graph | None":
    return _ACTIVE_GRAPH[-1] if _ACTIVE_GRAPH else None


class _Node:
    __slots__ = ("op", "input_ids", "vjps", "out")

    def __init__(self, op, input_ids, vjps, out):
        self.op = op
        self.input_ids = input_ids
        # vjps: list of (input node id, fn(grad_out) -> grad contribution)
        self.vjps = vjps
        self.out = out  # weak reference to the recorded output; None for a leaf


class Graph:
    """Append-only tape of operations plus a gradient store keyed by node id.

    Node inputs always precede the node itself, so reverse append order is a valid
    reverse-topological order for backpropagation. A node may list one input
    several times, and backward adds a node's entries in list order.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self._leaf_ids: dict[int, int] = {}  # id(tensor) -> node id
        self._leaf_refs: list[Tensor] = []  # keep leaves alive while bound
        self._consumed = False

    def __enter__(self) -> "Graph":
        if _ACTIVE_GRAPH:
            raise GraphError("a graph is already recording; tapes do not nest")
        _ACTIVE_GRAPH.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_GRAPH.pop()
        return False

    def _bind_leaf(self, t: "Tensor") -> int:
        nid = self._leaf_ids.get(id(t))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(_Node("leaf", (), (), None))
            self._leaf_ids[id(t)] = nid
            self._leaf_refs.append(t)
        return nid

    def _node_id(self, t: "Tensor") -> int:
        """Node id of a tensor on this graph, binding leaves on demand."""
        if t.graph is None:
            return self._bind_leaf(t)
        if t.graph is not self:
            raise GraphError("tensor belongs to a different graph")
        return t.node_id

    def _record(self, op: str, out: "Tensor", vjps) -> None:
        nid = len(self.nodes)
        self.nodes.append(_Node(op, tuple(i for i, _ in vjps), list(vjps), weakref.ref(out)))
        out.graph = self
        out.node_id = nid
        out.requires_grad = True

    def backward(self, seed: "Tensor") -> dict[int, np.ndarray]:
        """Reverse-accumulate gradients from a scalar seed node, releasing the
        tape as it goes: every node's VJPs are dropped as they run, and so is
        each gradient but a leaf's or one a live Tensor still names.

        Returns the gradient store. Raises if the seed is non-scalar, not
        on this graph, or if backward already ran.
        """
        if self._consumed:
            raise GraphError("backward already ran on this graph; its tape is released")
        if seed.graph is not self:
            raise GraphError("seed tensor is not a node of this graph")
        if seed.data.size != 1:
            raise GraphError(f"backward seed must be scalar, got shape {seed.shape}")
        self._consumed = True
        grads = self.grads
        grads[seed.node_id] = np.ones_like(seed.data)
        for nid in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[nid]
            vjps, node.vjps = node.vjps, ()  # the VJPs hold the activations
            g = grads.get(nid) if node.out is None or node.out() is not None else grads.pop(nid, None)
            if g is None:
                continue
            for input_id, vjp in vjps:
                contrib = vjp(g)
                acc = grads.get(input_id)
                grads[input_id] = contrib if acc is None else acc + contrib
        return grads

    def grad(self, t: "Tensor") -> np.ndarray | None:
        """Gradient of the seed with respect to ``t``, or None if unreached."""
        if t.graph is self:
            return self.grads.get(t.node_id)
        nid = self._leaf_ids.get(id(t))
        return self.grads.get(nid) if nid is not None else None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the original (possibly broadcast) shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "graph", "node_id", "__weakref__")

    # make numpy defer mixed ndarray-Tensor arithmetic to our reflected ops
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32 if dtype is None else dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.graph: Graph | None = None
        self.node_id: int = -1

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> np.ndarray | None:
        return self.graph.grad(self) if self.graph is not None else None

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def silu(self):
        return silu(self)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return max_(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def softmax(self, axis=-1):
        return softmax(self, axis)

    def log_softmax(self, axis=-1):
        return log_softmax(self, axis)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if like is not None:
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    keep = isinstance(x, np.ndarray) and x.dtype in (np.float32, np.float64)
    return Tensor(x if keep else np.asarray(x, dtype=np.float32))


def _check_dtypes(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeError(
            f"{op}: mixed dtypes {a.data.dtype.name} and {b.data.dtype.name}; cast explicitly"
        )


def _make(op: str, out_data: np.ndarray, parts) -> Tensor:
    """Build the result tensor, recording a tape node when gradients flow.

    ``parts`` is a list of (input tensor, vjp fn) pairs; entries whose
    tensor does not require grad are dropped from the tape.
    """
    out = Tensor(out_data)
    graph = _current_graph()
    if graph is None:
        return out
    vjps = []
    for t, vjp in parts:
        if t.requires_grad:
            vjps.append((graph._node_id(t), vjp))
    if vjps:
        graph._record(op, out, vjps)
    return out


# -- element-wise primitives ------------------------------------------------


def add(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "add")
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    return _make("add", out, [
        (a, lambda g, sa=a.shape: _unbroadcast(g, sa)),
        (b, lambda g, sb=b.shape: _unbroadcast(g, sb)),
    ])


def sub(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "sub")
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None
    return _make("sub", out, [
        (a, lambda g, sa=a.shape: _unbroadcast(g, sa)),
        (b, lambda g, sb=b.shape: _unbroadcast(-g, sb)),
    ])


def mul(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "mul")
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    ad, bd = a.data, b.data
    return _make("mul", out, [
        (a, lambda g: _unbroadcast(g * bd, ad.shape)),
        (b, lambda g: _unbroadcast(g * ad, bd.shape)),
    ])


def div(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "div")
    try:
        out = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from None
    ad, bd = a.data, b.data
    return _make("div", out, [
        (a, lambda g: _unbroadcast(g / bd, ad.shape)),
        (b, lambda g: _unbroadcast(-g * ad / (bd * bd), bd.shape)),
    ])


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make("neg", -a.data, [(a, lambda g: -g)])


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _make("exp", out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _make("log", np.log(ad), [(a, lambda g: g / ad)])


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _make("sqrt", out, [(a, lambda g: g * 0.5 / out)])


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """exp(min(x, 0)) / (1 + exp(-|x|)) on the whole array: no exponent is positive, and no per-element
    select, which costs more than the arithmetic. ``out=`` keeps an ndarray of x's shape, also 0-d."""
    num, den = np.empty_like(x), np.empty_like(x)
    np.exp(np.minimum(x, 0, out=num), out=num)
    np.exp(np.negative(np.abs(x, out=den), out=den), out=den)
    return np.divide(num, np.add(den, 1, out=den), out=num)


def silu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    sig = _stable_sigmoid(ad)
    out = ad * sig
    return _make("silu", out, [(a, lambda g: g * (sig * (1.0 + ad * (1.0 - sig))))])


def where(cond, a, b) -> Tensor:
    """Element-wise select; ``cond`` is a boolean mask (no gradient flows to it)."""
    mask = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    mask = mask.astype(bool)
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "where")
    try:
        out = np.where(mask, a.data, b.data)
    except ValueError:
        raise ShapeError(
            f"where: shapes {mask.shape}, {a.shape}, {b.shape} do not broadcast"
        ) from None
    zero = out.dtype.type(0)
    # capture shapes, not a and b: a recorded Tensor holds its Graph, which holds this
    return _make("where", out, [
        (a, lambda g, sa=a.shape: _unbroadcast(np.where(mask, g, zero), sa)),
        (b, lambda g, sb=b.shape: _unbroadcast(np.where(mask, zero, g), sb)),
    ])


# -- reductions --------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis, "sum")
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape
    return _make("sum", out, [
        (a, lambda g: _expand_reduced(g, shape, axis, keepdims).copy()),
    ])


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis, "mean")
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]
    shape = a.shape
    return _make("mean", out, [
        (a, lambda g: _expand_reduced(g, shape, axis, keepdims) / count),
    ])


def max_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient splits equally among tied maxima."""
    a = _as_tensor(a)
    _check_axis(a, axis, "max")
    out = a.data.max(axis=axis, keepdims=keepdims)
    ad, shape = a.data, a.shape

    def vjp(g):
        full = out if (axis is None or keepdims) else np.expand_dims(out, axis)
        hit = (ad == full)
        ties = hit.sum(axis=axis, keepdims=True) if axis is not None else hit.sum()
        return _expand_reduced(g, shape, axis, keepdims) * hit / ties

    return _make("max", out, [(a, vjp)])


def _check_axis(a: Tensor, axis, op: str) -> None:
    if axis is None:
        return
    if not isinstance(axis, int) or not (-a.ndim <= axis < max(a.ndim, 1)):
        raise ShapeError(f"{op}: axis {axis} invalid for rank-{a.ndim} tensor")


# -- linear algebra and structure --------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; leading dimensions broadcast as a stacked batch."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    _check_dtypes(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform") from None
    ad, bd = a.data, b.data
    return _make("matmul", out, [
        (a, lambda g: _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)),
        (b, lambda g: _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)),
    ])


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = tuple(np.argsort(axes))
    return _make("transpose", a.data.transpose(axes), [
        (a, lambda g: g.transpose(inverse)),
    ])


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from None
    return _make("reshape", out, [(a, lambda g: g.reshape(old))])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    for t in tensors[1:]:
        _check_dtypes(tensors[0], t, "concat")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in tensors]} do not align on axis {axis}"
        ) from None
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    parts = []
    for i, t in enumerate(tensors):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g, lo=lo, hi=hi):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            return g[tuple(idx)]

        parts.append((t, vjp))
    return _make("concat", out, parts)


def slice_(a: Tensor, key) -> Tensor:
    """Indexing with ints, slices, or an array of distinct row indices;
    gradient scatters back into zeros of a's dtype."""
    a = _as_tensor(a)
    out = a.data[key]
    shape, dtype = a.shape, a.data.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dtype)
        full[key] = g
        return full

    return _make("slice", out, [(a, vjp)])


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along one axis."""
    key = [slice(None)] * a.ndim
    key[axis] = slice(start, start + length)
    return slice_(a, tuple(key))


def _rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, dtype=None) -> np.ndarray:
    """Rotate interleaved (even, odd) pairs of x's last axis by angles whose
    cos and sin broadcast against (..., half), into a C-ordered array (matmul
    bits depend on operand layout) of ``dtype``, x's by default."""
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty(x.shape, dtype=x.dtype if dtype is None else dtype)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def rotate_pairs(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary embedding of x's interleaved channel pairs. The VJP rotates
    back (-sin) into x's dtype, and closes over no Tensor."""
    x = _as_tensor(x)
    dtype, neg_sin = x.data.dtype, -sin
    return _make("rotate_pairs", _rotate_pairs(x.data, cos, sin), [
        (x, lambda g: _rotate_pairs(g, cos, neg_sin, dtype)),
    ])


# -- groups of sequences in one block of rows ------------------------------------


class RowBlock:
    """Where the sequences of a group sit in one flat block of rows.

    Rows are in the order the sequences were given: ``spans[i]`` is sequence
    i's (start, stop) row range. Sequences of equal length form a bucket that
    matmuls and attention treat as one stacked ``(count, length, ...)`` batch,
    so per-row arithmetic matches a separate pass per sequence bit for bit: a
    stacked matmul runs the same gemm per item, while one flat gemm over all
    rows may not. ``buckets`` holds (rows, count, length) per distinct length,
    shortest first; rows indexes the bucket's rows in sequence order, a slice
    when they are contiguous and an int array otherwise.
    """

    __slots__ = ("spans", "buckets")

    def __init__(self, lengths):
        lengths = [int(n) for n in lengths]
        stops = np.cumsum(lengths, dtype=np.int64).tolist()
        self.spans = tuple((b - n, b) for n, b in zip(lengths, stops))
        buckets = []
        for n in sorted(set(lengths)):
            spans = [span for span, m in zip(self.spans, lengths) if m == n]
            a, b = spans[0][0], spans[-1][1]
            rows = slice(a, b) if b - a == n * len(spans) else np.concatenate([np.arange(*span) for span in spans])
            buckets.append((rows, len(spans), n))
        self.buckets = tuple(buckets)


def _fold_spans(block: RowBlock, part) -> np.ndarray:
    """Sum of ``part(start, stop)`` over the sequences, added in reverse
    sequence order: the order in which ``Graph.backward`` adds the
    contributions of separate per-sequence passes to a shared leaf."""
    total = None
    for start, stop in reversed(block.spans):
        c = part(start, stop)
        total = c if total is None else total + c
    return total


def _per_bucket(block: RowBlock, rows: np.ndarray, fn) -> np.ndarray:
    """``fn`` over each bucket's rows viewed as (count, length, width), put
    back as rows; a block of one bucket is reshaped, never copied."""
    if len(block.buckets) == 1:
        _, count, length = block.buckets[0]
        out = fn(rows.reshape(count, length, rows.shape[-1]))
        return out.reshape(count * length, out.shape[-1])
    out = None
    for at, count, length in block.buckets:
        part = fn(rows[at].reshape(count, length, rows.shape[-1]))
        if out is None:
            out = np.empty((len(rows), part.shape[-1]), dtype=part.dtype)
        out[at] = part.reshape(count * length, part.shape[-1])
    return out


def block_matmul(x: Tensor, w: Tensor, block: RowBlock | None = None) -> Tensor:
    """x (rows, k) @ w (k, n), one stacked matmul per bucket of ``block``
    (by default, one sequence holding every row). w's gradient is each
    sequence's ``x_iᵀ @ g_i``, added in reverse sequence order."""
    x, w = _as_tensor(x), _as_tensor(w)
    _check_dtypes(x, w, "block_matmul")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"block_matmul: shapes {x.shape} and {w.shape} do not conform")
    block = block or RowBlock([x.shape[0]])
    xd, wd = x.data, w.data
    return _make("block_matmul", _per_bucket(block, xd, lambda xb: xb @ wd), [
        (x, lambda g: _per_bucket(block, g, lambda gb: gb @ wd.swapaxes(-1, -2))),
        (w, lambda g: _fold_spans(block, lambda a, b: xd[a:b].swapaxes(-1, -2) @ g[a:b])),
    ])


def embedding(weight: Tensor, ids, block: RowBlock | None = None) -> Tensor:
    """Row-gather by integer id; gradient scatter-adds into the table, one
    table per sequence of ``block`` (by default one sequence of every id),
    added in reverse sequence order."""
    weight = _as_tensor(weight)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise ShapeError(f"embedding: id {bad} out of range for table of {weight.shape[0]} rows")
    out = weight.data[ids]
    wshape, dtype = weight.shape, weight.data.dtype
    block = block or RowBlock([len(ids)])

    def vjp(g):
        def scatter(a, b):
            full = np.zeros(wshape, dtype=dtype)
            np.add.at(full, ids[a:b], g[a:b])
            return full

        return _fold_spans(block, scatter)

    return _make("embedding", out, [(weight, vjp)])


# -- layer primitives: one node per op, over a numpy kernel that forge.decode calls.
# Each VJP replays its composite's VJPs with the same expressions, order and casts.


def _rms_norm(x: np.ndarray, g: np.ndarray, eps: float):
    """x / sqrt(mean(x²) + eps) * g over the last axis, and the root; mean as ndarray.mean sums and divides."""
    r = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + x.dtype.type(eps))
    return x / r * g, r


def rms_norm(x: Tensor, g: Tensor, eps: float, block: RowBlock | None = None) -> Tensor:
    """RMSNorm of x (rows, d) or (d,), as ``x / ((x * x).mean(-1, keepdims=True) + eps).sqrt() * g``;
    g's gradient sums each sequence's rows of ``block`` (one by default), in reverse sequence order."""
    x, g = _as_tensor(x), _as_tensor(g)
    _check_dtypes(x, g, "rms_norm")
    if g.ndim != 1 or x.shape[-1] != g.shape[0] or x.ndim > 2:
        raise ShapeError(f"rms_norm: shapes {x.shape} and gain {g.shape} do not conform")
    xd, gd = x.data, g.data
    out, r = _rms_norm(xd, gd, eps)
    block = block or RowBlock([1 if xd.ndim == 1 else len(xd)])
    parts: list = []

    def vjp_x(go):  # x's parts, computed once: the division's, then the square's two
        if not parts:
            gy = go * gd
            gr = _unbroadcast(-gy * xd / (r * r), r.shape)
            sq = np.broadcast_to(gr * 0.5 / r, xd.shape) / xd.shape[-1] * xd
            parts.extend([sq, sq, gy / r])
        return parts.pop()

    def vjp_gain(go):
        prod = (go * (xd / r)).reshape(-1, gd.shape[0])
        return _fold_spans(block, lambda a, b: prod[a:b].sum(axis=0))

    return _make("rms_norm", out, [(x, vjp_x), (x, vjp_x), (x, vjp_x), (g, vjp_gain)])


def _masked_softmax(scores: np.ndarray, mask, scale: float, fill: float):
    """Softmax of scores * scale over the last axis, entries outside the bool ``mask`` (None keeps
    all) set to ``fill``; then the masked scores, their row max, exponentials and row sums."""
    dtype = scores.dtype.type
    s = scores * dtype(scale)
    s = s if mask is None else np.where(mask, s, dtype(fill))
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, s, m, e, total


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask, scale: float, fill: float):
    """Rows (B, t, nh·hs) of rotated query heads q (B, nh, t, hs) attending through ``_masked_softmax``
    over keys and values (B, nkv, s, hs), each KV head serving nh/nkv query heads; then the grouped q,
    transposed k and grouped v that the two products read, and the softmax's arrays."""
    b, nh, t_len, hs = q.shape
    nkv, s_len = k.shape[1], k.shape[2]
    q = q.reshape(b, nkv, nh // nkv, t_len, hs)
    kt = k.reshape(b, nkv, 1, s_len, hs).transpose(0, 1, 2, 4, 3)
    v = v.reshape(b, nkv, 1, s_len, hs)
    soft = _masked_softmax(q @ kt, mask, scale, fill)
    out = soft[0] @ v  # (b, nkv, group, t, hs)
    return out.transpose(0, 3, 1, 2, 4).reshape(b, t_len, nh * hs), q, kt, v, soft


def attention(q: Tensor, k: Tensor, v: Tensor, block: RowBlock, head_size: int, masks, ropes, scale: float,
              fill: float) -> Tensor:
    """Grouped-query attention within each sequence of ``block``, as one node over every bucket. A
    bucket's q rows (count·t, nh·hs) and k, v rows (count·t, nkv·hs) split into heads, q and k rotated
    by its (cos, sin) in ``ropes`` unless that is None, then ``_attend`` under its bool mask in
    ``masks``; both lists hold one entry per bucket. The VJP replays, per bucket, the VJPs of the
    composite (head reshapes and transposes, ``rotate_pairs``, matmuls, scale's mul, ``where``,
    ``softmax``): q's and k's parts rotate back into their dtype, v's keeps numpy's promotion. It
    recomputes the probabilities as ``_masked_softmax`` does, ``e / total``, instead of keeping them."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    for t in (k, v):
        _check_dtypes(q, t, "attention")
    if not len(masks) == len(ropes) == len(block.buckets):
        raise ShapeError(f"attention: {len(masks)} masks and {len(ropes)} ropes for {len(block.buckets)} buckets")
    rows, hs, dtype = q.shape[0], head_size, q.data.dtype.type
    nkv, saved = k.shape[1] // hs, []
    out = np.empty((rows, q.shape[1]), dtype=q.data.dtype)  # _attend's rows keep q's dtype
    for (at, count, t_len), mask, rope in zip(block.buckets, masks, ropes):
        qh, kh, vh = (t.data[at].reshape(count, t_len, -1, hs).transpose(0, 2, 1, 3) for t in (q, k, v))
        if rope is not None:
            qh, kh = _rotate_pairs(qh, *rope), _rotate_pairs(kh, *rope)
        part, qg, kt, vg, (_, s, m, e, total) = _attend(qh, kh, vh, mask, scale, fill)
        out[at] = part.reshape(count * t_len, -1)
        saved.append((qg, kt, vg, e, total, s == m))
    grads: dict = {}

    def vjp(i, g):  # part i of (v, k, q), the composite's backward order; the first call computes all
        if not grads:
            for (at, count, t_len), mask, rope, (qg, kt, vg, e, total, hit) in zip(block.buckets, masks, ropes, saved):
                gb = g[at].reshape(count, t_len, nkv, -1, hs).transpose(0, 2, 3, 1, 4)
                gv, ga = _unbroadcast((e / total).swapaxes(-1, -2) @ gb, vg.shape), gb @ vg.swapaxes(-1, -2)
                gs = (ga / total + np.broadcast_to(_unbroadcast(-ga * e / (total * total), total.shape), e.shape)) * e
                ties = hit.sum(axis=-1, keepdims=True)
                gs = gs + np.broadcast_to(_unbroadcast(-gs, total.shape), e.shape) * hit / ties
                gs = (gs if mask is None else np.where(mask, gs, dtype(0))) * dtype(scale)
                gk = _unbroadcast(qg.swapaxes(-1, -2) @ gs, kt.shape).transpose(0, 1, 2, 4, 3)
                parts = [gv, gk, gs @ kt.swapaxes(-1, -2)]
                if rope is not None:  # rotate_pairs' VJP, into the input dtype
                    parts[1:] = (_rotate_pairs(x.reshape(count, -1, t_len, hs), rope[0], -rope[1], dtype)
                                 for x in parts[1:])
                for j, x in enumerate(parts):  # back to rows through the head transpose's and reshape's VJPs
                    x = x.reshape(count, -1, t_len, hs).transpose(0, 2, 1, 3).reshape(count * t_len, -1)
                    if j not in grads:
                        grads[j] = np.empty((rows, x.shape[-1]), dtype=x.dtype)
                    grads[j][at] = x
            saved.clear()
        return grads.pop(i)

    return _make("attention", out, [(v, lambda g: vjp(0, g)), (k, lambda g: vjp(1, g)), (q, lambda g: vjp(2, g))])


def _swiglu(a: np.ndarray, b: np.ndarray):
    """silu(a) * b."""
    return a * _stable_sigmoid(a) * b


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    """The SwiGLU gate, as the composite ``a.silu() * b`` for a and b of one
    shape: b's part, then a's."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes(a, b, "swiglu")
    ad, bd = a.data, b.data
    out = _swiglu(ad, bd)
    sig = functools.cache(lambda: _stable_sigmoid(ad))  # recomputed on the first VJP call, shared by both
    return _make("swiglu", out, [(b, lambda go: go * (ad * sig())),
                                 (a, lambda go: go * bd * (sig() * (1.0 + ad * (1.0 - sig()))))])


# -- composites ---------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Exponentials normalized along ``axis`` with max-subtraction stabilization."""
    x = _as_tensor(x)
    _check_axis(x, axis, "softmax")
    shifted = sub(x, max_(x, axis=axis, keepdims=True))
    e = exp(shifted)
    return div(e, sum_(e, axis=axis, keepdims=True))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    _check_axis(x, axis, "log_softmax")
    shifted = sub(x, max_(x, axis=axis, keepdims=True))
    return sub(shifted, log(sum_(exp(shifted), axis=axis, keepdims=True)))


def target_logprobs(logits: Tensor, targets, mask=None) -> Tensor:
    """Dense masked product ``log_softmax(logits) * onehot(targets)``, as one node.

    Row i holds log p(targets[i]) at column targets[i] and zeros elsewhere;
    rows outside the boolean ``mask`` are all zero, so no gradient reaches
    them. Sum the last axis for per-row log-probs, or everything for the
    masked total. The product stays dense instead of gathering one entry
    per row because its sums must stay bit-identical to recorded runs: a
    gathered sum moves DPO response totals in the last bits, and GRPO
    trajectories downstream with them.

    The VJP replays the composite's: the logits take the first ``sub``'s part,
    then ``max_``'s, whose division by int64 tie counts makes it float64. It
    keeps the logits and the exponentials, as the composite's ``max_`` and
    ``exp`` did, and rebuilds the one-hot.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(len(targets)) if mask is None else np.flatnonzero(mask)
    cols = targets[rows]
    xd = logits.data
    shape, dtype = xd.shape, xd.dtype
    m = xd.max(axis=-1, keepdims=True)
    out = xd - m
    e = np.exp(out)
    total = e.sum(axis=-1, keepdims=True)
    onehot = np.zeros(shape, dtype=dtype)
    onehot[rows, cols] = 1.0
    np.multiply(np.subtract(out, np.log(total), out=out), onehot, out=out)
    kept = [xd, e] if logits.requires_grad else []  # popped: e by the first part, the logits by the second

    def vjp_sub(g):  # the first sub's part, through the second sub, log, sum and exp
        g_ls = np.zeros(shape, dtype=np.result_type(g.dtype, dtype))  # the one-hot, exact in either dtype
        g_ls[rows, cols] = 1.0
        np.multiply(g, g_ls, out=g_ls)
        g_e = np.broadcast_to(_unbroadcast(-g_ls, total.shape) / total, shape).copy()
        g_x = np.add(g_ls, np.multiply(g_e, kept.pop(), out=g_e), out=g_e)
        kept.append(_unbroadcast(-g_x, total.shape))
        return g_x

    def vjp_max(g):  # g_m * hit is exact in any float dtype; dividing by the int64 tie counts makes float64
        g_m, x = kept.pop(), kept.pop()
        hit = x == m
        g_x = np.multiply(np.broadcast_to(g_m, shape), hit, dtype=np.float64)
        return np.divide(g_x, hit.sum(axis=-1, keepdims=True), out=g_x)

    return _make("target_logprobs", out, [(logits, vjp_sub), (logits, vjp_max)])


# -- finite-difference oracle --------------------------------------------------


def finite_difference_gradients(fn, inputs: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradients of a scalar function of float64 arrays.

    ``fn`` maps a list of arrays to a python float. Independent of the tape
    by construction; used as the oracle in gradient checks.
    """
    grads = []
    for k, x in enumerate(inputs):
        g = np.zeros_like(x, dtype=np.float64)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn(inputs)
            flat[i] = orig - step
            lo = fn(inputs)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def gradient_check(build_loss, params: dict[str, Tensor], step: float = 1e-5) -> float:
    """Compare tape gradients against central finite differences.

    ``build_loss`` maps the parameter dict to a scalar Tensor; it is invoked
    once under a fresh tape for the analytic side and repeatedly without a
    tape for the numeric side. Returns the worst per-parameter relative
    error, measured as ||analytic - numeric||_inf / max(||analytic||_inf,
    ||numeric||_inf, 1e-12).
    """
    names = list(params)
    with Graph() as g:
        loss = build_loss(params)
    g.backward(loss)
    analytic = {n: g.grad(params[n]) for n in names}

    def eval_fn(arrays):
        frozen = {n: Tensor(a.copy()) for n, a in zip(names, arrays)}
        return build_loss(frozen).item()

    numeric = finite_difference_gradients(eval_fn, [params[n].data.astype(np.float64) for n in names], step)
    worst = 0.0
    for n, num in zip(names, numeric):
        ana = analytic[n]
        if ana is None:
            ana = np.zeros_like(num)
        diff = np.abs(ana - num).max()
        scale = max(np.abs(ana).max(), np.abs(num).max(), 1e-12)
        worst = max(worst, diff / scale)
    return worst
