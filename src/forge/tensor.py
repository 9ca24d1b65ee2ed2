"""Dense tensors with a reverse-mode autodiff tape.

Values are numpy buffers (float32 for training fixtures, float64 for
gradient checks). Recording happens only inside an active ``Graph``
context; outside of one, operations compute plain values and keep no
history. Each recorded op is one tape node holding one VJP, which
``backward`` calls once to get one gradient contribution per input the
node lists (``_make``). A graph is single-use: ``backward`` releases the
tape as it runs, so it runs once. Leaf gradients, and those of
intermediates the caller still holds, stay readable through ``grad``.

    with Graph() as g:
        y = (x * x).sum()
    g.backward(y)
    dx = g.grad(x)

Broadcasting follows trailing-dimension alignment; incompatible shapes
raise ``ShapeError``. Mixed float32/float64 operands are rejected, but
``max_``'s VJP divides by int64 tie counts: gradients through it are float64,
and so are those through ``target_logprobs``, whose VJP replays that division.
Layer ops are single nodes over numpy kernels that ``forge.decode`` calls
too; attention, for one, is ``attention`` over ``_attend``, whose softmax
works on the diagonal blocks that a packed row's mask leaves (one block for
a causal sequence and for ``decode``), and the whole SwiGLU FFN is
``swiglu_ffn`` over ``_swiglu``, which keeps no gated rows. The loss head
``target_logprobs`` is one node as well. Every other op is one the pipeline
records or a test reference uses; ``silu`` and ``swiglu_ffn`` share the
sigmoid kernel ``_stable_sigmoid``. ``where``, ``concat`` and ``silu`` are
test references only, since the ops that recorded them became single nodes.
"""

from __future__ import annotations

import operator
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
    """One tape entry: ``vjp(grad_out)`` returns or yields one gradient contribution per id in
    ``input_ids``, in that order; id -1 marks an input that needs none. A leaf has no inputs and
    no VJP."""

    __slots__ = ("op", "input_ids", "vjp", "out")

    def __init__(self, op, input_ids, vjp, out):
        self.op = op
        self.input_ids = input_ids
        self.vjp = vjp
        self.out = out  # weak reference to the recorded output; None for a leaf


class Graph:
    """Append-only tape of operations plus a gradient store keyed by node id.

    Node inputs always precede the node itself, so reverse append order is a valid
    reverse-topological order for backpropagation. Each node holds one VJP, which
    backward calls once; a node may list one input several times, and backward adds
    its contributions in list order, dropping those of inputs listed as -1.
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
            self.nodes.append(_Node("leaf", (), None, None))
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

    def _record(self, op: str, out: "Tensor", input_ids: tuple, vjp) -> None:
        nid = len(self.nodes)
        self.nodes.append(_Node(op, input_ids, vjp, weakref.ref(out)))
        out.graph = self
        out.node_id = nid
        out.requires_grad = True

    def backward(self, seed: "Tensor") -> dict[int, np.ndarray]:
        """Reverse-accumulate gradients from a scalar seed node, releasing the
        tape as it goes: every node's VJP is dropped as it runs, and so is
        each gradient but a leaf's or one a live Tensor still names, and
        each part once added (``_make``).

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
            vjp, node.vjp = node.vjp, None  # the VJP holds the activations
            g = grads.get(nid) if node.out is None or node.out() is not None else grads.pop(nid, None)
            if g is None or vjp is None:  # unreached, or a leaf
                continue
            parts = iter(vjp(g))
            vjp = g = None  # a yielding VJP holds the gradient now, and may drop it
            for input_id in node.input_ids:
                contrib = next(parts)
                if input_id >= 0:
                    acc = grads.get(input_id)
                    grads[input_id] = contrib if acc is None else acc + contrib
                acc = contrib = None  # no part outlives its add
            parts = None  # nor the VJP its last part, with that yield's locals
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


def _make(op: str, out_data: np.ndarray, inputs, vjp) -> Tensor:
    """Build the result tensor, recording a tape node when gradients flow.

    ``vjp(grad_out)`` returns or yields one gradient contribution per tensor
    in ``inputs``, in that order; a tensor may be listed several times, and
    backward adds its contributions in list order. It is called once, so it
    may compute what several contributions share. The node is recorded when
    some input requires grad; the others are listed with id -1, and backward
    drops their contributions.

    A VJP that yields keeps its frame alive while backward adds each part it
    yielded, so it drops every array before a ``yield`` once no later part
    needs it. Backward holds no part after adding it, and no VJP after its
    last part: once the VJP is called, backward drops its own reference to the
    upstream gradient (a yielding VJP may then drop it too), and it releases
    the VJP, with the locals of its last ``yield``, before the next node runs.
    """
    out = Tensor(out_data)
    graph = _current_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        graph._record(op, out, tuple(graph._node_id(t) if t.requires_grad else -1 for t in inputs), vjp)
    return out


def _operands(op: str, fn, a, b, *, cond=None):
    """``a`` and ``b`` as tensors of one dtype (an array or number takes the
    other operand's) and ``fn`` on their data, after ``cond`` if given; an
    operand dtype mismatch or shapes that do not broadcast raise ``ShapeError``."""
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, op)
    try:
        out = fn(a.data, b.data) if cond is None else fn(cond, a.data, b.data)
    except ValueError:
        shapes = f"{a.shape} and {b.shape}" if cond is None else f"{cond.shape}, {a.shape}, {b.shape}"
        raise ShapeError(f"{op}: shapes {shapes} do not broadcast") from None
    return a, b, out


# -- element-wise primitives ------------------------------------------------


def add(a, b) -> Tensor:
    a, b, out = _operands("add", operator.add, a, b)
    sa, sb = a.shape, b.shape
    return _make("add", out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b, out = _operands("sub", operator.sub, a, b)
    sa, sb = a.shape, b.shape
    return _make("sub", out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b, out = _operands("mul", operator.mul, a, b)
    ad, bd = a.data, b.data
    return _make("mul", out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def div(a, b) -> Tensor:
    a, b, out = _operands("div", operator.truediv, a, b)
    ad, bd = a.data, b.data
    return _make("div", out, (a, b),
                 lambda g: (_unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _make("exp", out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _make("log", np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _make("sqrt", out, (a,), lambda g: (g * 0.5 / out,))


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
    return _make("silu", out, (a,), lambda g: (g * (sig * (1.0 + ad * (1.0 - sig))),))


def where(cond, a, b) -> Tensor:
    """Element-wise select; ``cond`` is a boolean mask (no gradient flows to it)."""
    mask = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    mask = mask.astype(bool)
    a, b, out = _operands("where", np.where, a, b, cond=mask)
    zero = out.dtype.type(0)
    # capture shapes, not a and b: a recorded Tensor holds its Graph, which holds this
    sa, sb = a.shape, b.shape
    return _make("where", out, (a, b),
                 lambda g: (_unbroadcast(np.where(mask, g, zero), sa), _unbroadcast(np.where(mask, zero, g), sb)))


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
    return _make("sum", out, (a,), lambda g: (_expand_reduced(g, shape, axis, keepdims).copy(),))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis, "mean")
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]
    shape = a.shape
    return _make("mean", out, (a,), lambda g: (_expand_reduced(g, shape, axis, keepdims) / count,))


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
        return (_expand_reduced(g, shape, axis, keepdims) * hit / ties,)

    return _make("max", out, (a,), vjp)


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
    return _make("matmul", out, (a, b), lambda g: (_unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape),
                                                   _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)))


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = tuple(np.argsort(axes))
    return _make("transpose", a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from None
    return _make("reshape", out, (a,), lambda g: (g.reshape(old),))


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
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def vjp(g):
        idx = [slice(None)] * g.ndim
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx[axis] = slice(lo, hi)
            yield g[tuple(idx)]

    return _make("concat", out, tensors, vjp)


def slice_(a: Tensor, key) -> Tensor:
    """Indexing with ints, slices, or an array of distinct row indices;
    gradient scatters back into zeros of a's dtype."""
    a = _as_tensor(a)
    out = a.data[key]
    shape, dtype = a.shape, a.data.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dtype)
        full[key] = g
        return (full,)

    return _make("slice", out, (a,), vjp)


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
    return _make("rotate_pairs", _rotate_pairs(x.data, cos, sin), (x,),
                 lambda g: (_rotate_pairs(g, cos, neg_sin, dtype),))


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
    return _make("block_matmul", _per_bucket(block, xd, lambda xb: xb @ wd), (x, w),
                 lambda g: _block_matmul_parts(block, xd, wd, g))


def _block_matmul_parts(block: RowBlock, xd: np.ndarray, wd: np.ndarray, g: np.ndarray):
    """``block_matmul``'s VJP: x's part, then w's."""
    yield _per_bucket(block, g, lambda gb: gb @ wd.swapaxes(-1, -2))
    yield _fold_spans(block, lambda a, b: xd[a:b].swapaxes(-1, -2) @ g[a:b])


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

        return (_fold_spans(block, scatter),)

    return _make("embedding", out, (weight,), vjp)


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

    def vjp(go):  # x's three parts (the division's, then the square's two), then the gain's
        gy = go * gd
        yield gy / r
        gr = _unbroadcast(-gy * xd / (r * r), r.shape)
        sq = np.broadcast_to(gr * 0.5 / r, xd.shape) / xd.shape[-1] * xd
        del gy, gr
        yield sq
        yield sq
        prod = (go * (xd / r)).reshape(-1, gd.shape[0])
        yield _fold_spans(block, lambda a, b: prod[a:b].sum(axis=0))

    return _make("rms_norm", out, (x, x, x, g), vjp)


def _cuts(mask, t_len: int) -> tuple:
    """The positions p in (0, t_len) that split a bool mask (..., t_len, t_len) into diagonal blocks
    attending only within themselves: no row before p sees a key at or after p, and no row from p on
    sees a key before p, for every leading index. None, or a fully masked row (whose weight spreads
    over every key), gives none: one block."""
    if mask is None:
        return ()
    rows = np.reshape(mask, (-1, t_len, t_len))
    seen = rows.any(axis=0)
    seen = seen | seen.T  # i and j < i linked: row i sees key j, or row j sees key i
    first = np.minimum.accumulate(seen.argmax(axis=-1)[::-1])[::-1]  # the first position rows i.. link to
    at = np.flatnonzero(first[1:] >= np.arange(1, t_len)) + 1
    if not at.size or not rows.any(axis=-1).all():
        return ()
    return tuple(at.tolist())


def _blocks(cuts) -> list:
    """The diagonal blocks between ``cuts``, each as (its index in a (..., t, s) array, its rows'
    index in a (..., t, 1) one); with no cuts, one block of every row and key, indexed by ()."""
    if not cuts:
        return [((), ())]
    bounds = (0, *cuts, None)
    return [((..., slice(a, b), slice(a, b)), (..., slice(a, b), slice(None))) for a, b in zip(bounds, bounds[1:])]


def _scatter(blocks, parts, shape) -> np.ndarray:
    """The blocks' parts laid out in a zero-filled array of ``shape``; a single block's part as it is."""
    if len(parts) == 1:
        return parts[0]
    full = np.zeros(shape, dtype=parts[0].dtype)
    for (at, _), part in zip(blocks, parts):
        full[at] = part
    return full


def _probs(blocks, es, total, shape) -> np.ndarray:
    """``e / total`` on each block and 0 elsewhere: the probabilities of ``_masked_softmax``."""
    if len(es) == 1:  # one block spans every row and key
        return es[0] / total
    return _scatter(blocks, [e / total[rows] for (_, rows), e in zip(blocks, es)], shape)


def _masked_softmax(scores: np.ndarray, mask, cuts, scale: float, fill: float):
    """Softmax of scores * scale over the last axis, entries outside the bool ``mask`` (None keeps
    all) set to ``fill``, worked out on the diagonal blocks between ``cuts`` (``_cuts``; none is one
    block spanning every row and key). Returns the probabilities (zero outside the blocks), the
    blocks (``_blocks``), each block's exponentials, the row sums, and each block's masked scores
    and row max (equal where the max ties).

    The bits are those of one block: outside a block every exponential is exp(fill - max) = 0, so
    each row sum runs over a zero-filled full row, with numpy's pairwise sums seeing the same
    operands at the same positions. A block row whose max is not finite, or not far enough above
    ``fill`` for exp(fill - max) to be 0, would not give those zeros, so then the whole softmax runs
    as one block."""
    dtype = scores.dtype.type
    blocks, ss, ms = _blocks(cuts), [], []
    for at, _ in blocks:
        s = scores[at] * dtype(scale)
        if mask is not None:  # rebinding s frees the unmasked scores before the exponentials
            s = np.where(mask[at], s, dtype(fill))
        ss.append(s)
        ms.append(s.max(axis=-1, keepdims=True))
    if cuts:  # every block row at once
        m = np.concatenate(ms, axis=-2)
        if not (np.isfinite(m).all() and not np.exp(np.minimum(dtype(fill) - m, 0)).any()):
            return _masked_softmax(scores, mask, (), scale, fill)
    es = [np.exp(s - m) for s, m in zip(ss, ms)]
    total = _scatter(blocks, es, scores.shape).sum(axis=-1, keepdims=True)
    return _probs(blocks, es, total, scores.shape), blocks, es, total, ss, ms


def _masked_softmax_vjp(ga: np.ndarray, blocks, es, total, hits, mask, scale: float) -> np.ndarray:
    """The scores' gradient from the probabilities' gradient ``ga``, given ``_masked_softmax``'s
    blocks, exponentials, row sums and tie masks: the VJPs of the composite's softmax (division,
    row sum, exp, and max's tie split, which divides by the int64 tie count and so promotes to
    float64), ``where`` and scale's mul, worked out on the blocks. Outside them the gradient is 0,
    as the composite's ``where`` makes it; each row sum runs over a zero-filled full row."""
    dtype = es[0].dtype.type
    gas = [ga[at] for at, _ in blocks]
    totals = [total[rows] for _, rows in blocks]
    sums = _unbroadcast(_scatter(blocks, [-g * e / (t * t) for g, e, t in zip(gas, es, totals)], ga.shape),
                        total.shape)
    gs = [(g / t + sums[rows]) * e for (_, rows), g, e, t in zip(blocks, gas, es, totals)]
    sums = _unbroadcast(_scatter(blocks, [-g for g in gs], ga.shape), total.shape)
    gs = [g + sums[rows] * hit / hit.sum(axis=-1, keepdims=True) for (_, rows), g, hit in zip(blocks, gs, hits)]
    if mask is not None:
        gs = [np.where(mask[at], g, dtype(0)) for (at, _), g in zip(blocks, gs)]
    return _scatter(blocks, [g * dtype(scale) for g in gs], ga.shape)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask, cuts, scale: float, fill: float):
    """Rows (B, t, nh·hs) of rotated query heads q (B, nh, t, hs) attending through ``_masked_softmax``
    (on the blocks between ``cuts``) over keys and values (B, nkv, s, hs), each KV head serving nh/nkv
    query heads; then the grouped q, transposed k and grouped v that the two products read, and
    ``_masked_softmax``'s arrays. Both products run over every row and key, whatever the blocks."""
    b, nh, t_len, hs = q.shape
    nkv, s_len = k.shape[1], k.shape[2]
    q = q.reshape(b, nkv, nh // nkv, t_len, hs)
    kt = k.reshape(b, nkv, 1, s_len, hs).transpose(0, 1, 2, 4, 3)
    v = v.reshape(b, nkv, 1, s_len, hs)
    soft = _masked_softmax(q @ kt, mask, cuts, scale, fill)
    out = soft[0] @ v  # (b, nkv, group, t, hs)
    return out.transpose(0, 3, 1, 2, 4).reshape(b, t_len, nh * hs), q, kt, v, soft


def attention(q: Tensor, k: Tensor, v: Tensor, block: RowBlock, head_size: int, masks, ropes, scale: float,
              fill: float) -> Tensor:
    """Grouped-query attention within each sequence of ``block``, as one node over every bucket. A
    bucket's q rows (count·t, nh·hs) and k, v rows (count·t, nkv·hs) split into heads, q and k rotated
    by its (cos, sin) in ``ropes`` unless that is None, then ``_attend`` under its bool mask in
    ``masks``, (..., t, t) or None; both lists hold one entry per bucket. Each mask's cuts
    (``_cuts``: between the packed samples of a row, none for a causal sequence) split the softmax
    into diagonal blocks, and the node keeps only those blocks' exponentials and tie masks, with the
    row sums. The VJP replays, per bucket, the VJPs of the composite (head reshapes and transposes,
    ``rotate_pairs``, matmuls, scale's mul, ``where``, ``softmax``), with the same bits for finite
    inputs: q's and k's parts rotate back into their dtype, v's keeps numpy's promotion. It
    recomputes the probabilities as ``_masked_softmax`` does (``_probs``) instead of keeping them,
    runs its elementwise work on the blocks only (``_masked_softmax_vjp``), and its four products
    over every row and key, since products over blocks would change bits."""
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
        part, qg, kt, vg, (_, blocks, es, total, ss, ms) = _attend(qh, kh, vh, mask, _cuts(mask, t_len), scale, fill)
        out[at] = part.reshape(count * t_len, -1)
        saved.append((qg, kt, vg, blocks, es, total, [s == m for s, m in zip(ss, ms)]))

    def bucket_vjp(grads, g, bucket, mask, rope):  # one bucket's rows of v's, k's and q's parts
        at, count, t_len = bucket
        qg, kt, vg, blocks, es, total, hits = saved.pop(0)  # the bucket's activations go once used
        gb = g[at].reshape(count, t_len, nkv, -1, hs).transpose(0, 2, 3, 1, 4)
        probs = _probs(blocks, es, total, gb.shape[:-1] + (t_len,))
        gv = _unbroadcast(probs.swapaxes(-1, -2) @ gb, vg.shape)
        del probs
        gs = _masked_softmax_vjp(gb @ vg.swapaxes(-1, -2), blocks, es, total, hits, mask, scale)
        gk = _unbroadcast(qg.swapaxes(-1, -2) @ gs, kt.shape).transpose(0, 1, 2, 4, 3)
        parts = [gv, gk, gs @ kt.swapaxes(-1, -2)]
        if rope is not None:  # rotate_pairs' VJP, into the input dtype
            parts[1:] = (_rotate_pairs(x.reshape(count, -1, t_len, hs), rope[0], -rope[1], dtype) for x in parts[1:])
        for j, x in enumerate(parts):  # back to rows through the head transpose's and reshape's VJPs
            x = x.reshape(count, -1, t_len, hs).transpose(0, 2, 1, 3).reshape(count * t_len, -1)
            if grads[j] is None:
                grads[j] = np.empty((rows, x.shape[-1]), dtype=x.dtype)
            grads[j][at] = x

    def vjp(g):  # v's part, then k's, then q's: the composite's backward order
        grads = [None] * 3
        for bucket, mask, rope in zip(block.buckets, masks, ropes):
            bucket_vjp(grads, g, bucket, mask, rope)
        del g
        while grads:
            yield grads.pop(0)

    return _make("attention", out, (v, k, q), vjp)


def _swiglu(a: np.ndarray, b: np.ndarray):
    """silu(a) * b."""
    return a * _stable_sigmoid(a) * b


def swiglu_ffn(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor, block: RowBlock | None = None) -> Tensor:
    """The SwiGLU FFN ``_swiglu(x W_gate, x W_up) W_down`` as one node, each product stacked per
    bucket of ``block`` (by default one sequence) as ``block_matmul`` runs it. It keeps x and the
    gate and up rows: the VJP rebuilds the gated rows with ``_swiglu``'s expression from the sigmoid
    it recomputes, and yields the composite's parts with its expressions: w_down's, then x's and
    w_up's from the up product, then x's and w_gate's from the gate product."""
    x, w_gate, w_up, w_down = (_as_tensor(t) for t in (x, w_gate, w_up, w_down))
    for w in (w_gate, w_up, w_down):
        _check_dtypes(x, w, "swiglu_ffn")
    if not (x.ndim == w_gate.ndim == w_up.ndim == w_down.ndim == 2
            and w_gate.shape == w_up.shape == (x.shape[1], w_down.shape[0])):
        raise ShapeError(f"swiglu_ffn: shapes {x.shape}, {w_gate.shape}, {w_up.shape}, {w_down.shape} do not conform")
    block = block or RowBlock([x.shape[0]])
    xd, wg, wu, wd = x.data, w_gate.data, w_up.data, w_down.data
    ad = _per_bucket(block, xd, lambda xb: xb @ wg)
    bd = _per_bucket(block, xd, lambda xb: xb @ wu)

    def vjp(g):
        sig = _stable_sigmoid(ad)
        silu_a = ad * sig
        gh, gw = _block_matmul_parts(block, silu_a * bd, wd, g)
        del g
        yield gw
        del gw
        gb = gh * silu_a  # the product's part for b, then for silu(a), through silu's VJP
        del silu_a
        ga = gh * bd * (sig * (1.0 + ad * (1.0 - sig)))
        del gh, sig
        yield from _block_matmul_parts(block, xd, wu, gb)
        del gb
        yield from _block_matmul_parts(block, xd, wg, ga)

    out = _per_bucket(block, _swiglu(ad, bd), lambda hb: hb @ wd)
    return _make("swiglu_ffn", out, (w_down, x, w_up, x, w_gate), vjp)


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
    ``exp`` did, takes each from ``kept`` to free it once used, and rebuilds
    the one-hot.
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
    kept = [xd, e]

    def vjp(g):
        x, e = kept
        kept.clear()
        # the first sub's part, through the second sub, log, sum and exp
        g_ls = np.zeros(shape, dtype=np.result_type(g.dtype, dtype))  # the one-hot, exact in either dtype
        g_ls[rows, cols] = 1.0
        np.multiply(g, g_ls, out=g_ls)
        del g
        g_e = np.broadcast_to(_unbroadcast(-g_ls, total.shape) / total, shape).copy()
        g_x = np.add(g_ls, np.multiply(g_e, e, out=g_e), out=g_e)
        del g_ls, e
        g_m = _unbroadcast(-g_x, total.shape)
        yield g_x
        # max_'s part: g_m * hit is exact in any float dtype; dividing by the int64 tie counts makes float64
        hit = x == m
        del x
        ties = hit.sum(axis=-1, keepdims=True)
        g_x = np.multiply(np.broadcast_to(g_m, shape), hit, dtype=np.float64)
        del hit
        yield np.divide(g_x, ties, out=g_x)

    return _make("target_logprobs", out, (logits, logits), vjp)


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
