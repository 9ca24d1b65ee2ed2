"""Autodiff core: value semantics, tape rules, and gradient checks.

Every primitive and composite is checked against central finite
differences at float64; tape misuse (double backward, non-scalar seed,
cross-graph mixing) must raise.
"""

import weakref

import numpy as np
import pytest
import reference
from hypothesis import given, settings, strategies as st

from forge import tensor as T
from forge.tensor import Graph, GraphError, ShapeError, Tensor

RTOL = 1e-4  # max relative error vs finite differences at float64


def rand(rng, *shape):
    return rng.standard_normal(shape).astype(np.float64)


def check(build_loss, params, tol=RTOL):
    err = T.gradient_check(build_loss, params)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"


def square(t):
    return t * t


# -- value oracles -------------------------------------------------------------


def test_matmul_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose((a @ b).numpy(), [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose((Tensor(np.eye(2)) @ m).numpy(), m.numpy())


def test_matmul_associativity():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a, b, c = (Tensor(rand(rng, 4, 5)), Tensor(rand(rng, 5, 6)), Tensor(rand(rng, 6, 3)))
        lhs = ((a @ b) @ c).numpy()
        rhs = (a @ (b @ c)).numpy()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


def test_softmax_uniform_and_overflow():
    np.testing.assert_allclose(Tensor([0.0, 0.0, 0.0]).softmax().numpy(), np.full(3, 1 / 3), rtol=1e-6)
    out = Tensor([1000.0, 1000.0]).softmax().numpy()
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-6)


def test_softmax_value():
    x = Tensor(np.array([0.0, np.log(3.0)], dtype=np.float64))
    np.testing.assert_allclose(x.softmax().numpy(), [0.25, 0.75], atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(0)
    x = Tensor(rand(rng, 4, 7))
    np.testing.assert_allclose(
        x.log_softmax(axis=-1).numpy(), np.log(x.softmax(axis=-1).numpy()), atol=1e-12
    )


def test_silu_value():
    x = Tensor(np.array([2.0], dtype=np.float64))
    expected = 2.0 / (1.0 + np.exp(-2.0))
    np.testing.assert_allclose(x.silu().numpy(), [expected], atol=1e-12)


def test_sigmoid_extreme_inputs_stable():
    for dtype in (np.float32, np.float64):
        out = T._stable_sigmoid(np.array([-np.inf, -1000.0, 1000.0, np.inf], dtype=dtype))
        assert out.dtype == dtype and np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def test_softmax_rows_sum_to_one_under_shift():
    rng = np.random.default_rng(1)
    x = rand(rng, 5, 9)
    out = Tensor(x + 1e4).softmax(axis=-1).numpy()
    np.testing.assert_allclose(out.sum(-1), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(out, Tensor(x).softmax(axis=-1).numpy(), atol=1e-12)


def test_embedding_gathers_rows():
    w = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = T.embedding(w, np.array([2, 0, 2]))
    np.testing.assert_allclose(out.numpy(), [[6, 7, 8], [0, 1, 2], [6, 7, 8]])


def test_where_selects():
    out = T.where(np.array([True, False]), Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.numpy(), [1.0, 4.0])


def test_concat_and_slice_roundtrip():
    a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    b = Tensor(np.arange(6, 12, dtype=np.float64).reshape(2, 3))
    c = T.concat([a, b], axis=0)
    np.testing.assert_allclose(c[0:2].numpy(), a.numpy())
    np.testing.assert_allclose(c[2:4].numpy(), b.numpy())


# -- shape and dtype contracts -------------------------------------------------


def test_broadcast_trailing_dims():
    a = Tensor(np.ones((2, 3), dtype=np.float64))
    b = Tensor(np.arange(3, dtype=np.float64))
    np.testing.assert_allclose((a + b).numpy(), [[1, 2, 3], [1, 2, 3]])


def test_incompatible_shapes_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 4)))


def test_matmul_inner_dim_mismatch_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_mixed_dtypes_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3, dtype=np.float32)) + Tensor(np.ones(3, dtype=np.float64))


def test_float_arrays_keep_their_dtype_as_operands():
    # a float32 or float64 ndarray computes in its own dtype; anything else
    # (lists, ints, Python floats) becomes float32, or the other operand's dtype
    assert T.target_logprobs(np.array([[0.1, 0.2, 0.3]]), [1]).data.dtype == np.float64
    assert T.log_softmax(np.zeros(3, dtype=np.float32)).data.dtype == np.float32
    assert T.sum_(np.arange(3)).data.dtype == np.float32
    assert T.sum_([0.5, 1.5]).data.dtype == np.float32
    assert (np.ones(2) + Tensor(np.ones(2, dtype=np.float32))).data.dtype == np.float32


def test_reshape_size_mismatch_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))).reshape(4, 2)


def test_embedding_id_out_of_range_rejected():
    w = Tensor(np.ones((4, 3)))
    with pytest.raises(ShapeError):
        T.embedding(w, np.array([0, 4]))


def test_invalid_axis_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))).sum(axis=2)


# -- tape discipline -----------------------------------------------------------


def test_no_graph_no_history():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * x
    assert y.graph is None and y.grad is None


def test_backward_requires_scalar_seed():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph() as g:
        y = x * x
    with pytest.raises(GraphError):
        g.backward(y)


def test_double_backward_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph() as g:
        y = (x * x).sum()
    g.backward(y)
    with pytest.raises(GraphError, match="released"):
        g.backward(y)


def test_backward_releases_the_tape():
    """Backward drops every node's VJP and every intermediate gradient that no
    live Tensor names; leaf gradients and held intermediates stay, exact."""
    xd = np.array([0.1, -1.3, 2.7], dtype=np.float32)
    x = Tensor(xd, requires_grad=True)
    with Graph() as g:
        y = x * x  # kept
        dropped = y * 3.0
        loss = (dropped + x).sum()  # x reused
        dropped_id = dropped.node_id
        del dropped
    g.backward(loss)
    assert all(node.vjp is None for node in g.nodes)
    assert dropped_id not in g.grads
    # loss = sum(3 x^2 + x): dloss/dy = 3; dloss/dx = 1 + 3x + 3x, added in tape order
    for got, want in ((g.grad(y), np.full(3, 3.0, dtype=np.float32)),
                      (g.grad(x), np.ones(3, dtype=np.float32) + 3 * xd + 3 * xd)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_backward_holds_no_part_once_added_nor_a_yielding_vjp_after_its_last_part():
    """A node lists y twice and yields y's two parts, dropping its upstream
    gradient after the first. From then on backward holds that gradient no
    more; and while y's producer runs its VJP, neither part is alive (y's
    gradient is their sum, a new array), nor is the local that the second
    part's yield kept."""
    x = Tensor(np.array([0.5, -2.0, 3.0]), requires_grad=True)
    refs, alive = {}, {}

    def yielder(g):
        first = g * 2.0
        refs["upstream"], refs["first part"] = weakref.ref(g), weakref.ref(first)
        scale = g * 3.0
        del g
        yield first
        alive["upstream, once dropped"] = refs["upstream"]() is not None
        del first
        refs["last yield's local"] = weakref.ref(scale)
        last = scale + 1.0
        refs["last part"] = weakref.ref(last)
        yield last

    def producer(g):
        alive.update((name, ref() is not None) for name, ref in refs.items())
        return (g,)

    with Graph() as graph:
        y = T._make("producer", x.data.copy(), (x,), producer)
        loss = T._make("yielder", y.data.copy(), (y, y), yielder).sum()
        del y
    graph.backward(loss)
    assert alive == dict.fromkeys(["upstream, once dropped", "upstream", "first part", "last yield's local",
                                   "last part"], False)
    np.testing.assert_array_equal(graph.grad(x), np.full(3, 2.0) + (np.full(3, 3.0) + 1.0))


def test_cross_graph_mixing_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph():
        y = x * 2.0
    with Graph():
        with pytest.raises(GraphError):
            y * 3.0


def test_nested_graphs_rejected():
    with Graph():
        with pytest.raises(GraphError):
            with Graph():
                pass


def test_tape_topological_order():
    x = Tensor(np.ones(2), requires_grad=True)
    with Graph() as g:
        y = ((x * 3.0) + 1.0).sum()
    g.backward(y)
    for nid, node in enumerate(g.nodes):
        assert all(i < nid for i in node.input_ids)


def test_backward_identity_and_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Graph() as g:
        y = x.sum()
    g.backward(y)
    np.testing.assert_allclose(g.grad(x), [1.0])

    v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Graph() as g2:
        z = (v * v).sum()
    g2.backward(z)
    np.testing.assert_allclose(g2.grad(v), [2.0, 4.0, 6.0])


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Graph() as g:
        y = (x * x + x).sum()  # dy/dx = 2x + 1 = 5
    g.backward(y)
    np.testing.assert_allclose(g.grad(x), [5.0])


def test_constant_branch_gets_no_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    c = Tensor(np.ones(2))  # requires_grad=False
    with Graph() as g:
        y = (x * c).sum()
    g.backward(y)
    assert g.grad(c) is None
    np.testing.assert_allclose(g.grad(x), np.ones(2))


# -- gradient checks, one per primitive ----------------------------------------


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_grad_binary_elementwise(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    fn = getattr(T, op)
    a = Tensor(rand(rng, 3, 4), requires_grad=True)
    b = Tensor(rand(rng, 3, 4) + 3.0, requires_grad=True)  # keep divisors away from 0
    check(lambda p: fn(p["a"], p["b"]).sum(), {"a": a, "b": b})


@pytest.mark.parametrize("op", ["add", "mul", "div"])
def test_grad_binary_broadcast(op):
    rng = np.random.default_rng(7)
    fn = getattr(T, op)
    a = Tensor(rand(rng, 2, 3, 4), requires_grad=True)
    b = Tensor(rand(rng, 4) + 3.0, requires_grad=True)
    check(lambda p: fn(p["a"], p["b"]).sum(), {"a": a, "b": b})


def test_grad_neg():
    x = Tensor(rand(np.random.default_rng(2), 5), requires_grad=True)
    check(lambda p: T.neg(p["x"]).sum(), {"x": x})


def test_grad_exp():
    x = Tensor(rand(np.random.default_rng(3), 4), requires_grad=True)
    check(lambda p: p["x"].exp().sum(), {"x": x})


def test_grad_log():
    x = Tensor(np.abs(rand(np.random.default_rng(4), 4)) + 0.5, requires_grad=True)
    check(lambda p: p["x"].log().sum(), {"x": x})


def test_grad_sqrt():
    x = Tensor(np.abs(rand(np.random.default_rng(6), 4)) + 0.5, requires_grad=True)
    check(lambda p: p["x"].sqrt().sum(), {"x": x})


@pytest.mark.parametrize("op", ["silu"])
def test_grad_activations(op):
    x = Tensor(rand(np.random.default_rng(8), 3, 5), requires_grad=True)
    check(lambda p: getattr(p["x"], op)().sum(), {"x": x})


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (-1, False)])
def test_grad_sum_mean(axis, keepdims):
    rng = np.random.default_rng(9)
    x = Tensor(rand(rng, 3, 4), requires_grad=True)
    w = Tensor(rand(rng, 3, 4), requires_grad=True)
    check(lambda p: (p["x"].sum(axis, keepdims) * 1.0).sum(), {"x": x})
    check(lambda p: (p["w"].mean(axis, keepdims) * 1.0).sum(), {"w": w})


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_grad_max(axis):
    # distinct entries so the max is differentiable at the sample point
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4) * 1.37, requires_grad=True)
    check(lambda p: (p["x"].max(axis) * 1.0).sum(), {"x": x})


def test_grad_max_ties_split():
    x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
    with Graph() as g:
        y = x.max()
    g.backward(y)
    np.testing.assert_allclose(g.grad(x), [0.5, 0.5, 0.0])


def test_grad_matmul_2d():
    rng = np.random.default_rng(10)
    a = Tensor(rand(rng, 3, 4), requires_grad=True)
    b = Tensor(rand(rng, 4, 5), requires_grad=True)
    check(lambda p: (p["a"] @ p["b"]).sum(), {"a": a, "b": b})


def test_grad_matmul_batched():
    rng = np.random.default_rng(11)
    a = Tensor(rand(rng, 2, 3, 4), requires_grad=True)
    b = Tensor(rand(rng, 2, 4, 5), requires_grad=True)
    check(lambda p: (p["a"] @ p["b"]).sum(), {"a": a, "b": b})


def test_grad_matmul_broadcast_batch():
    rng = np.random.default_rng(12)
    a = Tensor(rand(rng, 2, 3, 4), requires_grad=True)
    b = Tensor(rand(rng, 4, 5), requires_grad=True)
    check(lambda p: (p["a"] @ p["b"]).sum(), {"a": a, "b": b})


def test_grad_transpose_reshape():
    rng = np.random.default_rng(13)
    x = Tensor(rand(rng, 2, 3, 4), requires_grad=True)
    check(lambda p: p["x"].transpose(2, 0, 1).reshape(6, 4).sum(), {"x": x})


def test_grad_concat():
    rng = np.random.default_rng(14)
    a = Tensor(rand(rng, 2, 3), requires_grad=True)
    b = Tensor(rand(rng, 2, 3), requires_grad=True)
    check(lambda p: square(T.concat([p["a"], p["b"]], axis=1)).sum(), {"a": a, "b": b})


def test_grad_slice():
    rng = np.random.default_rng(15)
    x = Tensor(rand(rng, 4, 5), requires_grad=True)
    check(lambda p: square(p["x"][1:3, ::2]).sum(), {"x": x})


def test_grad_embedding():
    rng = np.random.default_rng(16)
    w = Tensor(rand(rng, 6, 3), requires_grad=True)
    ids = np.array([0, 2, 2, 5])
    check(lambda p: square(T.embedding(p["w"], ids)).sum(), {"w": w})


def test_grad_row_block_primitives():
    # three sequences of lengths 2, 3, 2, in the given order: two buckets, the first not contiguous
    rng = np.random.default_rng(21)
    block = T.RowBlock([2, 3, 2])
    assert block.spans == ((0, 2), (2, 5), (5, 7))
    assert [(np.arange(7)[rows].tolist(), count, length) for rows, count, length in block.buckets] == [
        ([0, 1, 5, 6], 2, 2), ([2, 3, 4], 1, 3)]
    ids = np.array([0, 2, 2, 5, 1, 0, 5])
    p = {
        "emb": Tensor(rand(rng, 6, 4), requires_grad=True),
        "gain": Tensor(rand(rng, 4), requires_grad=True),
        "w": Tensor(rand(rng, 4, 3), requires_grad=True),
    }
    check(lambda q: square(T.block_matmul(T.rms_norm(T.embedding(q["emb"], ids, block), q["gain"], 1e-6, block),
                                          q["w"], block)).sum(), p)
    x = rand(rng, 7, 4)
    w = rand(rng, 4, 3)
    want = np.concatenate([x[a:b] @ w for a, b in block.spans])
    np.testing.assert_array_equal(T.block_matmul(Tensor(x), Tensor(w), block).numpy(), want)


def test_slice_casts_a_float64_gradient_to_the_input_dtype():
    # max_'s VJP divides by an int64 tie count and sends back float64; a
    # slice casts that to x's float32 on the way back
    x = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2), requires_grad=True)
    rows = np.array([2, 0, 1, 3])
    with T.Graph() as g:
        y = T.sum_(T.max_(T.slice_(x, rows), axis=1))
    g.backward(y)
    assert g.grad(x).dtype == np.float32
    np.testing.assert_array_equal(g.grad(x), [[0, 1]] * 4)


def test_grad_where():
    rng = np.random.default_rng(17)
    a = Tensor(rand(rng, 3, 4), requires_grad=True)
    b = Tensor(rand(rng, 3, 4), requires_grad=True)
    mask = rng.random((3, 4)) < 0.5
    check(lambda p: T.where(mask, p["a"], p["b"]).sum(), {"a": a, "b": b})


def rotation_tables(rng, t_len, half, dtype=np.float64):
    angles = rng.uniform(-np.pi, np.pi, (t_len, half))
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def test_grad_rotate_pairs():
    rng = np.random.default_rng(19)
    cos, sin = rotation_tables(rng, 3, 2)
    x = Tensor(rand(rng, 2, 2, 3, 4), requires_grad=True)
    w = rand(rng, 2, 2, 3, 4)
    check(lambda p: (T.rotate_pairs(p["x"], cos, sin) * w).sum(), {"x": x})


def interleave_reference(x, cos, sin):
    """The rotation from composite ops: strided slices, four products and a
    concat/reshape interleave, as model.apply_rope recorded it before the
    primitive (13 tape nodes per tensor)."""
    even = x[..., 0::2]
    odd = x[..., 1::2]
    r_even = even * cos - odd * sin
    r_odd = even * sin + odd * cos
    stacked = T.concat(
        [r_even.reshape(*r_even.shape, 1), r_odd.reshape(*r_odd.shape, 1)], axis=-1
    )
    return stacked.reshape(*x.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rotate_pairs_matches_interleave_reference(dtype):
    rng = np.random.default_rng(20)
    cos, sin = rotation_tables(rng, 5, 4, dtype)
    x0 = rng.standard_normal((3, 5, 8)).astype(dtype)
    w = rng.standard_normal((3, 5, 8)).astype(dtype)

    def run(rotate):
        x = Tensor(x0.copy(), requires_grad=True)
        with Graph() as g:
            y = rotate(x, cos, sin)
            loss = (y.log_softmax(-1) * w).sum()
        g.backward(loss)
        return y.data, g.grad(y), g.grad(x)

    y_ref, gy_ref, gx_ref = run(interleave_reference)
    y, gy, gx = run(T.rotate_pairs)
    # max_'s VJP divides by an int64 tie count, so the upstream gradient is
    # float64 even for a float32 input; the input gradient keeps x's dtype
    assert gy.dtype == gy_ref.dtype == np.float64
    assert y.dtype == y_ref.dtype == dtype and y.flags.c_contiguous
    np.testing.assert_array_equal(y, y_ref)
    assert gx.dtype == gx_ref.dtype == dtype
    np.testing.assert_array_equal(gx, gx_ref)


# -- the sigmoid kernel against its branchy form -----------------------------------


def branchy_sigmoid(x):
    """The reference: exp only on the side where it cannot overflow, one
    boolean gather and scatter per side."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def assert_sigmoid_kernel_matches(x):
    want = branchy_sigmoid(x)
    raising = dict(over="raise", invalid="raise", divide="raise") if np.all(np.isfinite(x)) else {}
    with np.errstate(**raising):  # finite inputs must not overflow or divide by zero
        got = T._stable_sigmoid(x)
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype == x.dtype and got.shape == x.shape
    assert np.array_equal(got, want, equal_nan=True)


def sigmoid_edges(dtype):
    """Signed zeros, infinities, the smallest subnormal, ±1e4, and each side of
    exp's overflow (log max, ~88.7 / ~709.8) and underflow (log of the smallest
    subnormal, ~-103.3 / ~-744.4) thresholds, both signs."""
    info = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal, 1e4, np.nan]
    for t in (np.log(info.max), np.log(info.smallest_subnormal)):
        t = dtype(t)
        edges += [np.nextafter(t, dtype(-np.inf)), t, np.nextafter(t, dtype(np.inf))]
    x = np.array(edges, dtype=dtype)
    return np.concatenate([x, -x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_kernel_matches_branchy_form(dtype):
    edges = sigmoid_edges(dtype)
    assert_sigmoid_kernel_matches(edges)
    for v in edges:
        assert_sigmoid_kernel_matches(np.array(v, dtype=dtype))  # 0-d
    assert_sigmoid_kernel_matches(edges[np.isfinite(edges)])
    block = (np.random.default_rng(25).standard_normal((48, 33)) * 40).astype(dtype)
    for x in (block, block.T, block[:, ::3], block[1::2, ::-5].T, np.empty((0, 3), dtype=dtype)):
        assert_sigmoid_kernel_matches(x)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([32, 64]).flatmap(
    lambda width: st.lists(st.floats(allow_nan=False, allow_infinity=False, width=width), min_size=1, max_size=40)
    .map(lambda xs: np.array(xs, dtype=np.float32 if width == 32 else np.float64))))
def test_sigmoid_kernel_matches_branchy_form_on_finite_floats(x):
    assert_sigmoid_kernel_matches(x)


# -- layer primitives against the composites they replace ------------------------


def rms_norm_reference(x, g, eps):
    return x / ((x * x).mean(axis=-1, keepdims=True) + eps).sqrt() * g


def masked_softmax_reference(scores, mask, scale, fill):
    s = scores * scale
    if mask is not None:
        s = T.where(mask, s, Tensor(np.full_like(s.data, fill)))
    return s.softmax(axis=-1)


def attention_reference(q, k, v, count, hs, mask, rope, scale, fill):
    """The composite that model.gqa_attention recorded per bucket before the
    primitive (17 tape nodes): head reshapes and transposes, ``rotate_pairs``,
    two matmuls and the masked softmax."""
    t_len, nh, nkv = q.shape[0] // count, q.shape[1] // hs, k.shape[1] // hs

    def heads(x, n):
        return x.reshape(count, t_len, n, hs).transpose(0, 2, 1, 3)

    q, k, v = heads(q, nh), heads(k, nkv), heads(v, nkv)
    if rope is not None:
        q, k = T.rotate_pairs(q, *rope), T.rotate_pairs(k, *rope)
    scores = q.reshape(count, nkv, nh // nkv, t_len, hs) @ k.reshape(count, nkv, 1, t_len, hs).transpose(0, 1, 2, 4, 3)
    out = masked_softmax_reference(scores, mask, scale, fill) @ v.reshape(count, nkv, 1, t_len, hs)
    return out.transpose(0, 3, 1, 2, 4).reshape(count * t_len, nh * hs)


def quarter_turns(rng, shape, dtype):
    """Exact rotation tables of multiples of 90 degrees: integer inputs stay integers."""
    turns = rng.integers(0, 4, shape)
    return np.array([1, 0, -1, 0], dtype=dtype)[turns], np.array([0, 1, 0, -1], dtype=dtype)[turns]


def layer_cases(rng, dtype):
    """name: (primitive, composite reference, input arrays, other consumer of
    the first input or None). Integer-valued scores tie often, and one
    masked row has no key left, so max's tie split is exercised. The
    attention cases take two sequences of 5 rows, 4 query heads over 2 KV
    heads of 4 channels; the first sequence's rotation is by quarter turns,
    so its integer heads keep integer (often tied) scores, the second's by
    arbitrary angles. The swiglu case is the FFN node ``swiglu_ffn`` over one
    sequence of 4 rows, x also feeding a residual add."""
    mask = np.tril(np.ones((5, 5), dtype=bool)) & (rng.random((5, 5)) < 0.8)
    mask[0] = False
    quarter, angles = quarter_turns(rng, (5, 2), dtype), rotation_tables(rng, 5, 2, dtype)
    rope = tuple(np.stack([a, b])[:, None] for a, b in zip(quarter, angles))  # (2, 1, 5, 2) each
    heads = [rng.integers(-2, 3, (10, width)).astype(dtype) for width in (16, 8, 8)]
    return {
        "rms_norm": (lambda x, g: T.rms_norm(x, g, 1e-6), lambda x, g: rms_norm_reference(x, g, 1e-6),
                     [rng.standard_normal((4, 6)).astype(dtype), rng.standard_normal(6).astype(dtype)],
                     lambda y, x: x + y),
        "attention": (lambda q, k, v: T.attention(q, k, v, T.RowBlock([5, 5]), 4, [mask], [rope], 0.35, -1e9),
                      lambda q, k, v: attention_reference(q, k, v, 2, 4, mask, rope, 0.35, -1e9), heads, None),
        "attention_plain": (lambda q, k, v: T.attention(q, k, v, T.RowBlock([5, 5]), 4, [None], [None], 0.35, -1e9),
                            lambda q, k, v: attention_reference(q, k, v, 2, 4, None, None, 0.35, -1e9), heads,
                            None),
        "swiglu": (T.swiglu_ffn, reference.swiglu_ffn,
                   [rng.standard_normal(shape).astype(dtype) for shape in ((4, 6), (6, 5), (6, 5), (5, 6))],
                   lambda y, x: x + y),
    }


LAYER_CASES = ["rms_norm", "attention", "attention_plain", "swiglu"]


@pytest.mark.parametrize("name", LAYER_CASES)
def test_grad_layer_primitives(name):
    rng = np.random.default_rng(22)
    op, _, arrays, _ = layer_cases(rng, np.float64)[name]
    arrays = [a + rng.uniform(-0.1, 0.1, a.shape) for a in arrays]  # no ties for finite differences
    w = rand(rng, *op(*[Tensor(a) for a in arrays]).shape)
    check(lambda q: (op(*q.values()) * w).sum(), {str(i): Tensor(a, requires_grad=True) for i, a in enumerate(arrays)})


def test_attention_needs_one_mask_and_rope_per_bucket():
    # a short list would leave the missing buckets' output rows unwritten
    rng = np.random.default_rng(25)
    block = T.RowBlock([3, 5, 3])
    q, k, v = (Tensor(rng.standard_normal((11, width))) for width in (16, 8, 8))
    masks = [np.tril(np.ones((n, n), dtype=bool)) for n in (3, 5)]
    T.attention(q, k, v, block, 4, masks, [None, None], 0.35, -1e9)
    for short in ([masks[:1], [None, None]], [masks, [None]]):
        with pytest.raises(ShapeError, match="2 buckets"):
            T.attention(q, k, v, block, 4, *short, 0.35, -1e9)


@st.composite
def packed_attention_cases(draw):
    """A bucket of one or two sequences of t rows, each packed with samples
    that start at a shared set of cuts plus its own (segments of one token
    and cuts anywhere, so only the common cuts split the bucket), under a
    causal or a bidirectional segment mask, perhaps with one fully masked
    row; integer heads (tied scores) or real ones; the dtype's fill or one
    near or above the scores; then a seed."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    t_len = draw(st.integers(1, 21))
    starts = st.sets(st.integers(1, t_len - 1), max_size=6) if t_len > 1 else st.just(set())
    shared = draw(starts)
    layouts = [shared | draw(starts) for _ in range(draw(st.integers(1, 2)))]
    blank = draw(st.none() | st.tuples(st.integers(0, len(layouts) - 1), st.integers(0, t_len - 1)))
    fill = draw(st.sampled_from([-1e9 if dtype == np.float32 else -1e30, -2.0, 0.0, 100.0]))
    return dtype, t_len, layouts, draw(st.booleans()), blank, draw(st.booleans()), fill, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(packed_attention_cases())
def test_attention_on_packed_masks_keeps_the_composites_bytes(case):
    """Output and q, k, v gradients equal ``attention_reference``'s byte for
    byte, the sign of a zero included, whether the softmax runs on the
    blocks between the common cuts or as one block: with a fully masked row
    (whose weight spreads over every key), or with a fill close enough to a
    row's max, or above it, that the masked keys outside its block would not
    weigh exactly 0. Zeroed rows of the upstream gradient give signed zeros."""
    dtype, t_len, layouts, causal, blank, integer, fill, seed = case
    rng = np.random.default_rng(seed)
    segments = [np.searchsorted(sorted(starts), np.arange(t_len), side="right") for starts in layouts]
    mask = np.stack([seg[:, None] == seg[None, :] for seg in segments])
    if causal:
        mask &= np.tril(np.ones((t_len, t_len), dtype=bool))
    if blank is not None:
        mask[blank] = False
    cuts = set.intersection(*layouts) if blank is None else set()
    assert T._cuts(mask[:, None, None], t_len) == tuple(sorted(cuts))
    count = len(layouts)
    tables = [quarter_turns(rng, (t_len, 2), dtype) if integer else rotation_tables(rng, t_len, 2, dtype)
              for _ in range(count)]
    rope = tuple(np.stack(part)[:, None] for part in zip(*tables))  # (count, 1, t, 2) each
    heads = [(rng.integers(-2, 3, (count * t_len, width)) if integer else
              rng.standard_normal((count * t_len, width))).astype(dtype) for width in (16, 8, 8)]
    w = rng.standard_normal((count * t_len, 16)).astype(dtype) * (rng.random((count * t_len, 1)) < 0.7)

    def run(fn):
        xs = [Tensor(a.copy(), requires_grad=True) for a in heads]
        with Graph() as g:
            y = fn(*xs)
            loss = (y * w).sum()
        g.backward(loss)
        return [y.data] + [g.grad(x) for x in xs]

    got = run(lambda q, k, v: T.attention(q, k, v, T.RowBlock([t_len] * count), 4, [mask[:, None, None]], [rope],
                                          0.35, fill))
    want = run(lambda q, k, v: attention_reference(q, k, v, count, 4, mask[:, None, None], rope, 0.35, fill))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def swiglu_ffn_cases(draw):
    """A dtype; the rows' layout: one sequence (no block), a group of equal lengths, a ragged
    group whose length-2 and length-4 rows are not contiguous, or drawn lengths; the widths; the
    inputs' scale, up to where the sigmoid saturates; then a seed."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lengths = draw(st.sampled_from([None, (3, 3, 3), (2, 4, 2, 3, 4)]) | st.lists(st.integers(1, 5), min_size=1,
                                                                                   max_size=5).map(tuple))
    return (dtype, lengths, draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.sampled_from([0.1, 1.0, 30.0])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(swiglu_ffn_cases())
def test_swiglu_ffn_keeps_the_composites_bytes(case):
    """Output and the gradients of x, w_gate, w_up and w_down equal those of the composite in
    ``reference.py`` byte for byte, the sign of a zero included, with every input needing a
    gradient and with each one constant in turn (it then gets none). Zeroed rows of the upstream
    gradient give signed zeros."""
    dtype, lengths, d, d_ff, scale, seed = case
    rng = np.random.default_rng(seed)
    rows = 5 if lengths is None else sum(lengths)
    block = None if lengths is None else T.RowBlock(lengths)
    arrays = [(rng.standard_normal(shape) * s).astype(dtype)
              for shape, s in (((rows, d), scale), ((d, d_ff), 1.0), ((d, d_ff), 1.0), ((d_ff, d), 1.0))]
    w = (rng.standard_normal((rows, d)) * (rng.random((rows, 1)) < 0.7)).astype(dtype)

    def run(fn, constant):
        xs = [Tensor(a.copy(), requires_grad=i != constant) for i, a in enumerate(arrays)]
        with Graph() as g:
            y = fn(*xs, block)
            loss = (y * w).sum()
        g.backward(loss)
        return y.data, [g.grad(x) for x in xs]

    for constant in (None, 0, 1, 2, 3):
        (got, got_grads), (want, want_grads) = run(T.swiglu_ffn, constant), run(reference.swiglu_ffn, constant)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for i, (a, b) in enumerate(zip(got_grads, want_grads)):
            if i == constant:
                assert a is None and b is None
            else:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_swiglu_ffn_rejects_shapes_that_do_not_conform():
    x, w = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 5)))
    for args in ((x, w, w, Tensor(np.ones((4, 4)))), (x, w, Tensor(np.ones((4, 6))), Tensor(np.ones((5, 4)))),
                 (Tensor(np.ones(4)), w, w, Tensor(np.ones((5, 4))))):
        with pytest.raises(ShapeError, match="swiglu_ffn"):
            T.swiglu_ffn(*args)
    with pytest.raises(ShapeError, match="mixed dtypes"):
        T.swiglu_ffn(x, w, Tensor(np.ones((4, 5), dtype=np.float32)), Tensor(np.ones((5, 4))))


# a log_softmax head sends back float64 gradients for float32 inputs, since
# max_'s VJP divides by an int64 tie count; a linear head keeps float32
@pytest.mark.parametrize("dtype,head", [(np.float32, "log_softmax"), (np.float32, "linear"),
                                        (np.float64, "log_softmax"), (np.float64, "linear")])
@pytest.mark.parametrize("name", LAYER_CASES)
def test_layer_primitive_matches_composite(name, dtype, head):
    op, reference, arrays, consumer = layer_cases(np.random.default_rng(23), dtype)[name]

    def run(fn):
        xs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Graph() as g:
            y = fn(*xs)
            z = y if consumer is None else consumer(y, xs[0])
            w = np.random.default_rng(24).standard_normal(z.shape).astype(dtype)
            loss = ((z.log_softmax(-1) if head == "log_softmax" else z) * w).sum()
        g.backward(loss)
        return [y.data, g.grad(y)] + [g.grad(x) for x in xs]

    got, want = run(op), run(reference)
    assert got[1].dtype == (np.float64 if head == "log_softmax" else dtype)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", LAYER_CASES)
def test_layer_primitive_with_a_constant_input_keeps_the_other_gradients(name, dtype):
    """Each input in turn needs no gradient (attention's v, rms_norm's gain and
    swiglu_ffn's x, listed twice, among them): it gets none, and every other input's gradient
    keeps the bytes of the run in which all of them need one."""
    op, _, arrays, _ = layer_cases(np.random.default_rng(23), dtype)[name]
    w = np.random.default_rng(24).standard_normal(op(*[Tensor(a) for a in arrays]).shape).astype(dtype)

    def run(constant):
        xs = [Tensor(a.copy(), requires_grad=i != constant) for i, a in enumerate(arrays)]
        with Graph() as g:
            loss = (op(*xs) * w).sum()
        g.backward(loss)
        return [g.grad(x) for x in xs]

    want = run(None)
    for constant in range(len(arrays)):
        got = run(constant)
        assert got[constant] is None
        for i, (a, b) in enumerate(zip(got, want)):
            if i != constant:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("composite", ["softmax", "log_softmax"])
def test_grad_softmax_composites(composite):
    rng = np.random.default_rng(18)
    x = Tensor(rand(rng, 3, 6), requires_grad=True)
    w = rand(rng, 3, 6)  # fixed weighting so the scalar depends on every entry
    check(lambda p: (getattr(p["x"], composite)(-1) * w).sum(), {"x": x})


def test_target_logprobs_rows_and_mask():
    rng = np.random.default_rng(21)
    targets = np.array([3, 0, 6, 2, 3])
    mask = np.array([True, False, True, True, False])
    for dtype in (np.float32, np.float64):
        logits = Tensor(rng.standard_normal((5, 7)).astype(dtype), requires_grad=True)
        want = logits.log_softmax(-1).numpy()[np.arange(5), targets]
        np.testing.assert_array_equal(T.target_logprobs(logits, targets).numpy().sum(-1), want)
        with Graph() as g:
            dense = T.target_logprobs(logits, targets, mask)
            g.backward(dense.sum())
        rows = dense.numpy().sum(-1)
        np.testing.assert_array_equal(rows[mask], want[mask])
        np.testing.assert_array_equal(rows[~mask], 0.0)
        grad = g.grad(logits)
        np.testing.assert_array_equal(grad[~mask], 0.0)
        assert np.all(grad[mask] != 0.0)
    x = Tensor(rand(rng, 5, 7), requires_grad=True)
    check(lambda p: T.target_logprobs(p["x"], targets, mask).sum(), {"x": x})


def test_grad_random_fuzz_suite():
    """20 random compositions of primitives, all within tolerance."""
    rng = np.random.default_rng(19)
    for trial in range(20):
        a = Tensor(rand(rng, 3, 4), requires_grad=True)
        b = Tensor(rand(rng, 4, 3), requires_grad=True)

        def loss(p):
            h = p["a"] @ p["b"]  # (3, 3)
            h = h.silu() + h.exp() * 0.5
            h = h.softmax(-1)
            return (h * h).sum().log()

        check(loss, {"a": a, "b": b})


# -- hypothesis properties ------------------------------------------------------


finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_softmax_always_normalized(xs):
    out = Tensor(np.array(xs, dtype=np.float64)).softmax().numpy()
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_softmax_shift_invariant(xs, c):
    x = np.array(xs, dtype=np.float64)
    a = Tensor(x).softmax().numpy()
    b = Tensor(x + c).softmax().numpy()
    np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=6))
def test_sum_linearity(xs):
    x = np.array(xs, dtype=np.float64)
    lhs = (Tensor(x) * 3.0).sum().item()
    rhs = 3.0 * Tensor(x).sum().item()
    assert abs(lhs - rhs) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_transpose_involution(n, m):
    x = np.arange(n * m, dtype=np.float64).reshape(n, m)
    np.testing.assert_array_equal(Tensor(x).transpose().transpose().numpy(), x)
