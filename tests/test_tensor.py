import math

import numpy as np
import pytest

from groupmoe import tensor as T
from groupmoe.encoders import EncoderConfig
from groupmoe.moe import Forecaster, MoEConfig
from groupmoe.objective import LossWeights
from groupmoe.panel import DayBatch
from groupmoe.train import day_loss

from conftest import check_grad


# -- matmul ---------------------------------------------------------------


def test_matmul_identity():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_inner_product():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_against_triple_loop(rng):
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 2))
    # independent oracle: explicit triple loop
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as e:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_matmul_batched_weight(rng):
    a = rng.normal(size=(5, 3, 4))
    w = rng.normal(size=(4, 2))
    got = T.matmul(T.Tensor(a), T.Tensor(w)).data
    for i in range(5):
        assert np.allclose(got[i], a[i] @ w, atol=1e-12)


def test_matmul_bmm(rng):
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(2, 3, 5, 4))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert got.shape == (2, 3, 4, 4)
    assert np.allclose(got[1, 2], a[1, 2] @ b[1, 2], atol=1e-12)


# -- softmax ----------------------------------------------------------------


def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0])).data
    assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_shift_invariance():
    for c in (-100.0, 0.0, 7.5, 1e6):
        out = T.softmax(T.Tensor([c, c + math.log(2.0)])).data
        assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-9)


def test_softmax_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    e2, e1 = mpmath.exp(2), mpmath.exp(1)
    want = [float(e2 / (e2 + e1)), float(e1 / (e2 + e1))]
    # frozen from the oracle above
    assert abs(want[0] - 0.7310585786300049) < 1e-15
    out = T.softmax(T.Tensor([2.0, 1.0])).data
    assert np.max(np.abs(out - np.array(want))) < 1e-12


def test_softmax_sums_to_one(rng):
    x = rng.uniform(-30, 30, (7, 9))
    out = T.softmax(T.Tensor(x)).data
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_empty_axis_rejected():
    with pytest.raises(T.ShapeError):
        T.softmax(T.Tensor(np.zeros((3, 0))))


@pytest.mark.parametrize("width", [*range(1, 131), 200, 300])
def test_row_sum_replays_numpy_pairwise_order(width, rng):
    # magnitudes spread over 40 orders, so any change of summation order shows
    x = rng.normal(size=(37, width)) * np.exp(rng.uniform(-46, 46, (37, width)))
    x[0] = -0.0  # numpy's sum of this row is +0.0
    keys = np.ascontiguousarray(x.T)  # each row of x is a column here
    assert T._key_sum(keys).tobytes() == x.sum(axis=-1).tobytes()
    assert T._key_max(keys).tobytes() == x.max(axis=-1).tobytes()


@pytest.mark.parametrize("shape", [(5,), (4, 8), (3, 5, 9), (5000, 9), (2, 130), (3, 200)])
def test_softmax_matches_three_line_formula_bytes(shape, rng):
    x = rng.normal(size=shape) * 10.0
    g = rng.normal(size=shape)
    want = x - x.max(axis=-1, keepdims=True)
    np.exp(want, out=want)
    want /= want.sum(axis=-1, keepdims=True)
    want_grad = want * (g - (g * want).sum(axis=-1, keepdims=True))
    leaf = T.Tensor(x, requires_grad=True)
    out = T.softmax(leaf)
    T.tsum(T.mul(out, T.Tensor(g))).backward()
    assert out.data.tobytes() == want.tobytes()
    assert leaf.grad.tobytes() == want_grad.tobytes()


# -- attention --------------------------------------------------------------


def composed_attention(q, k, v, heads):
    """Oracle: the split-heads / softmax / merge-heads graph T.attention fuses."""
    n, length, d = q.shape

    def split(x):
        return T.transpose(T.reshape(x, (n, length, heads, d // heads)), (0, 2, 1, 3))

    qh, kh, vh = (split(t) for t in (q, k, v))
    scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), T.Tensor(1.0 / math.sqrt(d / heads)))
    probs = T.softmax(scores)
    out = T.reshape(T.transpose(T.matmul(probs, vh), (0, 2, 1, 3)), (n, length, d))
    return out, probs.data


def attention_run(fn, arrays, weight, grads=(True, True, True)):
    """Output, probabilities and input gradients of sum(weight * attention)."""
    q, k, v = (T.Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, grads))
    out, probs = fn(q, k, v)
    T.tsum(T.mul(out, T.Tensor(weight))).backward()
    return [out.data, probs] + [t.grad for t in (q, k, v)]


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("length", [1, 3, 5, 9, 15, 16, 17])
def test_attention_matches_composed_graph_bytes(heads, length, rng):
    arrays = [rng.normal(size=(6, length, 8)) for _ in range(3)]
    weight = rng.normal(size=(6, length, 8))
    got = attention_run(lambda q, k, v: T.attention(q, k, v, heads), arrays, weight)
    want = attention_run(lambda q, k, v: composed_attention(q, k, v, heads), arrays, weight)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", [3, 9, 17])
@pytest.mark.parametrize("d,heads", [(16, 16), (12, 2), (16, 1), (40, 2)])
def test_attention_matches_composed_graph_head_widths(d, heads, length, rng):
    # head widths 1, 6, 16 and 20: inside and outside the range where the
    # products read the keys-major buffers through views
    arrays = [rng.normal(size=(4, length, d)) for _ in range(3)]
    weight = rng.normal(size=(4, length, d))
    got = attention_run(lambda q, k, v: T.attention(q, k, v, heads), arrays, weight)
    want = attention_run(lambda q, k, v: composed_attention(q, k, v, heads), arrays, weight)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_attention_matches_composed_graph_across_row_blocks(rng):
    # 500 x 4 heads x 9 columns of 9 keys: several column blocks of the softmax helpers
    arrays = [rng.normal(size=(500, 9, 16)) * 3.0 for _ in range(3)]
    weight = rng.normal(size=(500, 9, 16))
    assert 500 * 4 * 9 > 2 * T._BLOCK_COLS
    got = attention_run(lambda q, k, v: T.attention(q, k, v, 4), arrays, weight)
    want = attention_run(lambda q, k, v: composed_attention(q, k, v, 4), arrays, weight)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grads", [(False, True, True), (True, False, True), (True, True, False),
                                   (False, False, True), (True, False, False)])
def test_attention_parent_without_grad(grads, rng):
    arrays = [rng.normal(size=(5, 9, 8)) for _ in range(3)]
    weight = rng.normal(size=(5, 9, 8))
    got = attention_run(lambda q, k, v: T.attention(q, k, v, 2), arrays, weight, grads)
    want = attention_run(lambda q, k, v: composed_attention(q, k, v, 2), arrays, weight, grads)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()
    assert [g is not None for g in got[2:]] == list(grads)


def test_attention_is_one_tape_node(rng):
    q, k, v = (T.Tensor(rng.normal(size=(3, 9, 8)), requires_grad=True) for _ in range(3))
    out, probs = T.attention(q, k, v, 4)
    assert probs.shape == (3, 4, 9, 9)
    assert out._parents == (q, k, v)
    assert len(T.ComputationTape.trace(T.tsum(out)).nodes) == 5


def test_three_parent_vjp_runs_once_per_backward(rng):
    # the output feeds two consumers, so its gradient is accumulated before
    # its one closure runs; v needs no gradient and gets none
    q, k = (T.Tensor(rng.normal(size=(3, 4, 8)), requires_grad=True) for _ in range(2))
    v = T.Tensor(rng.normal(size=(3, 4, 8)))
    out, _ = T.attention(q, k, v, 2)
    calls = []
    vjp = out._vjp
    out._vjp = lambda g: calls.append(g) or vjp(g)
    T.add(T.tsum(out), T.tsum(T.square(out))).backward()
    assert len(calls) == 1 and calls[0] is out.grad
    assert q.grad is not None and k.grad is not None and v.grad is None


def test_attention_rejects_bad_shapes():
    x = T.Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(T.ShapeError):
        T.attention(x, x, T.Tensor(np.zeros((2, 3, 4))), 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, 3)


# -- elementwise -----------------------------------------------------------


def test_elementwise_trivia():
    assert T.tanh(T.Tensor(0.0)).item() == 0.0
    assert T.tmean(T.Tensor([1.0, 2.0, 3.0])).item() == 2.0
    x = T.Tensor([3.0], requires_grad=True)
    T.tsum(T.square(x)).backward()
    assert x.grad.tolist() == [6.0]


def test_elementwise_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))


def test_bias_broadcast_and_grad():
    x = T.Tensor(np.ones((4, 3)), requires_grad=True)
    b = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    out = T.tsum(T.add(x, b))
    out.backward()
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])
    assert np.array_equal(x.grad, np.ones((4, 3)))


def test_scalar_broadcast():
    x = T.Tensor(np.full((2, 2), 3.0), requires_grad=True)
    out = T.tsum(T.add(T.mul(x, T.Tensor(2.0)), T.Tensor(1.0)))
    out.backward()
    assert out.item() == 28.0
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))


# -- backward contract --------------------------------------------------------


def test_backward_sum_of_squares():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.tsum(T.square(x)).backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_constant_leaf_gets_no_grad():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    c = T.Tensor([5.0, 5.0])
    T.tsum(T.mul(x, c)).backward()
    assert c.grad is None
    assert x.grad.tolist() == [5.0, 5.0]


def test_backward_twice_rejected():
    x = T.Tensor([1.0], requires_grad=True)
    loss = T.tsum(T.square(x))
    loss.backward()
    with pytest.raises(T.GraphError):
        loss.backward()


def test_backward_nonscalar_rejected():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.GraphError):
        T.square(x).backward()


def test_tape_is_topologically_ordered():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.square(x)
    z = T.tsum(T.mul(y, T.tanh(y)))
    tape = T.ComputationTape.trace(z)
    pos = {id(t): i for i, t in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_grad_accumulates_over_reuse():
    x = T.Tensor([2.0], requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, T.Tensor(3.0)))  # x reused three times
    T.tsum(y).backward()
    assert x.grad.tolist() == [7.0]  # 2x + 3


def test_grad_contributions_are_not_written_in_place():
    # x's first contribution is y's gradient itself; the second must not
    # be added into that shared array
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.add(x, x)
    T.tsum(y).backward()
    assert x.grad.tolist() == [2.0, 2.0]
    assert y.grad.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("kind", ["conv", "recurrent", "attention"])
def test_forecaster_backward_grads_are_c_contiguous(kind, rng):
    # transposed or broadcast gradient views are copied to C order, so
    # every matmul in the sweep sees the same layout
    enc = EncoderConfig(kind=kind, d_h=8, depth=2, heads=2, kernel=2)
    moe = MoEConfig(groups=3, experts_per_group=3, top_k=2, d_e=4, agg_heads=2)
    model = Forecaster(enc, moe, n_features=3, window=4, seed=0)
    batch = DayBatch(day="d0", windows=rng.normal(size=(6, 4, 3)), labels=rng.normal(size=6),
                     stock_ids=[f"s{i}" for i in range(6)])
    total, _ = day_loss(model, [batch], LossWeights())
    total.backward()
    nodes = T.ComputationTape.trace(total).nodes
    strided = [n for n in nodes if n.grad is not None and not n.grad.flags.c_contiguous]
    assert strided == []


def test_backward_order_independent(rng):
    # same math, two interleavings of independent subexpressions
    a0 = rng.normal(size=(3, 3))

    def version1(x):
        u = T.tanh(x)
        v = T.sigmoid(x)
        return T.tsum(T.mul(u, v))

    def version2(x):
        v = T.sigmoid(x)
        u = T.tanh(x)
        return T.tsum(T.mul(u, v))

    g = []
    for fn in (version1, version2):
        leaf = T.Tensor(a0.copy(), requires_grad=True)
        fn(leaf).backward()
        g.append(leaf.grad.copy())
    assert np.array_equal(g[0], g[1])


def test_getitem_basic_slice_is_a_view_with_the_same_gradient(rng):
    x0 = rng.normal(size=(4, 5, 3))
    key = np.s_[:, 1:4, :]
    x = T.Tensor(x0.copy(), requires_grad=True)
    y = T.getitem(x, key)
    assert np.shares_memory(y.data, x.data)
    assert y.data.tobytes() == x0[key].tobytes()
    w = rng.normal(size=y.shape)
    T.tsum(T.mul(y, T.Tensor(w))).backward()
    want = np.zeros_like(x0)
    want[key] = w
    assert x.grad.tobytes() == want.tobytes()


# -- finite-difference battery -----------------------------------------------


ROUTED_W = [T.Tensor(np.linspace(-1, 1, 16).reshape(1, 4, 4) * s) for s in (0.9, -1.3, 0.7)]
PRIMITIVES = [
    ("add_bias", lambda x: T.tsum(T.add(x, T.Tensor(np.linspace(-1, 1, x.shape[-1]))))),
    ("sub", lambda x: T.tsum(T.sub(x, T.square(x)))),
    ("mul", lambda x: T.tsum(T.mul(x, T.tanh(x)))),
    ("div", lambda x: T.tsum(T.div(x, T.add(T.Tensor(np.full(x.shape, 2.0)), T.square(x))))),
    ("tanh", lambda x: T.tsum(T.tanh(x))),
    ("sigmoid", lambda x: T.tsum(T.sigmoid(x))),
    ("sqrt", lambda x: T.tsum(T.sqrt(T.add(T.square(x), T.Tensor(1.0))))),
    ("square", lambda x: T.tsum(T.square(x))),
    ("mean_axis", lambda x: T.tsum(T.square(T.tmean(x, axis=1)))),
    ("sum_keepdims", lambda x: T.tsum(T.square(T.sub(x, T.tmean(x, axis=1, keepdims=True))))),
    ("softmax", lambda x: T.tsum(T.square(T.softmax(x)))),
    ("attention", lambda x: T.tsum(T.square(T.attention(T.reshape(x, (1, 3, 4)), T.reshape(T.tanh(x), (1, 3, 4)),
                                                         T.reshape(T.square(x), (1, 3, 4)), 2)[0]))),
    ("routed_attention", lambda x: T.tsum(T.square(T.routed_attention(
        T.reshape(x, (1, 1, 3, 4)), np.array([[2, 0]]), *ROUTED_W, 2)))),
    ("matmul", lambda x: T.tsum(T.square(T.matmul(x, T.Tensor(np.linspace(-1, 1, 12).reshape(4, 3)))))),
    ("reshape_transpose", lambda x: T.tsum(T.square(T.transpose(T.reshape(x, (2, 6)))))),
    ("getitem", lambda x: T.tsum(T.square(T.getitem(x, np.s_[1:, :2])))),
    ("concat", lambda x: T.tsum(T.square(T.concat([T.getitem(x, np.s_[:1]), T.getitem(x, np.s_[1:])], axis=0)))),
    ("clamp_min", lambda x: T.tsum(T.clamp_min(T.square(x), 0.25))),
]


@pytest.mark.parametrize("name,build", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients(name, build, rng):
    x0 = rng.uniform(-1, 1, (3, 4))
    check_grad(build, x0, tol=1e-4)


@pytest.mark.parametrize("operand", ["x", "wq", "wk", "wv"])
def test_routed_attention_gradients(operand, rng):
    # two items, two groups of three; queries unsorted, several per group block
    arrays = {"x": rng.normal(size=(2, 2, 3, 4)), **{w: rng.normal(size=(2, 4, 4)) for w in ("wq", "wk", "wv")}}
    rows = np.array([[5, 0, 3], [1, 2, 4]])
    weight = T.Tensor(rng.normal(size=(2, 3, 4)))

    def build(leaf):
        args = {name: leaf if name == operand else T.Tensor(a) for name, a in arrays.items()}
        y = T.routed_attention(args["x"], rows, args["wq"], args["wk"], args["wv"], 2)
        return T.tsum(T.mul(weight, T.tanh(y)))

    check_grad(build, arrays[operand])


def test_relu_gradient_off_kink(rng):
    x0 = rng.uniform(-1, 1, (3, 4))
    x0[np.abs(x0) < 1e-3] = 0.5  # stay off the measure-zero kink
    check_grad(lambda x: T.tsum(T.mul(T.relu(x), T.Tensor(np.ones((3, 4))))), x0)


def test_take_scatter_roundtrip_and_grad(rng):
    x0 = rng.normal(size=(4, 6))
    idx = np.argsort(-x0, axis=1, kind="stable")[:, :2]
    idx = np.sort(idx, axis=1)

    def build(x):
        picked = T.take_rows(x, idx)
        spread = T.scatter_rows(T.softmax(picked), idx, 6)
        return T.tsum(T.square(spread))

    check_grad(build, x0)
    picked = T.take_rows(T.Tensor(x0), idx)
    back = T.scatter_rows(picked, idx, 6)
    mask = np.zeros((4, 6), dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    assert np.array_equal(back.data[mask], np.take_along_axis(x0, idx, axis=1).ravel())
    assert np.all(back.data[~mask] == 0.0)


def test_composite_gradient(rng):
    # deeper composite through most primitives at once
    w = rng.normal(size=(4, 4))

    def build(x):
        h = T.tanh(T.matmul(x, T.Tensor(w)))
        s = T.softmax(h)
        m = T.sub(h, T.tmean(h, axis=1, keepdims=True))
        return T.add(T.tsum(T.mul(s, m)), T.tmean(T.square(h)))

    check_grad(build, rng.uniform(-1, 1, (5, 4)))
