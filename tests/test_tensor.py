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
    out = T.softmax(T.Tensor(x), axis=1).data
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_empty_axis_rejected():
    with pytest.raises(T.ShapeError):
        T.softmax(T.Tensor(np.zeros((3, 0))), axis=1)


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
    out = T.tsum(x * 2.0 + 1.0)
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
    T.tsum(x * c).backward()
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
    z = T.tsum(y * T.tanh(y))
    tape = T.ComputationTape.trace(z)
    pos = {id(t): i for i, t in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent, _ in node._vjps:
            assert pos[id(parent)] < pos[id(node)]


def test_grad_accumulates_over_reuse():
    x = T.Tensor([2.0], requires_grad=True)
    y = x * x + x * 3.0  # x reused three times
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
        return T.tsum(u * v)

    def version2(x):
        v = T.sigmoid(x)
        u = T.tanh(x)
        return T.tsum(u * v)

    g = []
    for fn in (version1, version2):
        leaf = T.Tensor(a0.copy(), requires_grad=True)
        fn(leaf).backward()
        g.append(leaf.grad.copy())
    assert np.array_equal(g[0], g[1])


# -- finite-difference battery -----------------------------------------------


PRIMITIVES = [
    ("add_bias", lambda x: T.tsum(T.add(x, T.Tensor(np.linspace(-1, 1, x.shape[-1]))))),
    ("sub", lambda x: T.tsum(T.sub(x, T.square(x)))),
    ("mul", lambda x: T.tsum(T.mul(x, T.tanh(x)))),
    ("div", lambda x: T.tsum(T.div(x, T.Tensor(np.full(x.shape, 2.0)) + T.square(x)))),
    ("tanh", lambda x: T.tsum(T.tanh(x))),
    ("sigmoid", lambda x: T.tsum(T.sigmoid(x))),
    ("sqrt", lambda x: T.tsum(T.sqrt(T.square(x) + 1.0))),
    ("square", lambda x: T.tsum(T.square(x))),
    ("mean_axis", lambda x: T.tsum(T.square(T.tmean(x, axis=1)))),
    ("sum_keepdims", lambda x: T.tsum(T.square(x - T.tmean(x, axis=1, keepdims=True)))),
    ("softmax", lambda x: T.tsum(T.square(T.softmax(x, axis=1)))),
    ("matmul", lambda x: T.tsum(T.square(T.matmul(x, T.Tensor(np.linspace(-1, 1, 12).reshape(4, 3)))))),
    ("reshape_transpose", lambda x: T.tsum(T.square(T.transpose(x.reshape(2, 6))))),
    ("getitem", lambda x: T.tsum(T.square(x[1:, :2]))),
    ("concat", lambda x: T.tsum(T.square(T.concat([x[:1], x[1:]], axis=0)))),
    ("clamp_min", lambda x: T.tsum(T.clamp_min(T.square(x), 0.25))),
]


@pytest.mark.parametrize("name,build", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients(name, build, rng):
    x0 = rng.uniform(-1, 1, (3, 4))
    check_grad(build, x0, tol=1e-4)


def test_relu_gradient_off_kink(rng):
    x0 = rng.uniform(-1, 1, (3, 4))
    x0[np.abs(x0) < 1e-3] = 0.5  # stay off the measure-zero kink
    check_grad(lambda x: T.tsum(T.relu(x) * T.Tensor(np.ones((3, 4)))), x0)


def test_take_scatter_roundtrip_and_grad(rng):
    x0 = rng.normal(size=(4, 6))
    idx = np.argsort(-x0, axis=1, kind="stable")[:, :2]
    idx = np.sort(idx, axis=1)

    def build(x):
        picked = T.take_rows(x, idx)
        spread = T.scatter_rows(T.softmax(picked, axis=1), idx, 6)
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
        s = T.softmax(h, axis=1)
        m = h - T.tmean(h, axis=1, keepdims=True)
        return T.tsum(s * m) + T.tmean(T.square(h))

    check_grad(build, rng.uniform(-1, 1, (5, 4)))
