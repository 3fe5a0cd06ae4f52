import itertools
import math

import numpy as np
import pytest

from groupmoe import encoders as E
from groupmoe import tensor as T

from conftest import check_grad, finite_diff_grad, rel_err

KINDS = ["conv", "recurrent", "attention"]


def make_encoder(kind, d=3, window=5, d_h=8, depth=2, seed=0, **kw):
    cfg = E.EncoderConfig(kind=kind, d_h=d_h, depth=depth, heads=kw.get("heads", 2), kernel=kw.get("kernel", 3))
    return E.build_encoder(cfg, n_features=d, window=window, rng=np.random.default_rng(seed)), cfg


def rand_windows(rng, n=4, window=5, d=3):
    return rng.normal(size=(n, window, d))


@pytest.mark.parametrize("kind", KINDS)
def test_output_shape(kind, rng):
    enc, cfg = make_encoder(kind)
    z = enc(T.Tensor(rand_windows(rng)))
    assert z.shape == (4, cfg.d_h)
    z1 = enc(T.Tensor(rand_windows(rng, n=1)))
    assert z1.shape == (1, cfg.d_h)


@pytest.mark.parametrize("kind", ["conv", "recurrent"])
def test_zero_input_zero_output(kind):
    # biases start at zero, so an all-zero window propagates zeros
    enc, _ = make_encoder(kind)
    z = enc(T.Tensor(np.zeros((3, 5, 3))))
    assert np.max(np.abs(z.data)) == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_permutation_equivariance(kind, rng):
    enc, _ = make_encoder(kind)
    w = rand_windows(rng, n=6)
    perm = np.random.default_rng(1).permutation(6)
    z = enc(T.Tensor(w)).data
    zp = enc(T.Tensor(w[perm])).data
    assert rel_err(zp, z[perm]) < 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_finite_on_large_inputs(kind, rng):
    enc, _ = make_encoder(kind)
    w = rng.uniform(-10, 10, (5, 5, 3))
    assert np.all(np.isfinite(enc(T.Tensor(w)).data))


def test_conv_kernel_longer_than_window_rejected():
    with pytest.raises(E.EncoderConfigError):
        make_encoder("conv", window=2, kernel=3)


def test_attention_heads_divisibility_rejected():
    cfg = E.EncoderConfig(kind="attention", d_h=10, heads=3)
    assert cfg.validate()
    with pytest.raises(E.EncoderConfigError):
        E.build_encoder(cfg, n_features=3, window=5, rng=np.random.default_rng(0))


def test_recurrent_single_step_matches_gate_oracle(rng):
    # T=1, depth=1: one gated cell application, checked against explicit
    # per-element gate equations
    enc, cfg = make_encoder("recurrent", d=2, window=1, d_h=3, depth=1)
    x = rng.normal(size=(2, 1, 2))
    z = enc(T.Tensor(x)).data

    wx, wh, b = (p.data for _, p in enc.store.named_parameters()[:3])
    w_out = dict(enc.store.named_parameters())["encoder.out.W"].data
    b_out = dict(enc.store.named_parameters())["encoder.out.b"].data
    h = 3

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    for row in range(2):
        gates = x[row, 0] @ wx + b  # h=0 initially
        want = np.zeros(h)
        for u in range(h):
            i_g = sig(gates[u])
            f_g = sig(gates[h + u])
            g_g = math.tanh(gates[2 * h + u])
            o_g = sig(gates[3 * h + u])
            c = f_g * 0.0 + i_g * g_g
            want[u] = o_g * math.tanh(c)
        assert rel_err(z[row], want @ w_out + b_out) < 1e-12


def test_recurrent_rows_independent(rng):
    # per-stock recurrence: altering one row leaves the others untouched
    enc, _ = make_encoder("recurrent")
    w = rand_windows(rng, n=5)
    z = enc(T.Tensor(w)).data
    w2 = w.copy()
    w2[2] = rng.normal(size=w[2].shape)
    z2 = enc(T.Tensor(w2)).data
    keep = [0, 1, 3, 4]
    assert np.array_equal(z2[keep], z[keep])
    assert not np.allclose(z2[2], z[2])


# -- the pruned conv encoder against the full-sequence forward ------------------------


def full_sequence_conv(enc, windows):
    """ConvEncoder as it was before pruning: every layer at every step,
    the readout at the top layer's last step."""
    n, t_len, _ = windows.shape
    x = windows
    for i, (w, b, down) in enumerate(enc.layers):
        kernel, dilation = w.shape[0], 2**i
        pad = (kernel - 1) * dilation
        xp = T.concat([T.Tensor(np.zeros((n, pad, x.shape[2]))), x], axis=1) if pad else x
        acc = None
        for j in range(kernel):
            lo = pad - j * dilation
            tap = T.matmul(T.getitem(xp, np.s_[:, lo : lo + t_len, :]), T.getitem(w, j))
            acc = tap if acc is None else T.add(acc, tap)
        y = T.relu(T.add(acc, b))
        x = T.add(y, x if down is None else T.matmul(x, down))
    return enc.out(T.getitem(x, np.s_[:, -1, :]))


CONV_GRID = [(depth, kernel, window, n)
             for depth, kernel, window, n in itertools.product(range(1, 5), range(1, 4), range(1, 8), (1, 50))
             if kernel <= window]


def conv_output_and_grads(enc, forward, windows, g_out):
    for _, p in enc.named_parameters():
        p.grad = None
    z = forward(T.Tensor(windows))
    T.tsum(T.mul(z, T.Tensor(g_out))).backward()
    return z.data, {name: p.grad for name, p in enc.named_parameters()}


@pytest.mark.parametrize("depth,kernel,window,n", CONV_GRID)
def test_conv_matches_full_sequence_forward(depth, kernel, window, n):
    # 40 features and d_h 32: wide enough for the products to take their
    # blocked BLAS paths; nonzero biases so that no sum starts at zero
    rng = np.random.default_rng(depth * 1000 + kernel * 100 + window * 10 + n)
    enc, _ = make_encoder("conv", d=40, window=window, d_h=32, depth=depth, kernel=kernel)
    for _, p in enc.named_parameters():
        p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
    windows = rng.normal(size=(n, window, 40))
    g_out = rng.normal(size=(n, 32))
    z, grads = conv_output_and_grads(enc, enc, windows, g_out)
    z_full, grads_full = conv_output_and_grads(enc, lambda w: full_sequence_conv(enc, w), windows, g_out)
    # a single row's products are matrix-vector products, which round unlike
    # the full sequence's matrix products; so does the 2-D input gradient
    # g @ W.T of a single top step against the per-stock ones, from depth 2 on
    for name, got, want in [("z", z, z_full)] + [(name, g, grads_full[name]) for name, g in grads.items()]:
        if n > 1 and (depth == 1 or name == "z"):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name


@pytest.mark.parametrize("depth,kernel,window,counts", [
    (2, 3, 5, [3, 1]),  # layer 1 (dilation 2) reads layer 0 at steps 4, 2, 0
    (2, 3, 3, [2, 1]),  # ... at 2, 0 (-2 is padding)
    (3, 3, 7, [4, 2, 1]),  # layer 2 reads layer 1 at 6, 2; layer 1 reads layer 0 at 6, 4, 2, 0
    (3, 2, 2, [1, 1, 1]),  # every dilation above 1 reaches before step 0
    (3, 1, 6, [1, 1, 1]),  # kernel 1: each layer reads only its own step
])
def test_conv_step_counts(depth, kernel, window, counts):
    enc, _ = make_encoder("conv", window=window, depth=depth, kernel=kernel)
    assert enc.step_counts(window) == counts


def test_conv_tap_and_residual_operands_are_views(rng):
    enc, _ = make_encoder("conv", d=3, window=5, d_h=8, depth=3)
    x = T.Tensor(rand_windows(rng, n=4, window=5, d=3))
    views = []
    for (w, b, down), count in zip(enc.layers, enc.step_counts(5)):
        x3, xp, taps, res = E.conv_operands(x.data, w.shape[0], count, 5)
        views += [np.shares_memory(xp[key], xp) for key in taps]
        views += [np.shares_memory(x3, x.data), np.shares_memory(x3[res], x.data)]
        x = E.conv_layer(x, w, b, down, count, 5)
    assert len(views) == 15 and all(views)


def composed_conv(enc, windows):
    """ConvEncoder before its layers became one tape node each: the same
    pruned steps, from tap slices, a padding concat, matmuls, adds, relu
    and the residual."""
    n, t_len, _ = windows.shape
    x = windows
    for (w, b, down), count in zip(enc.layers, enc.step_counts(t_len)):
        if x.ndim == 2:
            x = T.reshape(x, (n, 1, x.shape[1]))
        kernel = w.shape[0]
        pad = 2 * (count - 1) + kernel - x.shape[1]
        xp = T.concat([T.Tensor(np.zeros((n, pad, x.shape[2]))), x], axis=1) if pad > 0 else x
        first = xp.shape[1] - 2 * count + 1
        acc = None
        for j in range(kernel):
            tap = T.matmul(T.getitem(xp, E._steps(first - j, count, t_len)), T.getitem(w, j))
            acc = tap if acc is None else T.add(acc, tap)
        y = T.relu(T.add(acc, b))
        res = T.getitem(x, E._steps(x.shape[1] - 2 * count + 1, count, t_len))
        x = T.add(y, res if down is None else T.matmul(res, down))
    if x.ndim == 3:
        x = T.getitem(x, np.s_[:, 0, :])
    return enc.out(x)


@pytest.mark.parametrize("depth,kernel,window,n", CONV_GRID)
def test_conv_layer_nodes_match_composed_graph_bytes(depth, kernel, window, n):
    # the window needs a gradient too, so that layer 0's input gradient is
    # checked with and without padding. The readout is skipped, so that the
    # top layer's output gradient holds -0.0 entries, and a quarter of the
    # channels have dead relus (gradients of -0.0 and +0.0).
    rng = np.random.default_rng(depth * 1000 + kernel * 100 + window * 10 + n + 7)
    enc, _ = make_encoder("conv", d=12, window=window, d_h=16, depth=depth, kernel=kernel)
    for _, p in enc.named_parameters():
        p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
    for _, b, _ in enc.layers:
        b.data = np.where(np.arange(16) % 4 == 0, -50.0, b.data)
    enc.out = lambda x: x
    windows = rng.normal(size=(n, window, 12))
    g_out = np.where(rng.random((n, 16)) < 0.2, -0.0, rng.normal(size=(n, 16)))
    results = []
    for forward in (enc, lambda w: composed_conv(enc, w)):
        for _, p in enc.named_parameters():
            p.grad = None
        leaf = T.Tensor(windows, requires_grad=True)
        z = forward(leaf)
        T.tsum(T.mul(z, T.Tensor(g_out))).backward()
        results.append([z.data, leaf.grad] + [p.grad for layer in enc.layers for p in layer if p is not None])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("operand", ["x", "w", "b", "down"])
def test_conv_layer_gradients(operand, rng):
    # a padded layer whose input is a computed tensor, with a down-projection
    arrays = {"x": rng.normal(size=(3, 3, 4)), "w": rng.normal(size=(3, 4, 5)), "b": rng.normal(size=5),
              "down": rng.normal(size=(4, 5))}
    weight = T.Tensor(rng.normal(size=(3, 2, 5)))

    def build(leaf):
        args = {name: leaf if name == operand else T.Tensor(a) for name, a in arrays.items()}
        y = E.conv_layer(T.tanh(args["x"]), args["w"], args["b"], args["down"], 2, 5)
        return T.tsum(T.mul(weight, T.tanh(y)))

    check_grad(build, arrays[operand])


def test_attention_t1_softmax_singleton(rng):
    enc, _ = make_encoder("attention", window=1, depth=1)
    enc(T.Tensor(rand_windows(rng, n=3, window=1)))
    assert enc.last_attention.shape[-2:] == (1, 1)
    assert np.allclose(enc.last_attention, 1.0)


def test_attention_rows_sum_to_one(rng):
    enc, _ = make_encoder("attention")
    enc(T.Tensor(rand_windows(rng, n=4)))
    sums = enc.last_attention.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_attention_duplicate_stocks_identical(rng):
    enc, _ = make_encoder("attention")
    w = rand_windows(rng, n=3)
    w[2] = w[0]
    z = enc(T.Tensor(w)).data
    assert np.array_equal(z[0], z[2])


@pytest.mark.parametrize("kind", KINDS)
def test_encoder_gradients_finite_difference(kind, rng):
    enc, _ = make_encoder(kind, d=2, window=3, d_h=4, depth=1, kernel=2)
    w0 = rng.uniform(-1, 1, (3, 3, 2))

    def loss_through(enc):
        return T.tsum(T.square(enc(T.Tensor(w0))))

    loss = loss_through(enc)
    loss.backward()
    for name, p in enc.named_parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

        def scalar_fn(arr, p=p):
            old = p.data
            p.data = arr
            try:
                return loss_through(enc).item()
            finally:
                p.data = old

        numeric = finite_diff_grad(scalar_fn, p.data.copy())
        assert rel_err(analytic, numeric) < 1e-4, f"gradient mismatch for {name}"
