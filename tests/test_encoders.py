import math

import numpy as np
import pytest

from groupmoe import encoders as E
from groupmoe import tensor as T

from conftest import finite_diff_grad, rel_err

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
