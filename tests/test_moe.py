import math

import numpy as np
import pytest

from groupmoe import moe as M
from groupmoe import tensor as T
from groupmoe import train as TR
from groupmoe.encoders import EncoderConfig, HiddenStates
from groupmoe.objective import LossWeights
from groupmoe.panel import DayBatch

from conftest import finite_diff_grad, rel_err


def make_head(g=2, e=3, k=2, d_e=4, d_h=6, heads=2, seed=0, inner=True):
    cfg = M.MoEConfig(groups=g, experts_per_group=e, top_k=k, d_e=d_e, agg_heads=heads, inner_attention=inner)
    return M.MoEHead(cfg, d_h=d_h, rng=np.random.default_rng(seed)), cfg


def hidden(rng, n=5, d_h=6):
    return HiddenStates(z=T.Tensor(rng.normal(size=(n, d_h))), day="d000")


# -- gate ---------------------------------------------------------------------


def test_gate_all_equal_logits_full_k():
    head, cfg = make_head(g=2, e=2, k=4)
    head.gate.W.data = np.zeros_like(head.gate.W.data)
    head.gate.b.data = np.full_like(head.gate.b.data, 0.7)
    dec = head.gate_forward(hidden(np.random.default_rng(0), n=3))
    assert np.allclose(dec.weights.data, 0.25)


def test_gate_topk_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    logits = np.array([[2.0, 1.0, 0.0, -1.0]])
    idx = M.top_k_indices(logits, 2)
    assert idx.tolist() == [[0, 1]]
    flat = T.Tensor(logits)
    picked = T.take_rows(flat, idx)
    w = T.scatter_rows(T.softmax(picked, axis=1), idx, 4).data[0]
    e2, e1 = mpmath.exp(2), mpmath.exp(1)
    w0 = float(e2 / (e2 + e1))
    assert abs(w[0] - w0) < 1e-12 and abs(w[1] - (1.0 - w0)) < 1e-12
    assert w[2] == 0.0 and w[3] == 0.0


def test_gate_shift_invariance(rng):
    head, cfg = make_head()
    z = hidden(rng)
    dec = head.gate_forward(z)
    head.gate.b.data = head.gate.b.data + 3.5  # shift every logit
    dec2 = head.gate_forward(z)
    assert np.array_equal(dec.selected, dec2.selected)
    assert rel_err(dec.weights.data, dec2.weights.data) < 1e-9


def test_gate_k_too_large_rejected():
    with pytest.raises(M.MoEConfigError):
        make_head(g=2, e=2, k=5)


def brute_force_top_k(row, k):
    # independent oracle: sort (value desc, index asc), take first k indices
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))
    return sorted(order[:k])


def test_routing_invariants_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        g = int(rng.integers(1, 5))
        e = int(rng.integers(1, 5))
        k = int(rng.integers(1, g * e + 1))
        head, cfg = make_head(g=g, e=e, k=k, d_e=4, heads=1, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 6))
        dec = head.gate_forward(hidden(rng, n=n))
        w = dec.weights.data.reshape(n, -1)
        logits = dec.logits.data.reshape(n, -1)
        for i in range(n):
            nz = np.flatnonzero(w[i])
            assert len(nz) == k
            assert np.all(w[i][nz] > 0)
            assert abs(w[i][nz].sum() - 1.0) < 1e-9
            assert nz.tolist() == brute_force_top_k(logits[i].tolist(), k)


def test_routing_tie_break_lowest_flat_index():
    logits = np.array([[1.0, 3.0, 3.0, 3.0, 0.0]])
    assert M.top_k_indices(logits, 2).tolist() == [[1, 2]]


# -- experts ---------------------------------------------------------------------


def slot_weights(head, j, k):
    """(W [d_h, d_e], b [d_e]) of slot (group j, expert k), sliced from the bank."""
    cfg = head.cfg
    lo = (j * cfg.experts_per_group + k) * cfg.d_e
    cols = slice(lo, lo + cfg.d_e)
    return head.expert_W.data[:, cols], head.expert_b.data[cols]


def test_run_experts_zeros():
    head, cfg = make_head()
    head.expert_W.data = np.zeros_like(head.expert_W.data)
    head.expert_b.data = np.zeros_like(head.expert_b.data)
    o = head.run_experts(hidden(np.random.default_rng(0)))
    assert np.max(np.abs(o.data)) == 0.0


def test_run_experts_zero_state_gives_bias():
    head, cfg = make_head(g=2, e=2)
    head.expert_b.data = np.random.default_rng(1).normal(size=head.expert_b.shape)
    z = HiddenStates(z=T.Tensor(np.zeros((3, 6))), day="d")
    o = head.run_experts(z).data
    for j in range(2):
        for k in range(2):
            assert np.allclose(o[:, j, k, :], slot_weights(head, j, k)[1])


def test_run_experts_per_slot_oracle(rng):
    head, cfg = make_head(g=2, e=3)
    head.expert_b.data = rng.normal(size=head.expert_b.shape)
    z = hidden(rng, n=4)
    o = head.run_experts(z).data
    for j in range(2):
        for k in range(3):
            w, b = slot_weights(head, j, k)
            want = z.z.data @ w + b
            assert np.max(np.abs(o[:, j, k, :] - want)) < 1e-12


# -- group aggregation ----------------------------------------------------------


def test_aggregate_single_expert_is_value_path(rng):
    head, cfg = make_head(g=1, e=1, k=1, d_e=4, heads=2)
    o = T.Tensor(rng.normal(size=(3, 1, 1, 4)))
    mixed = head.aggregate(o).data[:, 0]
    want = o.data[:, 0] + o.data[:, 0] @ head.Wv.data[0]
    assert rel_err(mixed, want) < 1e-12


def test_aggregate_identical_experts_uniform_attention(rng):
    head, cfg = make_head(g=1, e=4, k=2, d_e=4, heads=2)
    vec = rng.normal(size=(2, 1, 4))
    o = T.Tensor(np.broadcast_to(vec[:, :, None, :], (2, 1, 4, 4)).copy())
    head.aggregate(o)
    assert np.allclose(head.last_attention[0], 0.25, atol=1e-12)


@pytest.mark.parametrize("g", [1, 3])
def test_aggregate_matches_loop_oracle(g, rng):
    head, cfg = make_head(g=g, e=3, k=1, d_e=4, heads=2)
    o4 = rng.normal(size=(2, g, 3, 4))  # [N, G, E, d_e]
    got = head.aggregate(T.Tensor(o4)).data

    heads, d_e = 2, 4
    dh = d_e // heads
    want = np.zeros_like(o4)
    for j in range(g):
        # each group attends with its own projections, over its own experts only
        wq, wk, wv = head.Wq.data[j], head.Wk.data[j], head.Wv.data[j]
        for n in range(2):
            q = o4[n, j] @ wq
            k = o4[n, j] @ wk
            v = o4[n, j] @ wv
            out = np.zeros((3, d_e))
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
                for a in range(3):
                    scores = np.array([qh[a] @ kh[b] / math.sqrt(dh) for b in range(3)])
                    ex = np.exp(scores - scores.max())
                    probs = ex / ex.sum()
                    for b in range(3):
                        out[a, sl] += probs[b] * vh[b]
            want[n, j] = o4[n, j] + out
    assert rel_err(got, want) < 1e-10


def test_aggregate_expert_permutation_equivariance(rng):
    head, cfg = make_head(g=1, e=4, d_e=4, heads=2)
    o3 = rng.normal(size=(3, 1, 4, 4))
    perm = np.random.default_rng(5).permutation(4)
    base = head.aggregate(T.Tensor(o3)).data[:, 0]
    permed = head.aggregate(T.Tensor(o3[:, :, perm, :].copy())).data[:, 0]
    assert rel_err(permed, base[:, perm, :]) < 1e-10


def test_aggregate_disabled_is_identity(rng):
    head, cfg = make_head(inner=False)
    raw = T.Tensor(rng.normal(size=(3, 2, 3, 4)))
    mixed = head.aggregate(raw)
    assert np.array_equal(mixed.data, raw.data)


# -- combine -----------------------------------------------------------------------


def test_combine_single_selected_expert(rng):
    head, cfg = make_head(g=2, e=2, k=1)
    z = hidden(rng, n=4)
    y, dec, grouped = head(z)
    flat_r = grouped.readout.data.reshape(4, -1)
    for i in range(4):
        slot = dec.selected[i, 0]
        assert abs(y.data[i] - flat_r[i, slot]) < 1e-12


def test_combine_constant_readouts(rng):
    head, cfg = make_head()
    w = head.gate_forward(hidden(rng, n=3)).weights
    r = T.Tensor(np.full((3, 2, 3), 1.7))
    y = M.MoEHead.combine(w, r)
    assert np.allclose(y.data, 1.7, atol=1e-12)


def test_combine_double_loop_oracle(rng):
    head, cfg = make_head()
    w = head.gate_forward(hidden(rng, n=4)).weights
    r = T.Tensor(rng.normal(size=(4, 2, 3)))
    y = M.MoEHead.combine(w, r).data
    for i in range(4):
        acc = 0.0
        for j in range(2):
            for k in range(3):
                acc += w.data[i, j, k] * r.data[i, j, k]
        assert abs(y[i] - acc) < 1e-12


def test_combine_linear_in_readouts(rng):
    head, cfg = make_head()
    w = head.gate_forward(hidden(rng, n=3)).weights
    r1 = rng.normal(size=(3, 2, 3))
    r2 = rng.normal(size=(3, 2, 3))
    a, b = 0.7, -2.1
    lhs = M.MoEHead.combine(w, T.Tensor(a * r1 + b * r2)).data
    rhs = a * M.MoEHead.combine(w, T.Tensor(r1)).data + b * M.MoEHead.combine(w, T.Tensor(r2)).data
    assert rel_err(lhs, rhs) < 1e-10


def test_combine_shape_mismatch():
    head, _ = make_head()
    with pytest.raises(T.ShapeError):
        M.MoEHead.combine(T.Tensor(np.zeros((2, 2, 3))), T.Tensor(np.zeros((2, 3, 2))))


# -- full forward ---------------------------------------------------------------------


def make_model(kind="conv", seed=0, **kw):
    enc_cfg = EncoderConfig(kind=kind, d_h=kw.get("d_h", 6), depth=1, heads=2, kernel=2)
    moe_cfg = M.MoEConfig(groups=kw.get("g", 2), experts_per_group=kw.get("e", 3), top_k=kw.get("k", 2),
                          d_e=4, agg_heads=2, inner_attention=kw.get("inner", True))
    return M.Forecaster(enc_cfg, moe_cfg, n_features=3, window=4, seed=seed)


def make_batch(rng, n=5, window=4, d=3, day="d010"):
    return DayBatch(day=day, windows=rng.normal(size=(n, window, d)),
                    labels=rng.normal(size=n), stock_ids=[f"s{i}" for i in range(n)])


def test_forward_shapes_single_stock(rng):
    model = make_model()
    y, dec, grouped = model.forward(make_batch(rng, n=1))
    assert y.shape == (1,)
    assert dec.weights.shape == (1, 2, 3)
    assert grouped.raw.shape == (1, 2, 3, 4)
    assert grouped.mixed.shape == (1, 2, 3, 4)
    assert grouped.readout.shape == (1, 2, 3)


def test_forward_permutation_equivariance(rng):
    model = make_model()
    batch = make_batch(rng, n=6)
    perm = np.random.default_rng(2).permutation(6)
    permuted = DayBatch(day=batch.day, windows=batch.windows[perm],
                        labels=batch.labels[perm], stock_ids=[batch.stock_ids[i] for i in perm])
    assert rel_err(model.predict(permuted), model.predict(batch)[perm]) < 1e-9


def test_forward_deterministic(rng):
    model = make_model()
    batch = make_batch(rng)
    assert np.array_equal(model.predict(batch), model.predict(batch))


def test_isolated_experts_toggle(rng):
    enabled = make_model(seed=3)
    disabled = make_model(seed=3, inner=False)
    batch = make_batch(rng)
    _, _, g1 = enabled.forward(batch)
    _, _, g2 = disabled.forward(batch)
    assert np.array_equal(g2.mixed.data, g2.raw.data)
    assert np.array_equal(g1.raw.data, g2.raw.data)  # same seed, same experts
    assert not np.array_equal(g1.mixed.data, g2.mixed.data)


def test_isolated_head_has_no_attention_parameters(rng):
    enabled = dict(make_model(seed=3, g=3, e=3).named_parameters())
    disabled = make_model(seed=3, g=3, e=3, inner=False)
    names = [name for name, _ in disabled.named_parameters()]
    assert not [name for name in names if name.startswith("moe.agg.")]
    assert names == [name for name in enabled if not name.startswith("moe.agg.")]
    for name, p in disabled.named_parameters():
        assert p.data.tobytes() == enabled[name].data.tobytes(), name
    opt = TR.Adam(disabled.named_parameters(), lr=1e-3)
    TR.step(disabled, [make_batch(rng)], opt, TR.TrainConfig(), LossWeights())
    assert [name for name, p in disabled.named_parameters() if p.grad is None] == []


@pytest.mark.parametrize("kind", ["conv", "recurrent", "attention"])
def test_full_pipeline_gradients(kind, rng):
    model = make_model(kind=kind)
    batch = make_batch(rng, n=4)

    def loss_fn():
        y, _, _ = model.forward(batch)
        return T.tmean(T.square(y + T.tanh(y)))

    loss_fn().backward()
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for name, p in model.named_parameters()}
    model.zero_grad()
    for name, p in model.named_parameters():
        def scalar_fn(arr, p=p):
            old = p.data
            p.data = arr
            try:
                return loss_fn().item()
            finally:
                p.data = old

        numeric = finite_diff_grad(scalar_fn, p.data.copy())
        assert rel_err(grads[name], numeric) < 1e-4, f"gradient mismatch for {name}"
