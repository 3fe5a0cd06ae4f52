import math

import numpy as np
import pytest

from groupmoe import moe as M
from groupmoe import tensor as T
from groupmoe import train as TR
from groupmoe.encoders import EncoderConfig, HiddenStates
from groupmoe.objective import LossWeights
from groupmoe.panel import DayBatch, PanelError

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
    w = T.scatter_rows(T.softmax(picked), idx, 4).data[0]
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


def test_routing_ties_across_top_k_boundary():
    # each row's k-th and (k+1)-th largest logits tie; the lowest indices win
    logits = np.array([[0.5, 2.0, 1.0, 1.0, 1.0, 1.0, -3.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                       [-2.0, -1.0, -2.0, 0.0, -2.0, -2.0, -2.0]])
    selected, weights = M.route_from_logits(T.Tensor(logits), 3)
    assert selected.tolist() == [[1, 2, 3], [0, 1, 2], [0, 1, 3]]
    for row, sel in zip(weights.data, selected):
        nz = np.flatnonzero(row)
        assert nz.tolist() == sel.tolist()
        assert abs(row.sum() - 1.0) < 1e-15


def stable_argsort_top_k(logits, k):
    return np.sort(np.argsort(-logits, axis=1, kind="stable")[:, :k], axis=1)


TIE_LOGITS = {
    "gaussian": lambda rng, n, m: rng.normal(size=(n, m)),
    "half-integers": lambda rng, n, m: rng.integers(-3, 4, size=(n, m)) / 2.0,
    "signed zeros": lambda rng, n, m: rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, m)),
    "two values": lambda rng, n, m: rng.choice([0.25, 0.5], size=(n, m)),
    "non-finite": lambda rng, n, m: rng.choice([np.nan, np.inf, -np.inf, 0.0, 1.0], size=(n, m)),
    "all nan": lambda rng, n, m: np.full((n, m), np.nan),
}


@pytest.mark.parametrize("kind", list(TIE_LOGITS))
def test_top_k_matches_stable_argsort(kind):
    # k = 1, k = n_slots and every k between, on heavy ties
    rng = np.random.default_rng(len(kind))
    for m in (1, 2, 9, 63):
        logits = TIE_LOGITS[kind](rng, 40, m)
        for k in range(1, m + 1):
            got = M.top_k_indices(logits, k)
            assert got.tolist() == stable_argsort_top_k(logits, k).tolist(), (m, k)


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


# -- the routed forward ------------------------------------------------------------


def dense_forward(head, z):
    """Oracle: every slot attends and is read out, then the gate weights
    [N, G, E], exact zeros off the top k, combine all G*E readouts.
    Returns (prediction [N], slot readouts [N, G, E])."""
    weights = head.gate_forward(z).weights
    readout = head.readout_slots(head.aggregate(head.run_experts(z)))
    return T.tsum(T.mul(weights, readout), axis=(1, 2)), readout


def head_grads(head, y, upstream):
    """Gradients of sum(upstream * y) for every head parameter."""
    head_params = head.named_parameters()
    for _, p in head_params:
        p.grad = None
    T.tsum(T.mul(y, T.Tensor(upstream))).backward()
    return {name: p.grad.copy() for name, p in head_params}


ROUTED_SHAPES = [(1, 1), (2, 3), (3, 3), (7, 9)]


@pytest.mark.parametrize("inner", [True, False], ids=["attention", "isolated"])
@pytest.mark.parametrize("tied", [False, True], ids=["logits", "tied"])
@pytest.mark.parametrize("g,e", ROUTED_SHAPES, ids=[f"{g}x{e}" for g, e in ROUTED_SHAPES])
def test_routed_forward_matches_dense_oracle(g, e, tied, inner, rng):
    # Reassociation moves the rounding only. A prediction is a convex
    # combination of slot readouts and can cancel far below them, so its
    # scale is the largest |readout|. The gate's gradient, z^T (w * c *
    # (r - y)), cancels where a stock's selected readouts agree; its scale
    # is the same product without the cancellation. Every other gradient
    # is held to its tensor's largest entry.
    for k in sorted({1, min(2, g * e), g * e}):
        for n in (1, 2, 50):
            head, _ = make_head(g=g, e=e, k=k, inner=inner, seed=int(rng.integers(1 << 30)))
            if tied:
                head.gate.W.data = np.zeros_like(head.gate.W.data)  # every logit ties: the lowest k slots
            z = hidden(rng, n=n)
            upstream = rng.uniform(0.5, 1.5, size=n)
            y, decision, readout = head(z)
            y_dense, r_dense = dense_forward(head, z)
            assert readout.shape == (n, k)
            scale = np.abs(r_dense.data).max()
            assert np.abs(y.data - y_dense.data).max() <= 1e-15 * scale, (k, n)
            picked = np.take_along_axis(r_dense.data.reshape(n, -1), decision.selected, axis=1)
            assert np.abs(readout.data - picked).max() <= 1e-15 * scale, (k, n)

            got, want = head_grads(head, y, upstream), head_grads(head, y_dense, upstream)
            terms = decision.weights.data.reshape(n, -1) * upstream[:, None] * scale
            gate_scale = {"moe.gate.W": (np.abs(z.z.data).T @ terms).max(), "moe.gate.b": terms.sum(axis=0).max()}
            for name, grad in want.items():
                tol = 4e-15 * gate_scale.get(name, np.abs(grad).max())
                assert np.abs(got[name] - grad).max() <= tol, (k, n, name)


def test_combine_single_selected_expert(rng):
    head, cfg = make_head(g=2, e=2, k=1)
    z = hidden(rng, n=4)
    y, dec, readout = head(z)
    assert readout.shape == (4, 1)
    assert y.data.tobytes() == readout.data[:, 0].tobytes()  # weight exactly 1
    _, r_dense = dense_forward(head, z)
    flat_r = r_dense.data.reshape(4, -1)
    for i in range(4):
        assert abs(y.data[i] - flat_r[i, dec.selected[i, 0]]) < 1e-12


def test_combine_constant_readouts(rng):
    head, cfg = make_head()
    head.readout.W.data = np.zeros_like(head.readout.W.data)
    head.readout.b.data = np.array([1.7])  # every slot reads 1.7
    y, _, readout = head(hidden(rng, n=3))
    assert np.all(readout.data == 1.7)
    assert np.allclose(y.data, 1.7, atol=1e-12)


def test_combine_double_loop_oracle(rng):
    head, cfg = make_head()
    z = hidden(rng, n=4)
    y = head(z)[0].data
    w = head.gate_forward(z).weights.data
    r = dense_forward(head, z)[1].data
    for i in range(4):
        acc = 0.0
        for j in range(2):
            for k in range(3):
                acc += w[i, j, k] * r[i, j, k]
        assert abs(y[i] - acc) < 1e-12


def test_combine_linear_in_readouts(rng):
    # a readout is affine in (W, b) and the prediction linear in the readouts
    head, cfg = make_head()
    z = hidden(rng, n=3)
    (w1, b1), (w2, b2) = ((rng.normal(size=(4, 1)), rng.normal(size=1)) for _ in range(2))
    a, b = 0.7, -2.1

    def predict(w, bias):
        head.readout.W.data, head.readout.b.data = w, bias
        return head(z)[0].data

    lhs = predict(a * w1 + b * w2, a * b1 + b * b2)
    rhs = a * predict(w1, b1) + b * predict(w2, b2)
    assert rel_err(lhs, rhs) < 1e-10


def test_combine_shape_mismatch():
    head, _ = make_head()
    x = T.Tensor(np.zeros((2, 2, 3, 4)))
    w = (head.Wq, head.Wk, head.Wv)
    with pytest.raises(T.ShapeError):
        T.routed_attention(x, np.zeros((3, 2), dtype=int), *w, 2)  # rows for 3 stocks, vectors for 2
    with pytest.raises(T.ShapeError):
        T.routed_attention(T.Tensor(np.zeros((2, 3, 2, 4))), np.zeros((2, 2), dtype=int), *w, 2)
    with pytest.raises(T.ShapeError):
        T.routed_attention(x, np.zeros((2, 2), dtype=int), *w, 3)


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
    batch = make_batch(rng, n=1)
    y, dec, readout = model.forward(batch)
    assert y.shape == (1,)
    assert dec.weights.shape == (1, 2, 3)
    assert dec.selected.shape == dec.selected_weights.shape == readout.shape == (1, 2)
    raw = model.head.run_experts(model.encode(batch))
    assert raw.shape == (1, 2, 3, 4)
    assert model.head.aggregate(raw).shape == (1, 2, 3, 4)
    assert model.head.expert_outputs(model.encode(batch)).shape == (1, 2, 3)


@pytest.mark.parametrize("method", ["predict", "predict_per_slot"])
def test_non_finite_forward_is_numerical_error(rng, method):
    # 1e308 is finite; the forward overflows, under any warning filter
    model = make_model()
    batch = make_batch(rng, n=5)
    batch.windows[3, -1, :] = 1e308
    with pytest.raises(M.NumericalError, match="day d010: .* for stock s3 is not finite"):
        getattr(model, method)(batch)


@pytest.mark.parametrize("method", ["predict", "predict_per_slot", "forward"])
def test_non_finite_window_is_panel_error(rng, method):
    # depth 1, kernel 2, window 4: the readout reads steps 2 and 3 only,
    # so an inf at step 0 would never reach the prediction
    model = make_model()
    batch = make_batch(rng, n=5)
    batch.windows[3, 0, 1] = np.inf
    batch.windows[4, 0, 0] = np.nan
    with pytest.raises(PanelError, match="day d010: window for stock s3 is not finite"):
        getattr(model, method)(batch)


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
    raw1, raw2 = (m.head.run_experts(m.encode(batch)) for m in (enabled, disabled))
    mixed1, mixed2 = enabled.head.aggregate(raw1), disabled.head.aggregate(raw2)
    assert np.array_equal(mixed2.data, raw2.data)
    assert np.array_equal(raw1.data, raw2.data)  # same seed, same experts
    assert not np.array_equal(mixed1.data, mixed2.data)


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
        return T.tmean(T.square(T.add(y, T.tanh(y))))

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
