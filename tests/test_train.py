from dataclasses import fields

import numpy as np
import pytest

from groupmoe import experiments as EX
from groupmoe import panel as P
from groupmoe import synth as S
from groupmoe import tensor as T
from groupmoe import train as TR
from groupmoe.encoders import EncoderConfig
from groupmoe.moe import Forecaster, MoEConfig
from groupmoe.objective import LossWeights

from conftest import rewrite_meta


def tiny_model(seed=0, kind="conv", g=2, e=2, k=2):
    enc = EncoderConfig(kind=kind, d_h=6, depth=1, heads=2, kernel=2)
    moe = MoEConfig(groups=g, experts_per_group=e, top_k=k, d_e=4, agg_heads=2)
    return Forecaster(enc, moe, n_features=3, window=4, seed=seed)


def tiny_streams(seed=0, n_days=30):
    cfg = S.SynthConfig(n_stocks=10, n_days=n_days, n_features=3, noise_sigma=0.2, seed=seed)
    panel, _ = S.generate(cfg)
    days = panel.days
    spec = P.SplitSpec(train=(days[0], days[n_days - 12]), validation=(days[n_days - 12], days[n_days - 6]),
                       test=(days[n_days - 6], days[n_days - 1]))
    return P.split(panel, spec, window=4)


def test_patience_counter_stops_after_two_epochs(monkeypatch):
    model = tiny_model()
    train_b, val_b, _ = tiny_streams()
    seq = iter([0.5, 0.4, 0.3, 0.2])
    monkeypatch.setattr(TR, "validation_ic", lambda m, b: next(seq))
    state, _ = TR.train(model, train_b, val_b, TR.TrainConfig(max_epochs=10, patience=1, lr=1e-4),
                        LossWeights())
    assert state.epoch == 2
    assert state.best_epoch == 0
    assert state.best_val_ic == 0.5


def test_early_stop_returns_best_epoch_params(monkeypatch):
    model = tiny_model()
    train_b, val_b, _ = tiny_streams()
    seq = iter([0.1, 0.9, 0.2, 0.15, 0.12])
    validated = []  # one entry per validation call, i.e. per finished epoch
    snapshots = []  # (epochs validated so far, snapshot)
    real_state = model.state_arrays

    def spy_state():
        snap = real_state()
        snapshots.append((len(validated), snap))
        return snap

    def fake_validation_ic(m, b):
        validated.append(len(validated))
        return next(seq)

    monkeypatch.setattr(model, "state_arrays", spy_state)
    monkeypatch.setattr(TR, "validation_ic", fake_validation_ic)
    state, _ = TR.train(model, train_b, val_b, TR.TrainConfig(max_epochs=5, patience=3, lr=1e-4),
                        LossWeights())
    assert state.best_epoch == 1
    assert state.epoch == 5
    # the snapshot taken right after epoch 1's validation set the best IC
    after_epoch_1 = [snap for n, snap in snapshots if n == 2]
    assert len(after_epoch_1) == 1
    want = after_epoch_1[0]
    assert state.best_params.keys() == want.keys()
    for k, arr in want.items():
        got = state.best_params[k]
        assert got.dtype == arr.dtype and got.shape == arr.shape and got.tobytes() == arr.tobytes(), k
    # and it is not the last epoch's parameters
    assert any(not np.array_equal(state.best_params[k], state.params[k]) for k in want)


def test_training_deterministic_and_checkpoint_bytes_equal(tmp_path):
    files = []
    for run in range(2):
        model = tiny_model(seed=5)
        train_b, val_b, _ = tiny_streams(seed=3)
        state, _ = TR.train(model, train_b, val_b, TR.TrainConfig(max_epochs=3, lr=1e-3, seed=11),
                            LossWeights())
        model.load_state_arrays(state.best_params)
        path = tmp_path / f"ck{run}.npz"
        TR.save_checkpoint(model, path)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_lr_zero_leaves_parameters_unchanged():
    model = tiny_model()
    train_b, _, _ = tiny_streams()
    before = model.state_arrays()
    opt = TR.Adam(model.named_parameters(), lr=0.0)
    TR.step(model, train_b[:1], opt, TR.TrainConfig(), LossWeights())
    after = model.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_step_descends_quadratic_toy():
    x = T.Tensor(np.array([3.0, -2.0]), requires_grad=True)
    opt = TR.Adam([("x", x)], lr=5e-2)
    losses = []
    for _ in range(200):
        loss = T.tsum(T.square(x))
        losses.append(loss.item())
        x.grad = None
        loss.backward()
        opt.step()
    assert losses[1] < losses[0]  # single-step descent at small lr
    assert losses[-1] < 0.1 * losses[0]


def test_adam_matches_textbook_recurrence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x = T.Tensor(np.array([1.0]), requires_grad=True)
    opt = TR.Adam([("x", x)], lr=lr)
    # two steps with hand-chosen gradients
    want_x, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate([0.5, -0.25], start=1):
        x.grad = np.array([g])
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        want_x = want_x - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert x.data[0] == pytest.approx(want_x, abs=1e-15)


class PerTensorAdam:
    """The optimizer as one update per parameter tensor, the flat Adam's oracle."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self):
        b1, b2, eps = TR.Adam.BETA1, TR.Adam.BETA2, TR.Adam.EPS
        self.t += 1
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + eps)


def same_optimizer_bytes(a, b, params_a, params_b):
    return all(pa.data.tobytes() == pb.data.tobytes() and a.m[na].tobytes() == b.m[nb].tobytes()
               and a.v[na].tobytes() == b.v[nb].tobytes() for (na, pa), (nb, pb) in zip(params_a, params_b))


def test_flat_adam_matches_per_tensor_updates_on_the_desk_model():
    models = [Forecaster(EncoderConfig(), MoEConfig(), n_features=8, window=5, seed=4) for _ in range(2)]
    flat = TR.Adam(models[0].named_parameters(), lr=5e-3)
    oracle = PerTensorAdam(models[1].named_parameters(), lr=5e-3)
    rng = np.random.default_rng(6)
    for s in range(6):
        batch = P.DayBatch(day=f"d{s}", windows=rng.normal(size=(50, 5, 8)), labels=rng.normal(size=50),
                           stock_ids=[f"s{i:02d}" for i in range(50)])
        for model, opt in zip(models, (flat, oracle)):
            TR.step(model, [batch], opt, TR.TrainConfig(), LossWeights())
        assert same_optimizer_bytes(flat, oracle, models[0].named_parameters(), models[1].named_parameters()), s


def test_flat_adam_parameter_without_gradient_keeps_data_and_moments(rng):
    shapes = [(3, 4), (5,), (2, 2, 2)]
    inits = [rng.normal(size=s) for s in shapes]
    params = [[(f"p{i}", T.Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(inits)] for _ in range(2)]
    flat, oracle = TR.Adam(params[0], lr=0.1), PerTensorAdam(params[1], lr=0.1)
    for s in range(6):
        grads = [None if (s + i) % 3 == 0 else rng.normal(size=a.shape) for i, a in enumerate(inits)]
        held = [(p.data, flat.m[name].copy(), flat.v[name].copy()) for name, p in params[0]]
        for ps in params:
            for (_, p), g in zip(ps, grads):
                p.grad = g
        flat.step()
        oracle.step()
        assert same_optimizer_bytes(flat, oracle, params[0], params[1]), s
        for (name, p), g, (data, m, v) in zip(params[0], grads, held):
            if g is None:
                assert p.data is data
                assert flat.m[name].tobytes() == m.tobytes() and flat.v[name].tobytes() == v.tobytes()


def test_gradient_coverage_all_parameters(tmp_path):
    # k = G*E so every slot is selected; every parameter must receive a
    # gradient and move after one step
    model = tiny_model(g=2, e=2, k=4)
    train_b, _, _ = tiny_streams()
    before = model.state_arrays()
    opt = TR.Adam(model.named_parameters(), lr=1e-3)
    TR.step(model, train_b[:2], opt, TR.TrainConfig(), LossWeights())
    for name, p in model.named_parameters():
        assert p.grad is not None, f"no gradient reached {name}"
        assert np.any(p.grad != 0), f"all-zero gradient for {name}"
        assert not np.array_equal(before[name], p.data), f"{name} did not move"


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_loss_aborts_with_day():
    model = tiny_model()
    train_b, _, _ = tiny_streams()
    bad = train_b[0]
    bad.windows[0, -1, 0] = 1e308  # finite, at a step the readout reads; the forward overflows
    opt = TR.Adam(model.named_parameters(), lr=1e-3)
    with pytest.raises(TR.NumericalError) as e:
        TR.step(model, [bad], opt, TR.TrainConfig(), LossWeights())
    assert bad.day in str(e.value)


def test_nonfinite_gradient_aborts_with_parameter_and_day(monkeypatch):
    # a finite loss whose backward leaves a NaN in one parameter's gradient
    model = tiny_model()
    train_b, _, _ = tiny_streams()
    name, param = model.named_parameters()[3]
    backward = T.Tensor.backward

    def poisoned(self, *args, **kwargs):
        backward(self, *args, **kwargs)
        param.grad[(0,) * param.grad.ndim] = np.nan

    monkeypatch.setattr(T.Tensor, "backward", poisoned)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    opt = TR.Adam(model.named_parameters(), lr=1e-3)
    with pytest.raises(TR.NumericalError, match=rf"non-finite gradient in {name} on day\(s\) \['{train_b[0].day}'\]"):
        TR.step(model, [train_b[0]], opt, TR.TrainConfig(), LossWeights())
    assert all(np.array_equal(p.data, before[n]) for n, p in model.named_parameters())


def desk_step_tape_nodes(moe_cfg, enc_cfg=EncoderConfig(), n=50, features=8):
    # a desk-scale day: by default 50 stocks, 8 features, window 5
    model = Forecaster(enc_cfg, moe_cfg, n_features=features, window=5, seed=0)
    rng = np.random.default_rng(0)
    batch = P.DayBatch(day="d0", windows=rng.normal(size=(n, 5, features)), labels=rng.normal(size=n),
                       stock_ids=[f"s{i:02d}" for i in range(n)])
    total, _ = TR.day_loss(model, [batch], LossWeights())
    return len(T.ComputationTape.trace(total).nodes)


def test_default_model_step_records_at_most_37_tape_nodes():
    assert desk_step_tape_nodes(MoEConfig()) <= 37


def test_isolated_head_step_records_at_most_36_tape_nodes():
    assert desk_step_tape_nodes(MoEConfig(inner_attention=False)) <= 36


def test_acceptance_config_step_records_at_most_34_tape_nodes():
    # criteria 5-8's model: SPECIALIZATION_ENCODER and MOE_CFG, on a 60-stock day of 24 features
    assert desk_step_tape_nodes(EX.MOE_CFG, EncoderConfig(**EX.SPECIALIZATION_ENCODER), n=60, features=24) <= 34


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_bit_identical_forward(tmp_path):
    model = tiny_model(seed=9)
    train_b, _, _ = tiny_streams()
    path = tmp_path / "model.npz"
    norm = P.NormStats(mean=np.array([0.1, 0.2, 0.3]), std=np.array([1.0, 2.0, 3.0]))
    TR.save_checkpoint(model, path, norm=norm)
    loaded, meta = TR.load_checkpoint(path)
    batch = train_b[0]
    assert np.array_equal(model.predict(batch), loaded.predict(batch))
    assert meta["normalization"] == norm.to_dict()
    assert meta["version"] == TR.CHECKPOINT_VERSION


def test_checkpoint_truncated_file_is_parse_error(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.npz"
    TR.save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(path)


def test_checkpoint_garbage_file_is_parse_error(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not an archive")
    with pytest.raises(TR.CheckpointError):
        TR.load_checkpoint(path)


BAD_CHECKPOINT_META = [
    ("encoder.kind", lambda m: m["encoder"].update(kind="lstm")),
    ("moe.inner_attention", lambda m: m["moe"].update(inner_attention=1)),
    ("moe.top_k", lambda m: m["moe"].update(top_k=True)),
    ("window", lambda m: m.update(window=4.0)),
    ("normalization.mean", lambda m: m.update(normalization={"mean": [0.0], "std": [1.0, 1.0, 1.0]})),
    ("normalization", lambda m: m.update(normalization=[0.0])),
]


@pytest.mark.parametrize("entry,edit", BAD_CHECKPOINT_META, ids=[b[0] for b in BAD_CHECKPOINT_META])
def test_checkpoint_malformed_metadata_names_entry(tmp_path, entry, edit):
    path = tmp_path / "model.npz"
    TR.save_checkpoint(tiny_model(), path, norm=P.NormStats(mean=np.zeros(3), std=np.ones(3)))
    rewrite_meta(path, edit)
    with pytest.raises(TR.CheckpointError) as e:
        TR.load_checkpoint(path)
    assert str(path) in str(e.value) and entry in str(e.value)


def test_checkpoint_version_guard(tmp_path, monkeypatch):
    model = tiny_model()
    path = tmp_path / "model.npz"
    monkeypatch.setattr(TR, "CHECKPOINT_VERSION", 99)
    TR.save_checkpoint(model, path)
    monkeypatch.setattr(TR, "CHECKPOINT_VERSION", 1)
    with pytest.raises(TR.CheckpointError) as e:
        TR.load_checkpoint(path)
    assert "version" in str(e.value)


# -- resume ----------------------------------------------------------------------


def test_resume_continues_epoch_numbering(tmp_path):
    cfg_a = TR.TrainConfig(max_epochs=2, lr=1e-3, seed=21)
    cfg_b = TR.TrainConfig(max_epochs=4, lr=1e-3, seed=21)

    # straight 4-epoch run
    model_full = tiny_model(seed=2)
    tb, vb, _ = tiny_streams(seed=8)
    full, _ = TR.train(model_full, tb, vb, cfg_b, LossWeights())

    # two-phase run with a save/load in the middle
    model = tiny_model(seed=2)
    state, _ = TR.train(model, tb, vb, cfg_a, LossWeights())
    state_path = tmp_path / "state.npz"
    TR.save_train_state(state_path, state, model)
    resumed, history = TR.train(model, tb, vb, cfg_b, LossWeights(), resume=TR.load_train_state(state_path, model))

    assert [r["epoch"] for r in history] == [2, 3]
    assert resumed.epoch == 4
    # every scalar equal, every section array byte-identical and in the same order
    for f in fields(TR.TrainState):
        got, want = getattr(resumed, f.name), getattr(full, f.name)
        if f.name in TR.SECTIONS:
            assert list(got) == list(want) and all(got[k].tobytes() == want[k].tobytes() for k in got), f.name
        else:
            assert got == want, f.name


def no_epoch(model, batches):
    raise AssertionError("a finished run trained another epoch")


def test_resume_after_patience_is_spent_trains_nothing(tmp_path, monkeypatch):
    model = tiny_model()
    tb, vb, _ = tiny_streams()
    cfg = TR.TrainConfig(max_epochs=10, patience=1, lr=1e-4)
    seq = iter([0.5, 0.4])
    monkeypatch.setattr(TR, "validation_ic", lambda m, b: next(seq))
    state, _ = TR.train(model, tb, vb, cfg, LossWeights())
    assert (state.epoch, state.epochs_since_best) == (2, 1)
    path, again = tmp_path / "state.npz", tmp_path / "again.npz"
    TR.save_train_state(path, state, model)

    monkeypatch.setattr(TR, "validation_ic", no_epoch)
    resumed, history = TR.train(model, tb, vb, cfg, LossWeights(), resume=TR.load_train_state(path, model))
    assert history == [] and resumed.epoch == 2
    TR.save_train_state(again, resumed, model)
    assert again.read_bytes() == path.read_bytes()


def test_resume_below_saved_epoch_keeps_it(tmp_path, monkeypatch):
    model = tiny_model()
    tb, vb, _ = tiny_streams()
    state, _ = TR.train(model, tb, vb, TR.TrainConfig(max_epochs=4, lr=1e-3), LossWeights())
    path, again = tmp_path / "state.npz", tmp_path / "again.npz"
    TR.save_train_state(path, state, model)

    monkeypatch.setattr(TR, "validation_ic", no_epoch)
    resumed, history = TR.train(model, tb, vb, TR.TrainConfig(max_epochs=2, lr=1e-3), LossWeights(),
                                resume=TR.load_train_state(path, model))
    assert history == [] and resumed.epoch == 4
    TR.save_train_state(again, resumed, model)
    assert again.read_bytes() == path.read_bytes()


def test_train_state_config_guard(tmp_path):
    model = tiny_model()
    tb, vb, _ = tiny_streams()
    state, _ = TR.train(model, tb, vb, TR.TrainConfig(max_epochs=1, lr=1e-3), LossWeights())
    path = tmp_path / "state.npz"
    TR.save_train_state(path, state, model)
    other = tiny_model(kind="recurrent")
    with pytest.raises(TR.CheckpointError):
        TR.load_train_state(path, other)


BAD_TRAIN_STATE_META = [
    ("rng_state", lambda m: m["rng_state"].update(bit_generator="MT19937")),
    ("best_val_ic", lambda m: m.update(best_val_ic="0.5")),
    ("epochs_since_best", lambda m: m.pop("epochs_since_best")),
    ("encoder", lambda m: m["encoder"].pop("kernel")),
]


@pytest.mark.parametrize("entry,edit", BAD_TRAIN_STATE_META, ids=[b[0] for b in BAD_TRAIN_STATE_META])
def test_train_state_malformed_metadata_names_entry(tmp_path, entry, edit):
    model = tiny_model()
    tb, vb, _ = tiny_streams()
    state, _ = TR.train(model, tb, vb, TR.TrainConfig(max_epochs=1, lr=1e-3), LossWeights())
    path = tmp_path / "state.npz"
    TR.save_train_state(path, state, model)
    rewrite_meta(path, edit)
    with pytest.raises(TR.CheckpointError) as e:
        TR.load_train_state(path, model)
    assert str(path) in str(e.value) and entry in str(e.value)


def test_training_log_lines(tmp_path):
    import json

    tb, vb, _ = tiny_streams()
    log_path = tmp_path / "log.jsonl"
    for _ in range(2):  # a new run starts the log afresh
        TR.train(tiny_model(), tb, vb, TR.TrainConfig(max_epochs=2, lr=1e-3), LossWeights(), log_path=log_path)
    rows = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1]
    for key in ("epoch", "train_loss", "expert_loss", "router_loss", "val_ic", "wall_ms"):
        assert key in rows[0]
