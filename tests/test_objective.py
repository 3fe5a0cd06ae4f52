import numpy as np
import pytest

from groupmoe import objective as O
from groupmoe import tensor as T

from conftest import check_grad


def tensors(*arrays):
    return [T.Tensor(a) for a in arrays]


# -- expert loss -------------------------------------------------------------


def test_perfect_correlation_is_minus_one(rng):
    labels = [rng.normal(size=8), rng.normal(size=5)]
    loss = O.expert_loss(tensors(*labels), labels)
    assert loss.item() == pytest.approx(-1.0, abs=1e-12)


def test_perfect_anticorrelation_is_plus_one(rng):
    labels = [rng.normal(size=8)]
    loss = O.expert_loss(tensors(-labels[0]), labels)
    assert loss.item() == pytest.approx(1.0, abs=1e-12)


def test_positive_affine_invariance(rng):
    labels = [rng.normal(size=9), rng.normal(size=7)]
    preds = [rng.normal(size=9), rng.normal(size=7)]
    base = O.expert_loss(tensors(*preds), labels).item()
    scaled = [3.7 * preds[0] + 0.4, 0.02 * preds[1] - 11.0]
    assert abs(O.expert_loss(tensors(*scaled), labels).item() - base) < 1e-9
    # positive scale on labels too: Pearson is symmetric
    affine_pred = [a * y + b for a, y, b in zip((2.0, 0.5), preds, (1.0, -2.0))]
    assert abs(O.expert_loss(tensors(*affine_pred), labels).item() - base) < 1e-9


def test_expert_loss_bounded(rng):
    for _ in range(50):
        n_days = int(rng.integers(1, 5))
        labels = [rng.normal(size=int(rng.integers(2, 20))) for _ in range(n_days)]
        preds = [rng.normal(size=y.shape) for y in labels]
        val = O.expert_loss(tensors(*preds), labels).item()
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_expert_loss_matches_pearson_oracle(rng):
    # textbook population Pearson, computed independently
    labels = [rng.normal(size=6), rng.normal(size=11)]
    preds = [rng.normal(size=6), rng.normal(size=11)]

    def pearson(a, b):
        am, bm = a - a.mean(), b - b.mean()
        return (am * bm).mean() / np.sqrt((am**2).mean() * (bm**2).mean())

    want = -np.mean([pearson(p, y) for p, y in zip(preds, labels)])
    got = O.expert_loss(tensors(*preds), labels).item()
    assert abs(got - want) < 1e-10


def test_single_stock_day_skipped(rng, caplog):
    labels = [rng.normal(size=1), rng.normal(size=6)]
    preds = tensors(labels[0], labels[1])
    with caplog.at_level("WARNING"):
        loss = O.expert_loss(preds, labels)
    assert loss.item() == pytest.approx(-1.0, abs=1e-12)
    assert any("skipping day" in r.message for r in caplog.records)


def test_all_degenerate_days_rejected(rng):
    with pytest.raises(ValueError):
        O.expert_loss(tensors(np.array([1.0])), [np.array([1.0])])


def test_zero_variance_day_guarded(rng):
    labels = [rng.normal(size=5)]
    loss = O.expert_loss(tensors(np.zeros(5)), labels)
    assert np.isfinite(loss.item())


def test_expert_loss_gradient(rng):
    labels = [rng.normal(size=6)]

    def build(x):
        return O.expert_loss([x], labels)

    check_grad(build, rng.normal(size=6))


# -- router loss --------------------------------------------------------------


def test_router_loss_zero_for_constant_logits():
    h = T.Tensor(np.full((4, 2, 3), 2.5))
    assert O.router_loss([h]).item() == 0.0


def test_router_loss_two_logit_example():
    h = T.Tensor(np.array([[1.0, -1.0]]))
    assert O.router_loss([h]).item() == pytest.approx(2.0, abs=1e-15)


def test_router_loss_matches_triple_loop_oracle(rng):
    hs = [rng.normal(size=(4, 2, 3)), rng.normal(size=(2, 2, 3))]
    want = 0.0
    for h in hs:
        for i in range(h.shape[0]):
            m = h[i].mean()
            for j in range(h.shape[1]):
                for k in range(h.shape[2]):
                    want += (h[i, j, k] - m) ** 2
    got = O.router_loss([T.Tensor(h) for h in hs]).item()
    assert abs(got - want) < 1e-12


def test_router_loss_nonnegative_iff_constant(rng):
    for _ in range(20):
        h = rng.normal(size=(3, 2, 2))
        val = O.router_loss([T.Tensor(h)]).item()
        assert val >= 0.0
        spread = np.ptp(h.reshape(3, -1), axis=1).max()
        assert (val == 0.0) == (spread == 0.0)


def test_router_loss_descent_shrinks_spread(rng):
    # minimizing the router loss alone drives the per-stock logit spread to 0
    h = T.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    spreads = []
    for _ in range(100):
        loss = O.router_loss([h])
        loss.backward()
        h = T.Tensor(h.data - 0.05 * h.grad, requires_grad=True)
        spreads.append(np.ptp(h.data, axis=1).max())
    assert all(b <= a + 1e-15 for a, b in zip(spreads, spreads[1:]))
    assert spreads[-1] < 0.01 * spreads[0]


def test_router_loss_gradient(rng):
    def build(x):
        return O.router_loss([x])

    check_grad(build, rng.normal(size=(3, 4)))


# -- total loss --------------------------------------------------------------------


def test_total_alpha_zero(rng):
    labels = [rng.normal(size=5)]
    e = O.expert_loss(tensors(rng.normal(size=5)), labels)
    r = O.router_loss([T.Tensor(rng.normal(size=(5, 4)))])
    total, bd = O.total_loss(e, r, O.LossWeights(alpha=0.0, beta=1.0))
    assert bd.total == bd.expert_loss
    assert total.item() == e.item()


def test_total_paper_coefficients():
    e = T.Tensor(-0.5)
    r = T.Tensor(10.0)
    total, bd = O.total_loss(e, r, O.LossWeights(alpha=2e-3, beta=1.0))
    assert bd.total == pytest.approx(-0.48, abs=1e-12)
    assert abs(bd.total - (bd.beta_part if hasattr(bd, "beta_part") else (2e-3 * bd.router_loss + 1.0 * bd.expert_loss))) < 1e-12


def test_total_invariant(rng):
    weights = O.LossWeights(alpha=0.37, beta=2.2)
    e = T.Tensor(float(rng.normal()))
    r = T.Tensor(float(rng.normal() ** 2))
    _, bd = O.total_loss(e, r, weights)
    assert abs(bd.total - (weights.alpha * bd.router_loss + weights.beta * bd.expert_loss)) < 1e-12


def test_total_gradient_through_both_terms(rng):
    labels = [rng.normal(size=6)]

    def build(x):
        e = O.expert_loss([x], labels)
        r = O.router_loss([T.square(x).reshape(2, 3)])
        total, _ = O.total_loss(e, r, O.LossWeights(alpha=0.01, beta=1.0))
        return total

    check_grad(build, rng.normal(size=6))


def test_loss_weights_validation():
    assert O.LossWeights(alpha=-1.0).validate()
    assert O.LossWeights(beta=0.0).validate()
    assert not O.LossWeights().validate()
