import json
import math

import numpy as np
import pytest

from groupmoe import tensor as T
from groupmoe.panel import PanelError


def finite_diff_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def check_grad(build, x0: np.ndarray, tol: float = 1e-4, eps: float = 1e-5):
    """Compare analytic grad of build(Tensor) against central differences.

    ``build`` maps a leaf Tensor to a scalar Tensor.
    """
    leaf = T.Tensor(x0.copy(), requires_grad=True)
    out = build(leaf)
    out.backward()
    analytic = leaf.grad.copy()

    def scalar_fn(arr):
        return build(T.Tensor(arr)).item()

    numeric = finite_diff_grad(scalar_fn, x0.copy(), eps=eps)
    err = rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: rel err {err:.3e}\nanalytic={analytic}\nnumeric={numeric}"


def rewrite_archive(path, edit):
    """Apply ``edit`` to an archive's arrays (metadata entry included) and write it back."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def rewrite_meta(path, edit):
    """Apply ``edit`` to an archive's JSON metadata and write it back."""

    def edit_entry(arrays):
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        edit(meta)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    rewrite_archive(path, edit_entry)


def compute_label(prices: np.ndarray, t: int) -> float | None:
    """Scalar oracle of the label rule: the two-day-forward return
    (p[t+2] - p[t+1]) / p[t+1] of one stock's price row, None when a
    forward price is missing; a non-positive p[t+1] is a PanelError."""
    if t + 2 >= prices.shape[0]:
        return None
    p1, p2 = prices[t + 1], prices[t + 2]
    if math.isnan(p1) or math.isnan(p2):
        return None
    if p1 <= 0:
        raise PanelError(f"non-positive price {p1} at index {t + 1}, the base of the label of index {t}")
    return (p2 - p1) / p1


@pytest.fixture
def rng():
    return np.random.default_rng(0)
