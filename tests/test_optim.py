"""AdamW's chunked in-place step against the whole-array formula, and its
all-or-nothing validation of a gradient dict."""

from __future__ import annotations

import numpy as np
import pytest

from qtmix.autodiff import parameter
from qtmix.config import OptimizerConfig
from qtmix.optim import CHUNK, AdamW


def reference_step(values, m, v, t, grads, lr, cfg, no_decay):
    """The whole-array AdamW update, one parameter at a time; returns the
    new step count. ``values``, ``m`` and ``v`` are dicts of arrays updated
    in place."""
    t += 1
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    for name, vals in values.items():
        g = grads.get(name)
        gv = (np.zeros_like(m[name]) if g is None
              else np.ascontiguousarray(g, dtype=np.complex128).view(np.float64))
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * gv
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * gv * gv
        theta = vals.view(np.float64)
        update = (m[name] / c1) / (np.sqrt(v[name] / c2) + cfg.eps)
        if cfg.weight_decay > 0.0 and name not in no_decay:
            update = update + cfg.weight_decay * theta
        theta -= lr * update
    return t


def test_chunked_step_matches_whole_array_formula_bitwise():
    rng = np.random.default_rng(4)
    cfg = OptimizerConfig(weight_decay=0.01)
    big = (3 * CHUNK // 8 + 1, 2)     # 1.5 * CHUNK + 4 floats: a partial last chunk
    init = {
        "table": rng.normal(size=big) + 1j * rng.normal(size=big),
        "lcu_coeffs": rng.normal(size=5) + 1j * rng.normal(size=5),   # no decay
        "angles": rng.normal(size=7).astype(complex),                  # real-constrained
        "bias": rng.normal(size=4) + 1j * rng.normal(size=4),          # no gradient
    }
    params = {name: parameter(arr.copy()) for name, arr in init.items()}
    opt = AdamW(params, cfg)
    values = {name: arr.copy() for name, arr in init.items()}
    m = {name: np.zeros_like(arr.view(np.float64)) for name, arr in values.items()}
    v = {name: np.zeros_like(arr.view(np.float64)) for name, arr in values.items()}
    t = 0
    for step in range(4):
        grads = {
            "table": rng.normal(size=big) + 1j * rng.normal(size=big),
            "lcu_coeffs": rng.normal(size=5) + 1j * rng.normal(size=5),
            "angles": rng.normal(size=7).astype(complex),
        }
        lr = 0.01 / (step + 1)
        opt.step(grads, lr)
        t = reference_step(values, m, v, t, grads, lr, cfg, ("lcu_coeffs",))
        assert opt.t == t
        for name in init:
            assert params[name].values.tobytes() == values[name].tobytes(), name
            assert opt.m[name].tobytes() == m[name].tobytes(), name
            assert opt.v[name].tobytes() == v[name].tobytes(), name
    assert np.all(params["angles"].values.imag == 0.0)
    assert not np.array_equal(params["bias"].values, init["bias"])   # decay ran


def _state(opt, params):
    return (opt.t, {n: p.values.tobytes() for n, p in params.items()},
            {n: a.tobytes() for n, a in opt.m.items()},
            {n: a.tobytes() for n, a in opt.v.items()})


def test_wrong_shape_of_a_later_gradient_changes_nothing():
    params = {"a": parameter(np.array([1.0, 2.0])), "b": parameter(np.array([3.0]))}
    opt = AdamW(params, OptimizerConfig())
    opt.step({"a": np.array([0.5, -0.5]), "b": np.array([1.0])}, lr=0.1)
    before = _state(opt, params)
    with pytest.raises(ValueError, match="'b' has shape"):
        opt.step({"a": np.array([0.5, -0.5]), "b": np.zeros(2)}, lr=0.1)
    assert _state(opt, params) == before


def test_unknown_gradient_name_raises_and_changes_nothing():
    params = {"a": parameter(np.array([1.0, 2.0]))}
    opt = AdamW(params, OptimizerConfig())
    before = _state(opt, params)
    with pytest.raises(ValueError, match="unknown parameter.*typo"):
        opt.step({"a": np.array([0.5, -0.5]), "typo": np.zeros(2)}, lr=0.1)
    assert _state(opt, params) == before
