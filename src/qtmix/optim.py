"""AdamW with decoupled weight decay, plus the cosine learning-rate ramp.

Every parameter tensor stores complex128 values. The optimizer works on
the float64 view of that storage, so each complex entry is treated as an
independent (real, imaginary) pair; for real-constrained parameters the
imaginary half has zero gradient and zero value and stays exactly zero.

A step updates the moments and the parameters in place, ``CHUNK`` floats
at a time, through two chunk-sized scratch buffers allocated once per
optimizer. Each float goes through the same ufuncs, in the same order, as
the whole-array formula

    m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
    theta -= lr * ((m/c1) / (sqrt(v/c2) + eps) + wd*theta)

so the result is bitwise that formula's, without its parameter-sized
temporaries (about 10 MB per step for a 20,000-id embedding table).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .config import OptimizerConfig

# mixing coefficients live on the l1 sphere after normalization; decaying
# them toward zero fights the normalizer for no benefit
DEFAULT_NO_DECAY = ("lcu_coeffs",)

# floats per chunk: two scratch buffers of this size (128 KiB each) stay in
# cache next to the chunk of m, v, g and theta they combine
CHUNK = 16384


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Cosine ramp from lr_max (step 0) down to lr_min (last step)."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    span = max(total_steps - 1, 1)
    frac = min(step, span) / span
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * frac))


class AdamW:
    def __init__(self, named_params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = dict(named_params)
        self.cfg = cfg
        self.t = 0
        self.m = {}
        self.v = {}
        for name, tns in self.params.items():
            view = tns.values.view(np.float64)
            self.m[name] = np.zeros_like(view)
            self.v[name] = np.zeros_like(view)
        largest = max((m.size for m in self.m.values()), default=0)
        self._scratch = np.empty((2, min(CHUNK, largest)))

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """One update. ``grads`` maps parameter names to complex arrays in
        the convention d(loss)/d(real) + i * d(loss)/d(imag); names absent
        from the dict contribute zero gradient (weight decay still runs).
        Every name and shape is checked before any state changes: an
        unknown name or a wrong shape raises ``ValueError`` and leaves the
        parameters, moments and step count as they were."""
        unknown = sorted(set(grads) - set(self.params))
        if unknown:
            raise ValueError(f"gradient for unknown parameter(s) {', '.join(unknown)}")
        views = {}
        for name, g in grads.items():
            garr = np.ascontiguousarray(g, dtype=np.complex128)
            if garr.shape != self.params[name].shape:
                raise ValueError(
                    f"gradient for '{name}' has shape {garr.shape}, "
                    f"parameter has {self.params[name].shape}")
            views[name] = garr.view(np.float64).reshape(-1)
        cfg = self.cfg
        self.t += 1
        c1 = 1.0 - cfg.beta1 ** self.t
        c2 = 1.0 - cfg.beta2 ** self.t
        for name, tns in self.params.items():
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            # a missing gradient reads as zeros: adding them still turns a
            # -0.0 moment into +0.0, as the whole-array formula does
            g = views.get(name)
            if g is None:
                g = np.broadcast_to(0.0, m.shape)
            wd = cfg.weight_decay if name not in DEFAULT_NO_DECAY else 0.0
            theta = tns.values.view(np.float64).reshape(-1)
            for start in range(0, m.size, CHUNK):
                part = slice(start, start + CHUNK)
                self._update_chunk(m[part], v[part], g[part], theta[part], c1, c2, wd, lr)

    def _update_chunk(self, m, v, g, theta, c1, c2, wd, lr) -> None:
        cfg = self.cfg
        a, b = self._scratch[0, :m.size], self._scratch[1, :m.size]
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += cfg.eps
        np.divide(m, c1, out=b)
        b /= a
        if wd > 0.0:
            np.multiply(wd, theta, out=a)
            b += a
        b *= lr
        theta -= b
