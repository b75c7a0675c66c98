"""Shared test utilities: finite-difference gradient checking and
reference single-gate kernels.

The probe loss for an op with output T is L = Re(sum(w * T)) for a frozen
random complex weight w, which enters ``mul`` as an untracked tensor, the
way every constant enters the tape. Its building blocks (mul, reshape,
sum_last, real_part) have closed-form or finite-difference tests of their
own in test_autodiff.py, so using them as the reducer here is not circular.
A test checks an op against a constant operand by closing over an
untracked tensor, since ``check_op_gradients`` tracks every leaf it is given.

The single-gate kernels (``ry_rows``, ``crx_rows`` and their derivatives)
apply one gate to every row of a (k, 2**q) batch through strided views,
in the gate conventions of ``qtmix.kernels``. Composed along
``ansatz_sequence`` they are the gate-by-gate reference that the fused
template sweeps are compared against.
"""

from __future__ import annotations

import numpy as np

from qtmix import autodiff as ad
from qtmix.kernels import _bit_views


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def probe_loss(out, weight):
    """Real scalar probe: Re(sum(weight * out))."""
    w = ad.tensor(np.asarray(weight, dtype=np.complex128))
    return ad.real_part(ad.sum_last(ad.reshape(ad.mul(out, w), (-1,))))


def fd_gradients(fn, leaves, weight, h=1e-6, complex_leaves=None):
    """Central-difference gradients of Re(sum(weight * fn(leaves))).

    ``fn`` maps a list of leaf Tensors to an output Tensor. Each leaf is
    perturbed per real coordinate; leaves listed in ``complex_leaves`` (by
    position) get their imaginary coordinates perturbed too. Returns one
    complex gradient array per leaf (imag part zero for real-only leaves).
    """
    if complex_leaves is None:
        complex_leaves = set(range(len(leaves)))

    def loss_value():
        fresh = [ad.tensor(l.values) for l in leaves]
        out = fn(fresh)
        return float(probe_loss(out, weight).values.real)

    grads = []
    for li, leaf in enumerate(leaves):
        g = np.zeros(leaf.shape, dtype=np.complex128)
        flat = leaf.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_value()
            flat[i] = orig - h
            lm = loss_value()
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
            if li in complex_leaves:
                flat[i] = orig + 1j * h
                lp = loss_value()
                flat[i] = orig - 1j * h
                lm = loss_value()
                flat[i] = orig
                gflat[i] += 1j * (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def check_op_gradients(fn, leaves, rng, atol=2e-6, rtol=1e-6, complex_leaves=None):
    """Compare tape gradients of the probe loss against central differences
    for every leaf. Returns the worst absolute error seen."""
    if complex_leaves is None:
        complex_leaves = set(range(len(leaves)))
    with ad.Tape():
        tracked = [ad.parameter(l.values) for l in leaves]
        out = fn(tracked)
        weight = rand_complex(rng, out.shape)
        loss = probe_loss(out, weight)
        ad.backward(loss)
    fd = fd_gradients(fn, leaves, weight, complex_leaves=complex_leaves)
    worst = 0.0
    for li, (t, f) in enumerate(zip(tracked, fd)):
        a = t.grad if t.grad is not None else np.zeros(t.shape, dtype=np.complex128)
        if li not in complex_leaves:
            # real-valued leaf: only the real coordinate was probed
            a, f = a.real, f.real
        err = np.abs(a - f)
        tol = atol + rtol * np.abs(f)
        assert np.all(err <= tol), f"gradient mismatch: max err {err.max():.3e}"
        worst = max(worst, float(err.max()) if err.size else 0.0)
    return worst


# ---------------------------------------------------------------------------
# reference single-gate kernels

def _theta_cs(theta, ndim_tail: int):
    """cos/sin of theta/2, shaped to broadcast over a batch with
    ``ndim_tail`` trailing axes. theta is a scalar or a (k,) array."""
    th = np.asarray(theta, dtype=np.float64)
    c = np.cos(th / 2.0)
    s = np.sin(th / 2.0)
    if th.ndim == 1:
        shape = (th.shape[0],) + (1,) * ndim_tail
        c = c.reshape(shape)
        s = s.reshape(shape)
    return c, s


def ry_rows(arr, q, qubit, theta):
    """Apply RY(theta) on ``qubit`` to every row. theta: scalar or (k,)."""
    a0, a1 = _bit_views(arr, q, qubit)
    c, s = _theta_cs(theta, a0.ndim - 1)
    out = np.empty_like(arr)
    o0, o1 = _bit_views(out, q, qubit)
    o0[...] = c * a0 - s * a1
    o1[...] = s * a0 + c * a1
    return out


def dry_rows(arr, q, qubit, theta):
    """Apply d RY(theta) / d theta to every row."""
    a0, a1 = _bit_views(arr, q, qubit)
    c, s = _theta_cs(theta, a0.ndim - 1)
    out = np.empty_like(arr)
    o0, o1 = _bit_views(out, q, qubit)
    o0[...] = 0.5 * (-s * a0 - c * a1)
    o1[...] = 0.5 * (c * a0 - s * a1)
    return out


def _pair_views(arr, q, control, target):
    """Views of the control=1 subspace split by the target bit.

    Returns (s0, s1): amplitudes with control set and target clear/set,
    each of shape (k, A, B, C) for the appropriate strides.
    """
    k = arr.shape[0]
    hi, lo = max(control, target), min(control, target)
    a = 1 << (q - 1 - hi)
    b = 1 << (hi - 1 - lo)
    c = 1 << lo
    v = arr.reshape(k, a, 2, b, 2, c)
    if control == hi:
        return v[:, :, 1, :, 0, :], v[:, :, 1, :, 1, :]
    return v[:, :, 0, :, 1, :], v[:, :, 1, :, 1, :]


def crx_rows(arr, q, control, target, theta):
    """Apply CRX(theta) with the given control/target to every row."""
    s0, s1 = _pair_views(arr, q, control, target)
    c, s = _theta_cs(theta, s0.ndim - 1)
    out = arr.copy()
    o0, o1 = _pair_views(out, q, control, target)
    o0[...] = c * s0 - 1j * s * s1
    o1[...] = -1j * s * s0 + c * s1
    return out


def dcrx_rows(arr, q, control, target, theta):
    """Apply d CRX(theta) / d theta to every row (zero on the control=0
    subspace)."""
    s0, s1 = _pair_views(arr, q, control, target)
    c, s = _theta_cs(theta, s0.ndim - 1)
    out = np.zeros_like(arr)
    o0, o1 = _pair_views(out, q, control, target)
    o0[...] = 0.5 * (-s * s0 - 1j * c * s1)
    o1[...] = 0.5 * (-1j * c * s0 - s * s1)
    return out
