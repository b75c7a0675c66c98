"""Differentiable statevector simulation.

A ``Statevector`` wraps the qubit count and a complex amplitude tensor, one
state or a batch of states one per row; the functions here are autodiff
ops. Gradients flow through both the state and
the gate angles. Register layout is little-endian: qubit 0 is the least
significant bit of the basis index. Registers are capped at 14 qubits; this
is a desk-scale simulator and the cap keeps any single state under a
quarter-million amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .errors import (
    CapacityError,
    DegenerateStateError,
    QubitIndexError,
    ShapeError,
    WiringError,
)

MAX_QUBITS = 14

__all__ = [
    "MAX_QUBITS", "Statevector", "AnsatzAngles", "zero_state",
    "apply_ry", "apply_crx", "apply_ansatz14", "ansatz_rows",
    "pauli_expectations",
]


@dataclass
class Statevector:
    """q qubits' worth of amplitudes, little-endian basis order: shape
    (2**q,) for one state, (W, 2**q) for a batch of W states."""

    q: int
    amps: Tensor

    def __post_init__(self):
        if not (1 <= self.q <= MAX_QUBITS):
            raise CapacityError(f"q={self.q} outside supported range 1..{MAX_QUBITS}")
        if self.amps.values.ndim not in (1, 2) or self.amps.shape[-1] != (1 << self.q):
            raise ShapeError(
                f"statevector for q={self.q} needs shape ({1 << self.q},) or "
                f"(W, {1 << self.q}), got {self.amps.shape}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.q

    def norm_sq(self) -> float:
        v = self.amps.values
        return float(np.vdot(v, v).real)


@dataclass
class AnsatzAngles:
    """Angle bundle for the entangling template: 4 * layers * q real values."""

    theta: Tensor
    q: int
    layers: int

    def __post_init__(self):
        want = kernels.angle_count(self.q, self.layers)
        if self.theta.shape != (want,):
            raise ShapeError(
                f"template on q={self.q} with {self.layers} layer(s) needs "
                f"{want} angles, got shape {self.theta.shape}"
            )
        if np.any(self.theta.values.imag != 0.0):
            raise ShapeError("ansatz angles must be real (zero imaginary parts)")


def zero_state(q: int) -> Statevector:
    """|0...0> on q qubits."""
    if not (1 <= q <= MAX_QUBITS):
        raise CapacityError(f"q={q} outside supported range 1..{MAX_QUBITS}")
    amps = np.zeros(1 << q, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(q, ad.tensor(amps))


def _check_qubit(q: int, k: int, name: str = "qubit") -> None:
    if not (0 <= k < q):
        raise QubitIndexError(f"{name} {k} outside register of {q} qubits")


def _angle_operand(angle) -> tuple[Tensor | None, float | np.ndarray]:
    """Accept a plain real number or a 0-d tensor node as a gate angle."""
    if isinstance(angle, Tensor):
        if angle.shape != ():
            raise ShapeError(f"gate angle must be 0-d, got shape {angle.shape}")
        return angle, float(angle.values.real)
    return None, float(angle)


def apply_ry(state: Statevector, qubit: int, angle) -> Statevector:
    """RY(angle) on one qubit. ``angle`` is a float or a 0-d tensor."""
    _check_qubit(state.q, qubit)
    node, th = _angle_operand(angle)
    q = state.q
    sv = state.amps.values
    out = kernels.ry_rows(sv.reshape(1, -1), q, qubit, th).reshape(-1)

    if node is None:
        out_t = ad._make(out, (state.amps,), lambda g: (
            kernels.ry_rows(g.reshape(1, -1), q, qubit, -th).reshape(-1),
        ))
    else:
        def vjp(g):
            g2 = g.reshape(1, -1)
            g_state = kernels.ry_rows(g2, q, qubit, -th).reshape(-1)
            d = kernels.dry_rows(sv.reshape(1, -1), q, qubit, th).reshape(-1)
            g_ang = np.asarray(np.vdot(g, d).real, dtype=np.complex128)
            return (g_state, g_ang)

        out_t = ad._make(out, (state.amps, node), vjp)
    return Statevector(q, out_t)


def apply_crx(state: Statevector, control: int, target: int, angle) -> Statevector:
    """Controlled-RX(angle): RX on ``target`` where ``control`` is set."""
    _check_qubit(state.q, control, "control")
    _check_qubit(state.q, target, "target")
    if control == target:
        raise WiringError(f"control and target coincide on qubit {control}")
    node, th = _angle_operand(angle)
    q = state.q
    sv = state.amps.values
    out = kernels.crx_rows(sv.reshape(1, -1), q, control, target, th).reshape(-1)

    if node is None:
        out_t = ad._make(out, (state.amps,), lambda g: (
            kernels.crx_rows(g.reshape(1, -1), q, control, target, -th).reshape(-1),
        ))
    else:
        def vjp(g):
            g2 = g.reshape(1, -1)
            g_state = kernels.crx_rows(g2, q, control, target, -th).reshape(-1)
            d = kernels.dcrx_rows(sv.reshape(1, -1), q, control, target, th).reshape(-1)
            g_ang = np.asarray(np.vdot(g, d).real, dtype=np.complex128)
            return (g_state, g_ang)

        out_t = ad._make(out, (state.amps, node), vjp)
    return Statevector(q, out_t)


def ansatz_rows(states: Tensor, angles: Tensor, q: int, layers: int,
                index=None) -> Tensor:
    """Fused template application over a batch.

    ``states``: (k, 2**q) tensor of statevector rows; ``angles``: (k, L)
    per-row angle matrix, or (L,) angles shared by every row, with
    L = 4 * layers * q. ``index`` optionally picks the rows to run: row j of
    the (len(index), 2**q) output evolves ``states[index[j]]``, so a state
    shared by many rows is stored once. One tape node covers the whole gate
    sequence; the backward pass re-derives intermediate states by
    un-applying gates (adjoint sweep) instead of storing them.
    """
    if q < 2:
        raise WiringError("the entangling template needs q >= 2")
    if states.values.ndim != 2 or states.shape[1] != (1 << q):
        raise ShapeError(f"ansatz_rows: states must be (k, {1 << q}), got {states.shape}")
    idx = None if index is None else np.asarray(index, dtype=np.int64)
    src = states.values if idx is None else states.values[idx]
    want = kernels.angle_count(q, layers)
    if angles.shape not in ((src.shape[0], want), (want,)):
        raise ShapeError(
            f"ansatz_rows: angles must be ({src.shape[0]}, {want}) or ({want},), "
            f"got {angles.shape}"
        )
    th = angles.values.real.astype(np.float64)
    out = kernels.ansatz_rows_forward(src, q, layers, th)
    shape = states.shape

    def vjp(g):
        g_rows, g_ang = kernels.ansatz_rows_vjp(out, q, layers, th, g)
        if idx is None:
            return (g_rows, g_ang.astype(np.complex128))
        g_state = np.zeros(shape, dtype=np.complex128)
        np.add.at(g_state, idx, g_rows)
        return (g_state, g_ang.astype(np.complex128))

    return ad._make(out, (states, angles), vjp)


def apply_ansatz14(state: Statevector, angles, layers: int | None = None) -> Statevector:
    """Apply the entangling template, with one set of angles, to a state or
    to every state of a batch.

    ``angles`` is an ``AnsatzAngles`` bundle, or a flat (4*layers*q,) tensor
    together with an explicit ``layers`` argument.
    """
    if isinstance(angles, AnsatzAngles):
        if angles.q != state.q:
            raise ShapeError(f"angle bundle is for q={angles.q}, state has q={state.q}")
        theta, layers = angles.theta, angles.layers
    else:
        if layers is None:
            raise ShapeError("layers must be given when passing a flat angle tensor")
        theta = angles
    if state.q < 2:
        raise WiringError("the entangling template needs q >= 2")
    want = kernels.angle_count(state.q, layers)
    if theta.shape != (want,):
        raise ShapeError(f"expected {want} angles for q={state.q}, layers={layers}, "
                         f"got shape {theta.shape}")
    if state.amps.values.ndim == 2:
        return Statevector(state.q, ansatz_rows(state.amps, theta, state.q, layers))
    rows = ad.reshape(state.amps, (1, state.dim))
    out = ansatz_rows(rows, theta, state.q, layers)
    return Statevector(state.q, ad.reshape(out, (state.dim,)))


def pauli_expectations(state: Statevector) -> Tensor:
    """Readout features: [<X_0>..<X_{q-1}>, <Y_0>.., <Z_0>..] of the
    normalized input, a real (3q,) tensor, or (W, 3q) for a batch.

    Differentiated with the full quotient rule (the internal normalization
    by <psi|psi> is part of the op), so gradients are exact even when the
    caller passes a not-quite-normalized state.
    """
    q = state.q
    psi = state.amps.values
    rows = psi.reshape(-1, state.dim)
    norm_sq = np.add.reduce(rows.real * rows.real + rows.imag * rows.imag, axis=1)
    if np.any(norm_sq <= 1e-12):
        raise DegenerateStateError(
            f"cannot read out a state with squared norm {float(norm_sq.min()):.3e}"
        )
    feats = kernels.pauli_expectations_raw(rows, q)

    def vjp(g):
        gr = g.real.reshape(rows.shape[0], 3 * q)
        acc = np.zeros_like(rows)
        for k in range(q):
            for col, axis in ((k, "x"), (q + k, "y"), (2 * q + k, "z")):
                w = gr[:, col]
                if not w.any():
                    continue
                pv = kernels.pauli_apply(rows, q, axis, k)
                acc += (w * (2.0 / norm_sq))[:, None] * (pv - feats[:, col, None] * rows)
        return (acc.reshape(psi.shape),)

    return ad._make(feats.reshape(psi.shape[:-1] + (3 * q,)).astype(np.complex128),
                    (state.amps,), vjp)
