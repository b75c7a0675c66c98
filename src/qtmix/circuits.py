"""Differentiable circuit ops on batches of statevectors.

A batch of states is a (k, 2**q) complex tensor, one state per row, in
little-endian basis order: qubit 0 is the least significant bit of the
basis index. ``ansatz_rows`` runs the entangling template over such a
batch and ``pauli_expectations`` reads it out; both are autodiff ops, and
gradients flow through both the states and the template angles.
Registers are capped at ``MAX_QUBITS``; this is a desk-scale simulator
and the cap keeps any single state under a quarter-million amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .errors import CapacityError, DegenerateStateError, ShapeError, WiringError

MAX_QUBITS = 14

__all__ = ["MAX_QUBITS", "AnsatzAngles", "ansatz_rows", "pauli_expectations"]


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


def ansatz_rows(states: Tensor, angles: Tensor, q: int, layers: int, *,
                angle_index=None,
                operands: kernels.TemplateOperands | None = None) -> Tensor:
    """Fused template application over a batch.

    ``states``: (k, 2**q) tensor of statevector rows; ``angles``: (k, L)
    per-row angle matrix, or (L,) angles shared by every row, with
    L = 4 * layers * q. ``angle_index`` optionally picks each row's angles
    from a (U, L) matrix: row j runs ``angles[angle_index[j]]``, so rows
    that share angles (one token in many windows) share one angle row and
    one operand holder, and their angle gradients are summed into it. One
    tape node covers the whole gate sequence; the backward pass re-derives
    intermediate states by un-applying gates (adjoint sweep) instead of
    storing them.

    ``operands`` optionally passes the template's block operands, built by
    ``kernels.template_operands(q, layers, angles.values)``, so that calls
    that run the same angles (the mixer's polynomial powers) build them
    once; a holder built from another angle array, or for another template,
    raises ``ShapeError``. By default they are built here, once for the
    forward and the adjoint sweep of this call.
    """
    if q < 2:
        raise WiringError("the entangling template needs q >= 2")
    if q > MAX_QUBITS:
        raise CapacityError(f"q={q} exceeds the simulation cap of {MAX_QUBITS} qubits")
    if states.values.ndim != 2 or states.shape[1] != (1 << q):
        raise ShapeError(f"ansatz_rows: states must be (k, {1 << q}), got {states.shape}")
    k, want = states.shape[0], kernels.angle_count(q, layers)
    rows = None if angle_index is None else np.asarray(angle_index, dtype=np.int64)
    if rows is None:
        if angles.shape not in ((k, want), (want,)):
            raise ShapeError(
                f"ansatz_rows: angles must be ({k}, {want}) or ({want},), got {angles.shape}")
    elif (angles.values.ndim != 2 or angles.shape[1] != want or rows.shape != (k,)
          or (k and (rows.min() < 0 or rows.max() >= angles.shape[0]))):
        raise ShapeError(
            f"ansatz_rows: angle_index must pick {k} row(s) of (U, {want}) angles, "
            f"got {rows.shape} into {angles.shape}")
    if operands is None:
        operands = kernels.template_operands(q, layers, angles.values)
    elif operands.angles is not angles.values or (operands.q, operands.layers) != (q, layers):
        raise ShapeError("ansatz_rows: the operands were not built from these angles "
                         f"for q={q} with {layers} layer(s)")
    out = kernels.ansatz_rows_forward(states.values, operands, rows)
    angle_shape = angles.shape

    def vjp(g):
        g_rows, g_ang = kernels.ansatz_rows_vjp(out, operands, g, rows)
        if rows is not None:
            per_row, g_ang = g_ang, np.zeros(angle_shape)
            ad._scatter_rows(g_ang, rows, per_row)
        return (g_rows, g_ang)

    return ad._make(out, (states, angles), vjp)


def pauli_expectations(amps: Tensor, q: int) -> Tensor:
    """Readout features: [<X_0>..<X_{q-1}>, <Y_0>.., <Z_0>..] of each
    normalized row of a (k, 2**q) batch, a real (k, 3q) tensor.

    Differentiated with the full quotient rule (the internal normalization
    by <psi|psi> is part of the op), so gradients are exact even when the
    caller passes a not-quite-normalized state.
    """
    rows = amps.values
    if rows.ndim != 2 or rows.shape[1] != (1 << q):
        raise ShapeError(f"pauli_expectations: states must be (k, {1 << q}), got {amps.shape}")
    norm_sq = np.add.reduce(rows.real * rows.real + rows.imag * rows.imag, axis=1)
    if np.any(norm_sq <= 1e-12):
        raise DegenerateStateError(
            f"cannot read out a state with squared norm {float(norm_sq.min()):.3e}"
        )
    feats = kernels.pauli_expectations_raw(rows, q)

    def vjp(g):
        # d<P>/dpsi* = (P psi - <P> psi) / <psi|psi>, summed over the 3q
        # Paulis with the output gradient as weights
        gr = g.real
        acc = kernels.pauli_apply(rows, q, gr) - np.add.reduce(gr * feats, axis=1)[:, None] * rows
        return ((2.0 / norm_sq)[:, None] * acc,)

    return ad._make(feats, (amps,), vjp)
