"""Dense state-vector reference for one mixer window, from first principles.

Every operator is a full 2**q x 2**q matrix built with Kronecker products,
from the gate definitions and the template order documented in
``qtmix.kernels`` (module docstring and ``ansatz_sequence``). Nothing here
imports qtmix, so the reference shares no code with the program it checks.

Basis order is little-endian: qubit 0 is the least significant bit of the
basis index, so in a Kronecker product of one factor per qubit, qubit q-1
is the leftmost factor and qubit 0 the rightmost.

The gate definitions, with c = cos(theta/2) and s = sin(theta/2):

    RY(theta) = [[c, -s], [s, c]]            = c*I - i*s*Y
    RX(theta) = [[c, -i*s], [-i*s, c]]       = c*I - i*s*X
    CRX(theta) on (control, target) = P0 (x) I + P1 (x) RX(theta)
                                    = P0 (x) I + c * P1 (x) I - i*s * P1 (x) X

Because a Kronecker product is linear in each factor, a gate on the full
register is the same combination of angle-free dense operators, which are
built once per register and reused for every angle.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

_ONE_QUBIT = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
    "p0": np.diag([1.0, 0.0]).astype(complex),
    "p1": np.diag([0.0, 1.0]).astype(complex),
}


class Register:
    """Dense operators on q qubits, built on first use and kept."""

    def __init__(self, q: int):
        self.q = q
        self._ops: dict = {}

    def op(self, **factors: str) -> np.ndarray:
        """The dense operator with factor ``factors['q<k>']`` on qubit k
        (a name from I, X, Y, Z, P0, P1) and the identity elsewhere."""
        key = tuple(sorted(factors.items()))
        if key not in self._ops:
            per_qubit = [_ONE_QUBIT[factors.get(f"q{k}", "i")]
                         for k in range(self.q - 1, -1, -1)]
            self._ops[key] = reduce(np.kron, per_qubit)
        return self._ops[key]

    def ry(self, k: int, theta: float, state: np.ndarray) -> np.ndarray:
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return c * state - 1j * s * (self.op(**{f"q{k}": "y"}) @ state)

    def crx(self, control: int, target: int, theta: float, state: np.ndarray) -> np.ndarray:
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        ctl, tgt = f"q{control}", f"q{target}"
        return (self.op(**{ctl: "p0"}) @ state
                + c * (self.op(**{ctl: "p1"}) @ state)
                - 1j * s * (self.op(**{ctl: "p1", tgt: "x"}) @ state))

    def template(self, layers: int, angles: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Run the template on ``state``.

        Per layer, four blocks of q angles: RY on qubit i, i ascending; the
        CRX ring control i -> target (i+1) mod q for i = q-1 down to 0; RY
        on qubit i again; the CRX ring control i -> target (i-1) mod q for
        i = 0 up to q-1. Angle ``block offset + i`` belongs to qubit (or
        control) i.
        """
        q = self.q
        base = 0
        for _ in range(layers):
            for i in range(q):
                state = self.ry(i, angles[base + i], state)
            base += q
            for i in range(q - 1, -1, -1):
                state = self.crx(i, (i + 1) % q, angles[base + i], state)
            base += q
            for i in range(q):
                state = self.ry(i, angles[base + i], state)
            base += q
            for i in range(q):
                state = self.crx(i, (i - 1) % q, angles[base + i], state)
            base += q
        return state

    def readout(self, state: np.ndarray) -> np.ndarray:
        """[<X_0>..<X_{q-1}>, <Y_0>.., <Z_0>..] of state / ||state||."""
        norm_sq = np.vdot(state, state).real
        return np.array([np.vdot(state, self.op(**{f"q{k}": axis}) @ state).real / norm_sq
                         for axis in "xyz" for k in range(self.q)])

    def mix_window(self, token_angles: np.ndarray, mask: np.ndarray, lcu: np.ndarray,
                   poly: np.ndarray, ff_angles: np.ndarray, *, embed_layers: int,
                   ff_layers: int, normalize: bool = True) -> dict:
        """Features, pre-normalisation squared norm and mixing weights of a window.

        b = mask * lcu, divided by sum |b| when ``normalize``;
        M = sum_j b_j U(token_angles[j]); the polynomial state is
        sum_k poly[k] M^k |0...0>, and its squared norm is ``pre_norm``.
        That state is renormalised, run through the feed-forward template
        and read out.
        """
        weights = np.where(mask, lcu, 0.0)
        if normalize:
            weights = weights / np.abs(weights).sum()
        state = np.zeros(1 << self.q, dtype=complex)
        state[0] = 1.0
        acc = poly[0] * state
        for k in range(1, len(poly)):
            state = sum(weights[j] * self.template(embed_layers, token_angles[j], state)
                        for j in np.flatnonzero(mask))
            acc = acc + poly[k] * state
        pre_norm = np.vdot(acc, acc).real
        final = self.template(ff_layers, ff_angles, acc / np.sqrt(pre_norm))
        return {"features": self.readout(final), "pre_norm": pre_norm, "weights": weights}
