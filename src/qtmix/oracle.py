"""Dense-matrix reference implementations.

Everything in this module builds explicit 2**q x 2**q matrices with
Kronecker products and index loops, independently of the strided kernels,
so the two routes can be compared numerically. Dense matrices live only
here; the simulator proper never materializes one. Intended for small q
(the CLI verify command refuses q > 3; tests stay at q <= 4).
"""

from __future__ import annotations

import numpy as np

from .kernels import angle_count, ansatz_sequence

_C = np.complex128


def ry_mat(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=_C)


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=_C),
    "y": np.array([[0, -1j], [1j, 0]], dtype=_C),
    "z": np.array([[1, 0], [0, -1]], dtype=_C),
}


def single_qubit_mat(q: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Embed a 2x2 gate on one qubit of a q-qubit register (little-endian:
    qubit 0 is the least significant bit, so it sits rightmost in the
    Kronecker product)."""
    m = np.eye(1 << (q - 1 - qubit), dtype=_C)
    m = np.kron(m, gate)
    return np.kron(m, np.eye(1 << qubit, dtype=_C))


def crx_mat(q: int, control: int, target: int, theta: float) -> np.ndarray:
    """Controlled-RX built column by column from index arithmetic."""
    dim = 1 << q
    out = np.zeros((dim, dim), dtype=_C)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    for col in range(dim):
        if (col >> control) & 1 == 0:
            out[col, col] = 1.0
        else:
            flipped = col ^ (1 << target)
            out[col, col] = c
            out[flipped, col] = -1j * s
    return out


def ansatz_unitary(q: int, layers: int, angles: np.ndarray) -> np.ndarray:
    """Dense unitary of the entangling template: the ordered product of its
    4 * layers * q gate matrices."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (angle_count(q, layers),):
        raise ValueError(f"expected {angle_count(q, layers)} angles, got {angles.shape}")
    u = np.eye(1 << q, dtype=_C)
    for kind, wires, idx in ansatz_sequence(q, layers):
        if kind == "ry":
            g = single_qubit_mat(q, wires, ry_mat(angles[idx]))
        else:
            g = crx_mat(q, wires[0], wires[1], angles[idx])
        u = g @ u
    return u


def lcu_dense(coeffs: np.ndarray, angle_rows: np.ndarray, q: int, layers: int) -> np.ndarray:
    """Dense mixing operator: sum_j coeffs[j] * U_j with U_j the template
    unitary at angle row j."""
    coeffs = np.asarray(coeffs, dtype=_C)
    dim = 1 << q
    m = np.zeros((dim, dim), dtype=_C)
    for j, cj in enumerate(coeffs):
        m += cj * ansatz_unitary(q, layers, angle_rows[j])
    return m


def poly_state_dense(poly_coeffs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_k c_k * M**k applied to the first basis vector, via explicit
    dense matrix powers."""
    poly_coeffs = np.asarray(poly_coeffs, dtype=_C)
    dim = m.shape[0]
    p = np.zeros((dim, dim), dtype=_C)
    for k, ck in enumerate(poly_coeffs):
        p += ck * np.linalg.matrix_power(m, k)
    e0 = np.zeros(dim, dtype=_C)
    e0[0] = 1.0
    return p @ e0


def pauli_expectations_dense(vec: np.ndarray, q: int) -> np.ndarray:
    """Readout features via dense Pauli matrices, on the normalized input."""
    vec = np.asarray(vec, dtype=_C)
    n = float(np.vdot(vec, vec).real)
    out = np.empty(3 * q, dtype=np.float64)
    for k in range(q):
        for row, axis in ((k, "x"), (q + k, "y"), (2 * q + k, "z")):
            p = single_qubit_mat(q, k, PAULI[axis])
            out[row] = float(np.vdot(vec, p @ vec).real) / n
    return out


def verify_unitarity(n_seeds: int = 50, *, entropy: int = 0, max_q: int = 3,
                     tol: float = 1e-10) -> dict:
    """Random templates: check U (dagger) U = I on the dense build."""
    worst = 0.0
    for s in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(7, s)))
        q = int(rng.integers(2, max_q + 1))
        layers = int(rng.integers(1, 3))
        u = ansatz_unitary(q, layers, rng.uniform(-np.pi, np.pi, angle_count(q, layers)))
        err = float(np.abs(u.conj().T @ u - np.eye(1 << q)).max())
        worst = max(worst, err)
    return {"pass": worst <= tol, "n_seeds": n_seeds, "tol": tol, "max_err": worst}


def verify_equivalence(n_seeds: int = 50, *, entropy: int = 0, max_q: int = 3,
                       max_window: int = 4, max_degree: int = 4,
                       tol: float = 1e-10) -> dict:
    """Random mixer configurations: strided pipeline vs. this module.

    Each draw compares the pre-normalization squared norm, the final state
    amplitudes, and the readout features between the two routes.
    """
    from .autodiff import tensor
    from .circuits import AnsatzAngles
    from .mixer import MixerParams, mix_window

    worst = {"pre_norm": 0.0, "state": 0.0, "features": 0.0}
    for s in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(s,)))
        q = int(rng.integers(2, max_q + 1))
        n = int(rng.integers(1, max_window + 1))
        degree = int(rng.integers(1, max_degree + 1))
        layers = int(rng.integers(1, 3))
        ff_layers = int(rng.integers(1, 3))
        # magnitudes bounded away from zero so no draw is degenerate
        b = (rng.uniform(0.5, 1.5, n)
             * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        c = (rng.uniform(0.5, 1.5, degree + 1)
             * np.exp(1j * rng.uniform(0, 2 * np.pi, degree + 1)))
        rows = rng.uniform(-np.pi, np.pi, (n, angle_count(q, layers)))
        ff = rng.uniform(-np.pi, np.pi, angle_count(q, ff_layers))
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True

        params = MixerParams(
            lcu_coeffs=tensor(b), poly_coeffs=tensor(c),
            ff_angles=AnsatzAngles(tensor(ff), q=q, layers=ff_layers))
        out = mix_window(tensor(rows), params, mask, q=q, embed_layers=layers)

        bm = np.where(mask, b, 0.0)
        btil = bm / np.abs(bm).sum()
        m = lcu_dense(btil, rows, q, layers)
        psi = poly_state_dense(c, m)
        pre = float(np.vdot(psi, psi).real)
        final = ansatz_unitary(q, ff_layers, ff) @ (psi / np.sqrt(pre))
        feats = pauli_expectations_dense(final, q)

        worst["pre_norm"] = max(worst["pre_norm"],
                                abs(out.pre_norm.real_item() - pre))
        worst["state"] = max(worst["state"],
                             float(np.abs(out.state.values - final).max()))
        worst["features"] = max(worst["features"],
                                float(np.abs(out.features.values.real - feats).max()))
    return {"pass": max(worst.values()) <= tol, "n_seeds": n_seeds,
            "max_q": max_q, "tol": tol, "max_err": worst}
