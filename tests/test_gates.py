"""Simulator gate semantics against dense Kronecker/loop oracles."""

from __future__ import annotations

import numpy as np
import pytest

from qtmix import autodiff as ad
from qtmix import circuits, kernels, oracle
from qtmix.errors import (
    CapacityError,
    DegenerateStateError,
    QubitIndexError,
    ShapeError,
    WiringError,
)

from helpers import check_op_gradients, rand_complex


def random_state(rng, q):
    v = rand_complex(rng, (1 << q,))
    return v / np.linalg.norm(v)


def template_unitary(q, layers, angles):
    """Dense unitary recovered from the strided kernels by pushing all basis
    vectors through as a batch."""
    dim = 1 << q
    rows = np.eye(dim, dtype=complex)
    out = kernels.ansatz_rows_forward(rows, q, layers, np.asarray(angles, float))
    return out.T


# ---------------------------------------------------------------------------
# closed forms

def test_zero_state():
    s = circuits.zero_state(1)
    assert np.array_equal(s.amps.values, np.array([1.0, 0.0], dtype=complex))
    s4 = circuits.zero_state(4)
    assert s4.amps.values[0] == 1.0 and np.all(s4.amps.values[1:] == 0.0)


def test_ry_pi_flips_zero():
    s = circuits.apply_ry(circuits.zero_state(1), 0, np.pi)
    assert np.allclose(s.amps.values, [0.0, 1.0], atol=1e-15)


def test_crx_pi_on_01():
    # |01> means qubit 0 set, qubit 1 clear: basis index 1.
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    s = circuits.Statevector(2, ad.tensor(amps))
    out = circuits.apply_crx(s, 0, 1, np.pi)
    expected = np.zeros(4, dtype=complex)
    expected[3] = -1j
    assert np.allclose(out.amps.values, expected, atol=1e-15)


def test_crx_control_clear_is_identity():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0   # qubit 1 set, qubit 0 (the control) clear
    out = circuits.apply_crx(circuits.Statevector(2, ad.tensor(amps)), 0, 1, 1.234)
    assert np.array_equal(out.amps.values, amps)


# ---------------------------------------------------------------------------
# dense-oracle equivalence

@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_ry_matches_kron_oracle(q):
    rng = np.random.default_rng(q)
    for k in range(q):
        theta = float(rng.uniform(-np.pi, np.pi))
        v = random_state(rng, q)
        got = circuits.apply_ry(circuits.Statevector(q, ad.tensor(v)), k, theta)
        want = oracle.single_qubit_mat(q, k, oracle.ry_mat(theta)) @ v
        assert np.max(np.abs(got.amps.values - want)) <= 1e-12


@pytest.mark.parametrize("q", [2, 3, 4])
def test_crx_matches_loop_oracle(q):
    rng = np.random.default_rng(10 + q)
    for control in range(q):
        for target in range(q):
            if control == target:
                continue
            theta = float(rng.uniform(-np.pi, np.pi))
            v = random_state(rng, q)
            got = circuits.apply_crx(circuits.Statevector(q, ad.tensor(v)),
                                     control, target, theta)
            want = oracle.crx_mat(q, control, target, theta) @ v
            assert np.max(np.abs(got.amps.values - want)) <= 1e-12


def test_little_endian_embedding():
    # qubit k acts with stride 2**k: I_{2^(q-1-k)} (x) G (x) I_{2^k}
    rng = np.random.default_rng(77)
    q = 4
    for k in range(q):
        theta = 0.731
        u_direct = template = oracle.single_qubit_mat(q, k, oracle.ry_mat(theta))
        v = random_state(rng, q)
        got = kernels.ry_rows(v.reshape(1, -1), q, k, theta).reshape(-1)
        assert np.max(np.abs(got - u_direct @ v)) <= 1e-12


# ---------------------------------------------------------------------------
# entangling template

def test_ansatz_sequence_layout_q3():
    # hand-enumerated gate order for one layer on three qubits
    expected = [
        ("ry", 0, 0), ("ry", 1, 1), ("ry", 2, 2),
        ("crx", (2, 0), 5), ("crx", (1, 2), 4), ("crx", (0, 1), 3),
        ("ry", 0, 6), ("ry", 1, 7), ("ry", 2, 8),
        ("crx", (0, 2), 9), ("crx", (1, 0), 10), ("crx", (2, 1), 11),
    ]
    assert kernels.ansatz_sequence(3, 1) == expected


def test_ansatz_sequence_counts():
    for q in (2, 3, 5):
        for layers in (1, 2, 4):
            seq = kernels.ansatz_sequence(q, layers)
            assert len(seq) == 4 * layers * q
            assert sorted(idx for _, _, idx in seq) == list(range(4 * layers * q))


def test_ansatz_zero_angles_is_identity():
    for q in (2, 3):
        angles = np.zeros(kernels.angle_count(q, 2))
        u = template_unitary(q, 2, angles)
        assert np.max(np.abs(u - np.eye(1 << q))) <= 1e-12


def test_ansatz_equals_dense_gate_product_q3_l2():
    rng = np.random.default_rng(2024)
    q, layers = 3, 2
    angles = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, layers))
    want = oracle.ansatz_unitary(q, layers, angles)   # ordered product of 24 matrices
    got = template_unitary(q, layers, angles)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("q", [2, 4, 5, 8])
@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_ansatz_equals_dense_gate_product(q, shared):
    # q=2: both rings act on the same pair; q=4, 5, 8: RY chunks with and
    # without a remainder, CRX pairs and singles in every form, the wrap gates
    rng = np.random.default_rng(2024 + q)
    layers = 2
    angles = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, layers))
    want = oracle.ansatz_unitary(q, layers, angles)
    if shared:
        got = template_unitary(q, layers, angles)
    else:   # one row, k=1
        v = random_state(rng, q)
        got = kernels.ansatz_rows_forward(v[None, :], q, layers, angles[None, :])[0]
        want = want @ v
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("q,layers", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_ansatz_unitarity(q, layers):
    rng = np.random.default_rng(q * 10 + layers)
    for _ in range(5):
        angles = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, layers))
        u = template_unitary(q, layers, angles)
        assert np.max(np.abs(u.conj().T @ u - np.eye(1 << q))) <= 1e-10


def test_ansatz_norm_preservation():
    rng = np.random.default_rng(5)
    q, layers = 4, 3
    v = random_state(rng, q)
    angles = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, layers))
    s = circuits.apply_ansatz14(circuits.Statevector(q, ad.tensor(v)),
                                ad.tensor(angles), layers)
    assert abs(s.norm_sq() - 1.0) <= 1e-10


def test_ansatz_batch_rows_match_individual():
    # per-row angles: each row must evolve under its own unitary
    rng = np.random.default_rng(6)
    q, layers, k = 3, 2, 5
    states = np.stack([random_state(rng, q) for _ in range(k)])
    angles = rng.uniform(-np.pi, np.pi, size=(k, kernels.angle_count(q, layers)))
    out = kernels.ansatz_rows_forward(states, q, layers, angles)
    for j in range(k):
        u = oracle.ansatz_unitary(q, layers, angles[j])
        assert np.max(np.abs(out[j] - u @ states[j])) <= 1e-12


def test_ansatz_row_permutation_is_exact():
    # every row runs through its own matrices, so permuting batch rows
    # permutes the forward output, the input gradient and the per-row angle
    # gradients bitwise
    rng = np.random.default_rng(63)
    q, layers, k = 5, 2, 11
    states = np.stack([random_state(rng, q) for _ in range(k)])
    angles = rng.uniform(-1, 1, size=(k, kernels.angle_count(q, layers)))
    g = rand_complex(rng, (k, 1 << q))
    perm = rng.permutation(k)
    a = kernels.ansatz_rows_forward(states, q, layers, angles)
    b = kernels.ansatz_rows_forward(states[perm], q, layers, angles[perm])
    assert np.array_equal(a[perm], b)
    ga, ang_a = kernels.ansatz_rows_vjp(a, q, layers, angles, g)
    gb, ang_b = kernels.ansatz_rows_vjp(b, q, layers, angles[perm], g[perm])
    assert np.array_equal(ga[perm], gb)
    assert np.array_equal(ang_a[perm], ang_b)


def _compose_forward(arr, q, layers, angles):
    """The template as a chain of single-gate kernels, one new array each."""
    out = arr
    for kind, wires, idx in kernels.ansatz_sequence(q, layers):
        th = angles[:, idx] if angles.ndim == 2 else angles[idx]
        if kind == "ry":
            out = kernels.ry_rows(out, q, wires, th)
        else:
            out = kernels.crx_rows(out, q, wires[0], wires[1], th)
    return out


def _compose_vjp(out_arr, q, layers, angles, g):
    """The adjoint sweep as a chain of single-gate kernels."""
    psi = out_arr
    g_ang = np.zeros(angles.shape)
    for kind, wires, idx in reversed(kernels.ansatz_sequence(q, layers)):
        th = angles[:, idx] if angles.ndim == 2 else angles[idx]
        if kind == "ry":
            psi = kernels.ry_rows(psi, q, wires, -th)
            d = kernels.dry_rows(psi, q, wires, th)
            upd = (np.conj(g) * d).sum(axis=1).real
            g = kernels.ry_rows(g, q, wires, -th)
        else:
            psi = kernels.crx_rows(psi, q, *wires, -th)
            d = kernels.dcrx_rows(psi, q, *wires, th)
            upd = (np.conj(g) * d).sum(axis=1).real
            g = kernels.crx_rows(g, q, *wires, -th)
        if angles.ndim == 2:
            g_ang[:, idx] = upd
        else:
            g_ang[idx] = upd.sum()
    return g, g_ang


def _sweep_inputs(shared, seed=1905, q=10, layers=3, k=16):
    rng = np.random.default_rng(seed)
    n = kernels.angle_count(q, layers)
    states = rand_complex(rng, (k, 1 << q))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    angles = rng.uniform(-np.pi, np.pi, size=n if shared else (k, n))
    return states, angles, rand_complex(rng, (k, 1 << q))


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_ansatz_sweeps_match_gate_by_gate(shared):
    # the fused sweeps reorder the arithmetic of the single-gate kernels,
    # so they agree with them to rounding
    q, layers = 10, 3
    states, angles, g = _sweep_inputs(shared)
    out = kernels.ansatz_rows_forward(states, q, layers, angles)
    assert np.max(np.abs(out - _compose_forward(states, q, layers, angles))) <= 1e-12
    g_in, g_ang = kernels.ansatz_rows_vjp(out, q, layers, angles, g)
    want_in, want_ang = _compose_vjp(out, q, layers, angles, g)
    assert g_ang.shape == angles.shape
    assert np.max(np.abs(g_in - want_in)) <= 1e-12
    assert np.max(np.abs(g_ang - want_ang)) <= 1e-12


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_ansatz_sweeps_repeat_bitwise(shared):
    q, layers = 10, 3
    states, angles, g = _sweep_inputs(shared)
    runs = []
    for _ in range(2):
        out = kernels.ansatz_rows_forward(states, q, layers, angles)
        runs.append((out, *kernels.ansatz_rows_vjp(out, q, layers, angles, g)))
    for first, second in zip(*runs):
        assert np.array_equal(first, second)


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_ansatz_sweeps_empty_batch(shared):
    q, layers = 5, 2
    n = kernels.angle_count(q, layers)
    states = np.zeros((0, 1 << q), dtype=complex)
    angles = np.zeros(n) if shared else np.zeros((0, n))
    out = kernels.ansatz_rows_forward(states, q, layers, angles)
    g_in, g_ang = kernels.ansatz_rows_vjp(out, q, layers, angles, states)
    assert out.shape == g_in.shape == (0, 1 << q)
    assert g_ang.shape == angles.shape and not np.any(g_ang)


def test_ansatz_sweeps_leave_inputs_unmodified():
    # the tape keeps the input rows and the forward output for the backward
    # pass, so the sweeps must never write into their arguments
    rng = np.random.default_rng(2009)
    q, layers, k = 4, 2, 5
    states = rand_complex(rng, (k, 1 << q))
    angles = rng.uniform(-np.pi, np.pi, size=(k, kernels.angle_count(q, layers)))
    g = rand_complex(rng, (k, 1 << q))
    copies = [a.copy() for a in (states, angles, g)]
    out = kernels.ansatz_rows_forward(states, q, layers, angles)
    assert out is not states and not np.shares_memory(out, states)
    out_copy = out.copy()
    g_in, g_ang = kernels.ansatz_rows_vjp(out, q, layers, angles, g)
    for got, want in zip((states, angles, g), copies):
        assert np.array_equal(got, want)
    assert np.array_equal(out, out_copy)
    assert not np.shares_memory(g_in, g) and not np.shares_memory(g_in, out)


# ---------------------------------------------------------------------------
# readout

@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_pauli_expectations_match_dense(q):
    rng = np.random.default_rng(30 + q)
    v = random_state(rng, q)
    got = circuits.pauli_expectations(circuits.Statevector(q, ad.tensor(v)))
    want = oracle.pauli_expectations_dense(v, q)
    assert np.max(np.abs(got.values.real - want)) <= 1e-12
    assert np.max(np.abs(got.values.imag)) == 0.0


def test_pauli_expectations_zero_state():
    feats = circuits.pauli_expectations(circuits.zero_state(3))
    want = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=float)
    assert np.allclose(feats.values.real, want, atol=1e-14)


def test_pauli_expectations_bounded():
    rng = np.random.default_rng(99)
    for _ in range(25):
        q = int(rng.integers(1, 5))
        v = random_state(rng, q) * float(rng.uniform(0.5, 2.0))
        feats = circuits.pauli_expectations(circuits.Statevector(q, ad.tensor(v)))
        assert np.all(np.abs(feats.values.real) <= 1.0 + 1e-12)


def test_pauli_expectations_degenerate_state():
    tiny = np.zeros(4, dtype=complex)
    tiny[0] = 1e-8
    with pytest.raises(DegenerateStateError):
        circuits.pauli_expectations(circuits.Statevector(2, ad.tensor(tiny)))


# ---------------------------------------------------------------------------
# gradients through gates

@pytest.mark.parametrize("seed", range(10))
def test_fd_apply_ry(seed):
    rng = np.random.default_rng(700 + seed)
    q = int(rng.integers(1, 4))
    k = int(rng.integers(0, q))
    v = rand_complex(rng, (1 << q,))
    th = np.asarray(rng.uniform(-np.pi, np.pi))

    def build(ls):
        return circuits.apply_ry(circuits.Statevector(q, ls[0]), k, ls[1]).amps

    check_op_gradients(build, [ad.tensor(v), ad.tensor(th)], rng,
                       complex_leaves={0})


@pytest.mark.parametrize("seed", range(10))
def test_fd_apply_crx(seed):
    rng = np.random.default_rng(900 + seed)
    q = int(rng.integers(2, 5))
    control, target = rng.choice(q, size=2, replace=False)
    v = rand_complex(rng, (1 << q,))
    th = np.asarray(rng.uniform(-np.pi, np.pi))

    def build(ls):
        return circuits.apply_crx(circuits.Statevector(q, ls[0]),
                                  int(control), int(target), ls[1]).amps

    check_op_gradients(build, [ad.tensor(v), ad.tensor(th)], rng,
                       complex_leaves={0})


@pytest.mark.parametrize("seed", range(8))
def test_fd_ansatz_rows(seed):
    rng = np.random.default_rng(1100 + seed)
    q, layers, k = 3, 2, 2
    states = rand_complex(rng, (k, 1 << q))
    angles = rng.uniform(-np.pi, np.pi, size=(k, kernels.angle_count(q, layers)))

    def build(ls):
        return circuits.ansatz_rows(ls[0], ls[1], q, layers)

    check_op_gradients(build, [ad.tensor(states), ad.tensor(angles)], rng,
                       complex_leaves={0}, atol=5e-6)


@pytest.mark.parametrize("q", [2, 4, 5, 8])
@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_fd_ansatz_rows_fusion_boundaries(q, shared):
    # per-row angles on one row (k=1); shared angles reach two rows
    # through broadcast_rows
    rng = np.random.default_rng(1200 + q)
    layers = 2 if q < 8 else 1
    k = 2 if shared else 1
    n = kernels.angle_count(q, layers)
    states = rand_complex(rng, (k, 1 << q))
    angles = rng.uniform(-np.pi, np.pi, size=n if shared else (k, n))

    def build(ls):
        rows = ad.broadcast_rows(ls[1], k) if shared else ls[1]
        return circuits.ansatz_rows(ls[0], rows, q, layers)

    check_op_gradients(build, [ad.tensor(states), ad.tensor(angles)], rng,
                       complex_leaves={0}, atol=5e-6)


def test_shared_angle_gradients_sum_over_rows():
    # the (L,) shared-angle vjp is the sum of the per-row gradients
    q, layers = 5, 2
    states, angles, g = _sweep_inputs(True, seed=77, q=q, layers=layers, k=4)
    out = kernels.ansatz_rows_forward(states, q, layers, angles)
    g_in, g_ang = kernels.ansatz_rows_vjp(out, q, layers, angles, g)
    rows = np.tile(angles, (4, 1))
    r_in, r_ang = kernels.ansatz_rows_vjp(out, q, layers, rows, g)
    assert np.max(np.abs(g_in - r_in)) <= 1e-12
    assert np.max(np.abs(g_ang - r_ang.sum(axis=0))) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_fd_pauli_expectations(seed):
    rng = np.random.default_rng(1300 + seed)
    q = int(rng.integers(1, 4))
    v = rand_complex(rng, (1 << q,))  # deliberately unnormalized

    def build(ls):
        return circuits.pauli_expectations(circuits.Statevector(q, ls[0]))

    check_op_gradients(build, [ad.tensor(v)], rng, atol=5e-6)


def test_fd_angle_gradient_through_shared_tensor():
    # one angle tensor feeding the full template, gradients per entry
    rng = np.random.default_rng(41)
    q, layers = 2, 1
    v = rand_complex(rng, (1 << q,))
    angles = rng.uniform(-1, 1, size=kernels.angle_count(q, layers))

    def build(ls):
        s = circuits.Statevector(q, ls[0])
        return circuits.apply_ansatz14(s, ls[1], layers).amps

    check_op_gradients(build, [ad.tensor(v), ad.tensor(angles)], rng,
                       complex_leaves={0})


# ---------------------------------------------------------------------------
# errors

def test_qubit_range_errors():
    s = circuits.zero_state(2)
    with pytest.raises(QubitIndexError):
        circuits.apply_ry(s, 2, 0.1)
    with pytest.raises(QubitIndexError):
        circuits.apply_crx(s, 0, 5, 0.1)


def test_control_target_collision():
    with pytest.raises(WiringError):
        circuits.apply_crx(circuits.zero_state(2), 1, 1, 0.3)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        circuits.zero_state(15)
    with pytest.raises(CapacityError):
        circuits.zero_state(0)


def test_template_needs_two_qubits():
    s = circuits.zero_state(1)
    with pytest.raises(WiringError):
        circuits.apply_ansatz14(s, ad.tensor(np.zeros(4)), 1)


def test_angle_count_validation():
    s = circuits.zero_state(2)
    with pytest.raises(ShapeError):
        circuits.apply_ansatz14(s, ad.tensor(np.zeros(7)), 1)
    with pytest.raises(ShapeError):
        circuits.AnsatzAngles(ad.tensor(np.zeros(9)), q=2, layers=1)
    with pytest.raises(ShapeError):
        circuits.AnsatzAngles(ad.tensor(np.zeros(8) + 1j), q=2, layers=1)
