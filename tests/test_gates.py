"""Simulator gate semantics against dense Kronecker/loop oracles."""

from __future__ import annotations

import numpy as np
import pytest

from qtmix import autodiff as ad
from qtmix import circuits, kernels, oracle
from qtmix.errors import CapacityError, DegenerateStateError, ShapeError, WiringError

from helpers import (check_op_gradients, crx_rows, dcrx_rows, dry_rows, rand_complex,
                     ry_rows)


def random_state(rng, q):
    v = rand_complex(rng, (1 << q,))
    return v / np.linalg.norm(v)


def basis_state(q, index=0):
    v = np.zeros((1, 1 << q), dtype=complex)
    v[0, index] = 1.0
    return v


def template_unitary(q, layers, angles):
    """Dense unitary recovered from the strided kernels by pushing all basis
    vectors through as a batch."""
    dim = 1 << q
    rows = np.eye(dim, dtype=complex)
    ops = kernels.template_operands(q, layers, np.asarray(angles, float))
    out = kernels.ansatz_rows_forward(rows, ops)
    return out.T


# ---------------------------------------------------------------------------
# closed forms of the reference single-gate kernels

def test_ry_pi_flips_zero():
    out = ry_rows(basis_state(1), 1, 0, np.pi)
    assert np.allclose(out, [[0.0, 1.0]], atol=1e-15)


def test_crx_pi_on_01():
    # |01> means qubit 0 set, qubit 1 clear: basis index 1.
    out = crx_rows(basis_state(2, 1), 2, 0, 1, np.pi)
    assert np.allclose(out, -1j * basis_state(2, 3), atol=1e-15)


def test_crx_control_clear_is_identity():
    amps = basis_state(2, 2)   # qubit 1 set, qubit 0 (the control) clear
    assert np.array_equal(crx_rows(amps, 2, 0, 1, 1.234), amps)


# ---------------------------------------------------------------------------
# dense-oracle equivalence

@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_ry_matches_kron_oracle(q):
    rng = np.random.default_rng(q)
    for k in range(q):
        theta = float(rng.uniform(-np.pi, np.pi))
        v = random_state(rng, q)
        got = ry_rows(v[None, :], q, k, theta)[0]
        want = oracle.single_qubit_mat(q, k, oracle.ry_mat(theta)) @ v
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("q", [2, 3, 4])
def test_crx_matches_loop_oracle(q):
    rng = np.random.default_rng(10 + q)
    for control in range(q):
        for target in range(q):
            if control == target:
                continue
            theta = float(rng.uniform(-np.pi, np.pi))
            v = random_state(rng, q)
            got = crx_rows(v[None, :], q, control, target, theta)[0]
            want = oracle.crx_mat(q, control, target, theta) @ v
            assert np.max(np.abs(got - want)) <= 1e-12


def test_little_endian_embedding():
    # qubit k acts with stride 2**k: I_{2^(q-1-k)} (x) G (x) I_{2^k}
    rng = np.random.default_rng(77)
    q = 4
    for k in range(q):
        theta = 0.731
        u_direct = template = oracle.single_qubit_mat(q, k, oracle.ry_mat(theta))
        v = random_state(rng, q)
        got = ry_rows(v.reshape(1, -1), q, k, theta).reshape(-1)
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
    # without a remainder, CRX single gates (q=4, 5) and pairs (q=8) in
    # rotated frames, the wrap gates
    rng = np.random.default_rng(2024 + q)
    layers = 2
    angles = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, layers))
    want = oracle.ansatz_unitary(q, layers, angles)
    if shared:
        got = template_unitary(q, layers, angles)
    else:   # one row, k=1
        v = random_state(rng, q)
        ops = kernels.template_operands(q, layers, angles[None, :])
        got = kernels.ansatz_rows_forward(v[None, :], ops)[0]
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
    out = circuits.ansatz_rows(ad.tensor(v[None, :]), ad.tensor(angles), q, layers)
    assert abs(np.linalg.norm(out.values) - 1.0) <= 1e-10


def test_ansatz_batch_rows_match_individual():
    # per-row angles: each row must evolve under its own unitary
    rng = np.random.default_rng(6)
    q, layers, k = 3, 2, 5
    states = np.stack([random_state(rng, q) for _ in range(k)])
    angles = rng.uniform(-np.pi, np.pi, size=(k, kernels.angle_count(q, layers)))
    out = kernels.ansatz_rows_forward(states, kernels.template_operands(q, layers, angles))
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
    ops_a = kernels.template_operands(q, layers, angles)
    ops_b = kernels.template_operands(q, layers, angles[perm])
    a = kernels.ansatz_rows_forward(states, ops_a)
    b = kernels.ansatz_rows_forward(states[perm], ops_b)
    assert np.array_equal(a[perm], b)
    ga, ang_a = kernels.ansatz_rows_vjp(a, ops_a, g)
    gb, ang_b = kernels.ansatz_rows_vjp(b, ops_b, g[perm])
    assert np.array_equal(ga[perm], gb)
    assert np.array_equal(ang_a[perm], ang_b)


def _compose_forward(arr, q, layers, angles):
    """The template as a chain of single-gate kernels, one new array each."""
    out = arr
    for kind, wires, idx in kernels.ansatz_sequence(q, layers):
        th = angles[:, idx] if angles.ndim == 2 else angles[idx]
        if kind == "ry":
            out = ry_rows(out, q, wires, th)
        else:
            out = crx_rows(out, q, wires[0], wires[1], th)
    return out


def _compose_vjp(out_arr, q, layers, angles, g):
    """The adjoint sweep as a chain of single-gate kernels."""
    psi = out_arr
    g_ang = np.zeros(angles.shape)
    for kind, wires, idx in reversed(kernels.ansatz_sequence(q, layers)):
        th = angles[:, idx] if angles.ndim == 2 else angles[idx]
        if kind == "ry":
            psi = ry_rows(psi, q, wires, -th)
            d = dry_rows(psi, q, wires, th)
            upd = (np.conj(g) * d).sum(axis=1).real
            g = ry_rows(g, q, wires, -th)
        else:
            psi = crx_rows(psi, q, *wires, -th)
            d = dcrx_rows(psi, q, *wires, th)
            upd = (np.conj(g) * d).sum(axis=1).real
            g = crx_rows(g, q, *wires, -th)
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
    ops = kernels.template_operands(q, layers, angles)
    out = kernels.ansatz_rows_forward(states, ops)
    assert np.max(np.abs(out - _compose_forward(states, q, layers, angles))) <= 1e-12
    g_in, g_ang = kernels.ansatz_rows_vjp(out, ops, g)
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
        ops = kernels.template_operands(q, layers, angles)
        out = kernels.ansatz_rows_forward(states, ops)
        runs.append((out, *kernels.ansatz_rows_vjp(out, ops, g)))
    for first, second in zip(*runs):
        assert np.array_equal(first, second)


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_ansatz_sweeps_empty_batch(shared):
    q, layers = 5, 2
    n = kernels.angle_count(q, layers)
    states = np.zeros((0, 1 << q), dtype=complex)
    angles = np.zeros(n) if shared else np.zeros((0, n))
    ops = kernels.template_operands(q, layers, angles)
    out = kernels.ansatz_rows_forward(states, ops)
    g_in, g_ang = kernels.ansatz_rows_vjp(out, ops, states)
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
    ops = kernels.template_operands(q, layers, angles)
    out = kernels.ansatz_rows_forward(states, ops)
    assert out is not states and not np.shares_memory(out, states)
    out_copy = out.copy()
    g_in, g_ang = kernels.ansatz_rows_vjp(out, ops, g)
    for got, want in zip((states, angles, g), copies):
        assert np.array_equal(got, want)
    assert np.array_equal(out, out_copy)
    assert not np.shares_memory(g_in, g) and not np.shares_memory(g_in, out)


# ---------------------------------------------------------------------------
# the rotating qubit frame

@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("lead", [(5,), (2, 5)], ids=["rows", "stacked"])
def test_rotation_relabels_bits_and_round_trips(q, lead):
    rng = np.random.default_rng(11 + q)
    x = rand_complex(rng, lead + (1 << q,))
    index = np.arange(1 << q)
    for s in range(q):
        y, back = np.empty_like(x), np.empty_like(x)
        kernels._rotate(x, y, s)
        # bit j of the rotated index holds bit (j + s) mod q of the source
        src = sum(((index >> j) & 1) << ((j + s) % q) for j in range(q))
        assert np.array_equal(y, x[..., src])
        kernels._rotate(y, back, (q - s) % q)
        assert np.array_equal(back, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7, 8])
def test_plan_runs_every_crx_gate_in_a_bottom_block(q):
    # every block is a ring pair or a lone ring gate on the lowest bits of
    # its frame, with the RY gates folded in ahead of its CRX gates
    plan = kernels._plan(q, 2)
    seq = kernels.ansatz_sequence(q, 2)
    crx_run, ry_run, sizes, seen = [], [], set(), {}
    state = np.zeros((3, 1 << q), dtype=complex)
    for b in plan.blocks:
        # one product on bits [0, width) of the block's frame and (re, im)
        assert kernels._views(b, state).shape == (3, 1 << (q - b.width), 2 << b.width)
        kinds = [kind for kind, _, _ in b.gates]
        n_ry = kinds.count("ry")
        assert kinds == ["ry"] * n_ry + ["crx"] * (len(kinds) - n_ry)
        assert all(0 <= bit < b.width for _, bits, _ in b.gates for bit in np.atleast_1d(bits))
        # the gates mapped back from the block's frame to wires
        mapped = [(kind, (bits + b.frame) % q if kind == "ry"
                   else tuple((w + b.frame) % q for w in bits), t)
                  for kind, bits, t in b.gates]
        crx = mapped[n_ry:]
        ring = crx[0][2] // q                   # angle block of the ring: 4 * layer + 1 or 3
        assert all(t // q == ring for _, _, t in crx)
        touched = {w for _, wires, _ in crx for w in wires}
        before = seen.setdefault(ring, set())
        for _, w, t in mapped[:n_ry]:
            # an RY gate of the layer just before the ring, in the ring's
            # first block that touches its wire
            assert t // q == ring - 1 and w in touched - before
        before |= touched
        crx_run += crx
        ry_run += mapped[:n_ry]
        sizes.add(len(crx))
        assert b.width == (3 if len(crx) == 2 and q > 2 else 2)
    assert crx_run == [g for g in seq if g[0] == "crx"]
    assert sorted(ry_run, key=lambda g: g[2]) == [g for g in seq if g[0] == "ry"]
    # pairs from q = 7 (and at q = 2), single gates from 3 to 6; with q odd a
    # ring's last gate is alone
    if q == 2 or q >= 7:
        assert sizes == ({2} if q % 2 == 0 else {2, 1})
    else:
        assert sizes == {1}


def _index_inputs(rng, q, layers, k, u):
    n = kernels.angle_count(q, layers)
    states = rand_complex(rng, (k, 1 << q))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    index = rng.integers(0, u, k)
    return states, rng.uniform(-np.pi, np.pi, size=(u, n)), index, rand_complex(rng, (k, 1 << q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("angles_kind", ["per_row", "shared", "index"])
def test_frame_sweeps_match_gate_by_gate(q, angles_kind):
    # odd q leaves a ring gate alone; at q = 2 both gates of a ring run as
    # one pair; q = 3..6 run single gates, q = 7 and 8 pairs, a ring's
    # first pair with three RY gates folded in
    rng = np.random.default_rng(300 + q)
    layers, k = 2, 6
    states, angles, index, g = _index_inputs(rng, q, layers, k, 4)
    if angles_kind == "per_row":
        angles, index = angles[index], None
    elif angles_kind == "shared":
        angles, index = angles[0], None
    ops = kernels.template_operands(q, layers, angles)
    out = kernels.ansatz_rows_forward(states, ops, index)
    ref_angles = angles if index is None else angles[index]
    assert np.max(np.abs(out - _compose_forward(states, q, layers, ref_angles))) <= 1e-12
    g_in, g_ang = kernels.ansatz_rows_vjp(out, ops, g, index)
    want_in, want_ang = _compose_vjp(out, q, layers, ref_angles, g)
    assert g_ang.shape == ref_angles.shape
    assert np.max(np.abs(g_in - want_in)) <= 1e-12
    assert np.max(np.abs(g_ang - want_ang)) <= 1e-12


# ---------------------------------------------------------------------------
# readout

@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_pauli_expectations_match_dense(q):
    rng = np.random.default_rng(30 + q)
    v = random_state(rng, q)
    got = circuits.pauli_expectations(ad.tensor(v), q)
    want = oracle.pauli_expectations_dense(v, q)
    assert np.max(np.abs(got.values.real - want)) <= 1e-12
    assert np.max(np.abs(got.values.imag)) == 0.0


def test_pauli_expectations_zero_state():
    feats = circuits.pauli_expectations(ad.tensor(basis_state(3)), 3)
    want = np.array([[0, 0, 0, 0, 0, 0, 1, 1, 1]], dtype=float)
    assert np.allclose(feats.values.real, want, atol=1e-14)


def test_pauli_expectations_bounded():
    rng = np.random.default_rng(99)
    for _ in range(25):
        q = int(rng.integers(1, 5))
        v = random_state(rng, q) * float(rng.uniform(0.5, 2.0))
        feats = circuits.pauli_expectations(ad.tensor(v), q)
        assert np.all(np.abs(feats.values.real) <= 1.0 + 1e-12)


def test_pauli_expectations_degenerate_state():
    tiny = np.zeros(4, dtype=complex)
    tiny[0] = 1e-8
    with pytest.raises(DegenerateStateError):
        circuits.pauli_expectations(ad.tensor(tiny), 2)


# ---------------------------------------------------------------------------
# gradients through gates

def check_gate_derivative(rng, gate, deriv, q, h=1e-6):
    """The reference adjoint's two rules for one gate: ``deriv`` is the
    angle derivative of ``gate`` (central differences), and applying the
    gate at -theta is its adjoint. Checked for per-row and shared angles."""
    v = rand_complex(rng, (3, 1 << q))
    g = rand_complex(rng, (3, 1 << q))
    per_row = rng.uniform(-np.pi, np.pi, size=3)
    for th in (per_row, float(per_row[0])):
        fd = (gate(v, th + h) - gate(v, th - h)) / (2 * h)
        assert np.max(np.abs(deriv(v, th) - fd)) <= 1e-8
        assert abs(np.vdot(g, gate(v, th)) - np.vdot(gate(g, -th), v)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_fd_apply_ry(seed):
    rng = np.random.default_rng(700 + seed)
    q = int(rng.integers(1, 4))
    k = int(rng.integers(0, q))
    check_gate_derivative(rng, lambda a, th: ry_rows(a, q, k, th),
                          lambda a, th: dry_rows(a, q, k, th), q)


@pytest.mark.parametrize("seed", range(10))
def test_fd_apply_crx(seed):
    rng = np.random.default_rng(900 + seed)
    q = int(rng.integers(2, 5))
    control, target = (int(w) for w in rng.choice(q, size=2, replace=False))
    check_gate_derivative(rng, lambda a, th: crx_rows(a, q, control, target, th),
                          lambda a, th: dcrx_rows(a, q, control, target, th), q)


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


@pytest.mark.parametrize("q", [2, 4, 5, 8, 3, 6, 7])
@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_fd_ansatz_rows_fusion_boundaries(q, shared):
    # per-row angles on one row (k=1); shared angles reach two rows
    # through broadcast_rows. Every q from 2 to 8: ring pairs and single
    # gates, frame rotations between blocks, RY chunks in rotated frames
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
    ops = kernels.template_operands(q, layers, angles)
    out = kernels.ansatz_rows_forward(states, ops)
    g_in, g_ang = kernels.ansatz_rows_vjp(out, ops, g)
    rows = np.tile(angles, (4, 1))
    r_in, r_ang = kernels.ansatz_rows_vjp(out, kernels.template_operands(q, layers, rows), g)
    assert np.max(np.abs(g_in - r_in)) <= 1e-12
    assert np.max(np.abs(g_ang - r_ang.sum(axis=0))) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_fd_pauli_expectations(seed):
    rng = np.random.default_rng(1300 + seed)
    q = int(rng.integers(1, 4))
    v = rand_complex(rng, (1 << q,))  # deliberately unnormalized

    def build(ls):
        return circuits.pauli_expectations(ls[0], q)

    check_op_gradients(build, [ad.tensor(v)], rng, atol=5e-6)


def test_fd_angle_gradient_through_shared_tensor():
    # one (L,) angle tensor feeding the template on every row, gradients
    # per entry summed over the rows
    rng = np.random.default_rng(41)
    q, layers = 2, 1
    v = rand_complex(rng, (2, 1 << q))
    angles = rng.uniform(-1, 1, size=kernels.angle_count(q, layers))

    def build(ls):
        return circuits.ansatz_rows(ls[0], ls[1], q, layers)

    check_op_gradients(build, [ad.tensor(v), ad.tensor(angles)], rng,
                       complex_leaves={0})


# ---------------------------------------------------------------------------
# errors

def test_capacity_cap():
    # the cap is checked before any state is looked at
    q = circuits.MAX_QUBITS + 1
    with pytest.raises(CapacityError):
        circuits.ansatz_rows(ad.tensor(basis_state(2)),
                             ad.tensor(np.zeros(kernels.angle_count(q, 1))), q, 1)


def test_template_needs_two_qubits():
    with pytest.raises(WiringError):
        circuits.ansatz_rows(ad.tensor(basis_state(1)), ad.tensor(np.zeros(4)), 1, 1)


def test_angle_count_validation():
    s = ad.tensor(basis_state(2))
    with pytest.raises(ShapeError):
        circuits.ansatz_rows(s, ad.tensor(np.zeros(7)), 2, 1)
    with pytest.raises(ShapeError):
        circuits.ansatz_rows(s, ad.tensor(np.zeros((2, 8))), 2, 1)
    with pytest.raises(ShapeError):
        circuits.ansatz_rows(ad.tensor(np.zeros((1, 8))), ad.tensor(np.zeros(8)), 2, 1)
    with pytest.raises(ShapeError):
        circuits.AnsatzAngles(ad.tensor(np.zeros(9)), q=2, layers=1)
    with pytest.raises(ShapeError):
        circuits.AnsatzAngles(ad.tensor(np.zeros(8) + 1j), q=2, layers=1)
