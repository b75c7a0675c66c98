"""Mixer pipeline: l1 normalization, LCU application, polynomial, window mix."""

from __future__ import annotations

import numpy as np
import pytest

from qtmix import autodiff as ad
from qtmix import circuits, kernels, mixer, oracle
from qtmix.errors import (
    CollapsedStateError,
    DegenerateCoefficientError,
    EmptyWindowError,
    ShapeError,
)

from helpers import check_op_gradients, probe_loss, rand_complex


def make_params(rng, n, degree, q, ff_layers=1, poly=None):
    b = rand_complex(rng, (n,))
    c = poly if poly is not None else rand_complex(rng, (degree + 1,)) * 0.5
    phi = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, ff_layers))
    return mixer.MixerParams(
        lcu_coeffs=ad.tensor(b),
        poly_coeffs=ad.tensor(np.asarray(c, dtype=complex)),
        ff_angles=circuits.AnsatzAngles(ad.tensor(phi), q=q, layers=ff_layers),
    )


def zero_amps(q):
    """|0...0> on q qubits."""
    v = np.zeros(1 << q, dtype=complex)
    v[0] = 1.0
    return v


def token_angle_block(rng, n, q, layers, scale=np.pi):
    return rng.uniform(-scale, scale, size=(n, kernels.angle_count(q, layers)))


# ---------------------------------------------------------------------------
# l1_normalize

def test_l1_normalize_on_unit_vector():
    out = mixer.l1_normalize(ad.tensor([1.0, 0.0, 0.0]), [True] * 3)
    assert np.array_equal(out.values, np.array([1, 0, 0], dtype=complex))


def test_l1_normalize_three_four_five():
    out = mixer.l1_normalize(ad.tensor([3 + 4j, 0.0]), [True, True])
    assert np.allclose(out.values, [0.6 + 0.8j, 0.0], atol=1e-15)


def test_l1_normalize_masks_to_exact_zero():
    out = mixer.l1_normalize(ad.tensor([3 + 4j, 9.0 - 2j]), [True, False])
    assert out.values[1] == 0.0
    assert np.allclose(out.values[0], 0.6 + 0.8j, atol=1e-15)


@pytest.mark.parametrize("seed", range(25))
def test_l1_normalize_invariant_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    b = rand_complex(rng, (n,))
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[int(rng.integers(0, n))] = True
    out = mixer.l1_normalize(ad.tensor(b), mask)
    total = np.abs(out.values).sum()
    assert abs(total - 1.0) <= 1e-12
    assert np.all(out.values[~mask] == 0.0)


def test_l1_normalize_all_masked():
    with pytest.raises(EmptyWindowError):
        mixer.l1_normalize(ad.tensor([1.0, 2.0]), [False, False])


def test_l1_normalize_degenerate():
    with pytest.raises(DegenerateCoefficientError):
        mixer.l1_normalize(ad.tensor([0.0, 1e-14]), [True, True])


def test_l1_normalize_gradients():
    rng = np.random.default_rng(9)
    b = rand_complex(rng, (5,))
    mask = np.array([True, True, False, True, True])
    check_op_gradients(lambda ls: mixer.l1_normalize(ls[0], mask),
                       [ad.tensor(b)], rng, atol=5e-6)


# ---------------------------------------------------------------------------
# applications of M, through apply_polynomial on a batch of one window

def one_window_poly(b, angles, c, q, layers):
    """sum_k c_k M^k |0...0> for one window's (n,) weights and (n, L)
    per-position angles, run as the batch W = 1."""
    out = mixer.apply_polynomial(ad.tensor(np.asarray(b)[None]), ad.tensor(angles[None]),
                                 ad.tensor(np.asarray(c, dtype=complex)), q, layers)
    assert out.shape == (1, 1 << q)
    return out.values[0]


def test_apply_m_single_identity_token():
    q, layers = 2, 1
    angles = np.zeros((1, kernels.angle_count(q, layers)))
    out = one_window_poly([1.0], angles, [0.0, 1.0], q, layers)
    assert np.allclose(out, zero_amps(q), atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_apply_m_matches_dense_oracle(seed):
    # M|0...0> and M^2|0...0>
    rng = np.random.default_rng(100 + seed)
    q, layers = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    n = int(rng.integers(1, 5))
    b = rand_complex(rng, (n,))
    b = b / np.abs(b).sum()
    angles = token_angle_block(rng, n, q, layers)
    m = oracle.lcu_dense(b, angles, q, layers)
    once = one_window_poly(b, angles, [0.0, 1.0], q, layers)
    assert np.max(np.abs(once - m @ zero_amps(q))) <= 1e-10
    twice = one_window_poly(b, angles, [0.0, 0.0, 1.0], q, layers)
    assert np.max(np.abs(twice - m @ m @ zero_amps(q))) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_apply_m_contraction(seed):
    # with sum|b| = 1, no power of the mixing operator can grow the norm
    rng = np.random.default_rng(200 + seed)
    q, layers, n = 3, 2, 4
    b = rand_complex(rng, (n,))
    b = b / np.abs(b).sum()
    angles = token_angle_block(rng, n, q, layers)
    for k in range(1, 4):
        out = one_window_poly(b, angles, np.eye(k + 1)[k], q, layers)
        assert np.linalg.norm(out) <= 1.0 + 1e-10, k


# ---------------------------------------------------------------------------
# apply_polynomial

def test_polynomial_constant_term_only():
    q, layers, n = 2, 1, 3
    rng = np.random.default_rng(0)
    b = mixer.l1_normalize(ad.tensor(rand_complex(rng, (n,))), [True] * n)
    angles = token_angle_block(rng, n, q, layers)
    out = one_window_poly(b.values, angles, [1.0, 0.0, 0.0], q, layers)
    assert np.array_equal(out, zero_amps(q))


def test_polynomial_linear_term_is_one_application():
    # c = (0, 1) gives sum_j b_j U_j |0...0>, each U_j run on its own
    q, layers, n = 2, 1, 3
    rng = np.random.default_rng(1)
    b = mixer.l1_normalize(ad.tensor(rand_complex(rng, (n,))), [True] * n).values
    angles = token_angle_block(rng, n, q, layers)
    poly = one_window_poly(b, angles, [0.0, 1.0], q, layers)
    direct = sum(b[j] * circuits.ansatz_rows(ad.tensor(zero_amps(q)[None]),
                                             ad.tensor(angles[j]), q, layers).values[0]
                 for j in range(n))
    assert np.max(np.abs(poly - direct)) <= 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_polynomial_matches_dense_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    q, layers = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    n, degree = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    b = rand_complex(rng, (n,))
    b = b / np.abs(b).sum()
    c = rand_complex(rng, (degree + 1,))
    angles = token_angle_block(rng, n, q, layers)
    got = one_window_poly(b, angles, c, q, layers)
    m = oracle.lcu_dense(b, angles, q, layers)
    want = oracle.poly_state_dense(c, m)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_polynomial_uses_exactly_degree_applications(monkeypatch):
    calls = {"n": 0}
    original = mixer.ansatz_rows

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(mixer, "ansatz_rows", counting)
    rng = np.random.default_rng(4)
    q, layers, n, degree = 2, 1, 3, 4
    b = rand_complex(rng, (n,))
    b = b / np.abs(b).sum()
    angles = token_angle_block(rng, n, q, layers)
    one_window_poly(b, angles, rand_complex(rng, (degree + 1,)), q, layers)
    assert calls["n"] == degree


# ---------------------------------------------------------------------------
# mix_window

def default_mix(rng, q=3, n=4, degree=2, layers=1, ff_layers=1, mask=None,
                poly=None, angle_scale=np.pi):
    params = make_params(rng, n, degree, q, ff_layers, poly=poly)
    angles = ad.tensor(token_angle_block(rng, n, q, layers, scale=angle_scale))
    if mask is None:
        mask = [True] * n
    out = mixer.mix_window(angles, params, mask, q=q, embed_layers=layers)
    return out, params, angles


def test_mix_window_identity_polynomial_zero_ff():
    # c = (1, 0, ...) and zero feed-forward angles leave |0...0> untouched:
    # pre_norm exactly 1, features (0,..,0, 1,..,1)
    rng = np.random.default_rng(13)
    q, n = 3, 4
    params = make_params(rng, n, 2, q, poly=np.array([1.0, 0.0, 0.0]))
    params.ff_angles.theta.values[:] = 0.0
    angles = ad.tensor(token_angle_block(rng, n, q, 1))
    out = mixer.mix_window(angles, params, [True] * n, q=q, embed_layers=1)
    assert out.pre_norm.real_item() == 1.0
    want = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=float)
    assert np.allclose(out.features.values.real, want, atol=1e-12)
    assert np.allclose(out.state.values, zero_amps(q), atol=1e-12)


def test_mix_window_pre_norm_matches_dense():
    rng = np.random.default_rng(14)
    q, n, degree, layers = 3, 4, 3, 1
    params = make_params(rng, n, degree, q)
    angle_vals = token_angle_block(rng, n, q, layers)
    out = mixer.mix_window(ad.tensor(angle_vals), params, [True] * n,
                           q=q, embed_layers=layers)
    b = params.lcu_coeffs.values
    b_norm = b / np.abs(b).sum()
    m = oracle.lcu_dense(b_norm, angle_vals, q, layers)
    want_state = oracle.poly_state_dense(params.poly_coeffs.values, m)
    assert out.pre_norm.real_item() == pytest.approx(float(np.vdot(want_state, want_state).real),
                                                     abs=1e-10)


def test_mix_window_features_bounded_and_real():
    rng = np.random.default_rng(15)
    out, _, _ = default_mix(rng)
    f = out.features.values
    assert np.all(np.abs(f.real) <= 1 + 1e-12)
    assert np.all(f.imag == 0.0)
    assert abs(np.linalg.norm(out.state.values) - 1.0) <= 1e-10


def test_mix_window_joint_permutation_bitwise():
    rng = np.random.default_rng(16)
    q, n, degree, layers = 3, 6, 2, 1
    params = make_params(rng, n, degree, q)
    angle_vals = token_angle_block(rng, n, q, layers)
    mask = np.array([True, True, False, True, True, False])

    perm = rng.permutation(n)
    params_p = mixer.MixerParams(
        lcu_coeffs=ad.tensor(params.lcu_coeffs.values[perm]),
        poly_coeffs=params.poly_coeffs,
        ff_angles=params.ff_angles,
    )
    a = mixer.mix_window(ad.tensor(angle_vals), params, mask, q=q, embed_layers=layers)
    b = mixer.mix_window(ad.tensor(angle_vals[perm]), params_p, mask[perm],
                         q=q, embed_layers=layers)
    assert np.array_equal(a.features.values, b.features.values)
    assert np.array_equal(a.pre_norm.values, b.pre_norm.values)
    assert np.array_equal(a.state.values, b.state.values)


def test_mix_window_equal_raw_coefficients_joint_permutation_bitwise():
    # unnormalized equal weights tie in every power, so the template rows
    # alone order each window's sum
    rng = np.random.default_rng(17)
    q, n, degree, layers = 3, 7, 3, 1
    params = make_params(rng, n, degree, q)
    params.lcu_coeffs.values[:] = 0.4 + 0.1j
    angle_vals = token_angle_block(rng, n, q, layers)
    mask = np.array([True, True, False, True, True, True, True])
    a = mixer.mix_window(ad.tensor(angle_vals), params, mask, q=q, embed_layers=layers,
                         normalize_lcu=False)
    for _ in range(10):
        perm = rng.permutation(n)
        b = mixer.mix_window(ad.tensor(angle_vals[perm]), params, mask[perm], q=q,
                             embed_layers=layers, normalize_lcu=False)
        assert np.array_equal(a.features.values, b.features.values), perm
        assert np.array_equal(a.pre_norm.values, b.pre_norm.values), perm
        assert np.array_equal(a.state.values, b.state.values), perm


@pytest.mark.parametrize("tied", [False, True], ids=["distinct_weights", "equal_weights"])
def test_mix_window_byte_identical_rows_joint_permutation_and_batch_bitwise(tied):
    # three positions hold byte-identical angle rows, with distinct weights
    # or with one weight; four more share one weight, so only their rows'
    # bytes order them in each LCU sum
    rng = np.random.default_rng(19)
    q, n, degree, layers = 3, 8, 3, 1
    params = make_params(rng, n, degree, q)
    b = params.lcu_coeffs.values
    b[3:7] = 0.3 - 0.1j
    if tied:
        b[:3] = b[3]
    angle_vals = token_angle_block(rng, n, q, layers)
    angle_vals[1] = angle_vals[2] = angle_vals[0]
    mask = np.array([True] * 7 + [False])
    base = mixer.mix_window(ad.tensor(angle_vals), params, mask, q=q, embed_layers=layers)
    batch = mixer.mix_window(ad.tensor(np.stack([token_angle_block(rng, n, q, layers),
                                                 angle_vals])),
                             params, np.stack([np.ones(n, dtype=bool), mask]), q=q,
                             embed_layers=layers)
    assert np.array_equal(batch.features.values[1], base.features.values)
    assert np.array_equal(batch.state.values[1], base.state.values)
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(n)
        params_p = mixer.MixerParams(lcu_coeffs=ad.tensor(b[perm]),
                                     poly_coeffs=params.poly_coeffs,
                                     ff_angles=params.ff_angles)
        out = mixer.mix_window(ad.tensor(angle_vals[perm]), params_p, mask[perm], q=q,
                               embed_layers=layers)
        assert np.array_equal(out.features.values, base.features.values), perm
        assert np.array_equal(out.pre_norm.values, base.pre_norm.values), perm
        assert np.array_equal(out.state.values, base.state.values), perm


def test_mix_window_masked_tokens_have_no_influence():
    # changing the angles of a masked token must not move any output
    rng = np.random.default_rng(17)
    q, n, layers = 3, 4, 1
    params = make_params(rng, n, 2, q)
    angle_vals = token_angle_block(rng, n, q, layers)
    mask = [True, True, True, False]
    out1 = mixer.mix_window(ad.tensor(angle_vals), params, mask, q=q, embed_layers=layers)
    angle_vals2 = angle_vals.copy()
    angle_vals2[3] = rng.uniform(-np.pi, np.pi, size=angle_vals.shape[1])
    out2 = mixer.mix_window(ad.tensor(angle_vals2), params, mask, q=q, embed_layers=layers)
    assert np.array_equal(out1.features.values, out2.features.values)


def test_mix_window_empty_mask():
    rng = np.random.default_rng(18)
    params = make_params(rng, 3, 2, 2)
    angles = ad.tensor(token_angle_block(rng, 3, 2, 1))
    with pytest.raises(EmptyWindowError):
        mixer.mix_window(angles, params, [False] * 3, q=2, embed_layers=1)


def test_mix_window_collapse_error_names_window():
    rng = np.random.default_rng(19)
    q, n = 2, 2
    params = make_params(rng, n, 1, q, poly=np.array([0.0, 0.0]))
    angles = ad.tensor(token_angle_block(rng, n, q, 1))
    with pytest.raises(CollapsedStateError, match="window 7"):
        mixer.mix_window(angles, params, [True] * n, q=q, embed_layers=1, window_id=7)


def test_mix_window_gradients_end_to_end():
    # gradients through the whole pipeline: coefficients, polynomial,
    # feed-forward angles, and token angles
    rng = np.random.default_rng(20)
    q, n, degree, layers, ffl = 2, 3, 2, 1, 1
    b = rand_complex(rng, (n,))
    c = rand_complex(rng, (degree + 1,)) * 0.5
    c[1] += 1.0
    phi = rng.uniform(-0.5, 0.5, size=kernels.angle_count(q, ffl))
    angles = token_angle_block(rng, n, q, layers, scale=1.0)
    mask = [True, True, False]

    def build_simple(ls):
        params = mixer.MixerParams(
            lcu_coeffs=ls[0], poly_coeffs=ls[1],
            ff_angles=circuits.AnsatzAngles(ls[2], q=q, layers=ffl))
        out = mixer.mix_window(ls[3], params, mask, q=q, embed_layers=layers)
        return ad.add(out.features,
                      ad.scalar_mul(out.pre_norm, ad.tensor(np.ones(3 * q))))

    check_op_gradients(
        build_simple,
        [ad.tensor(b), ad.tensor(c), ad.tensor(phi), ad.tensor(angles)],
        rng, complex_leaves={0, 1}, atol=5e-6)


def test_mixer_params_shape_validation():
    rng = np.random.default_rng(21)
    params = make_params(rng, 3, 2, 2)
    bad_angles = ad.tensor(np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        mixer.mix_window(bad_angles, params, [True] * 3, q=2, embed_layers=1)


# ---------------------------------------------------------------------------
# a batch of windows

def window_batch(rng, w, n, q, layers):
    angles = rng.uniform(-np.pi, np.pi, size=(w, n, kernels.angle_count(q, layers)))
    masks = rng.random((w, n)) < 0.6
    masks[:, 0] = True                      # no window is empty
    masks[1] = True                         # and one is full
    return angles, masks


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("q", [3, 4])
def test_mix_window_batch_equals_windows_alone_bitwise(q, normalize):
    rng = np.random.default_rng(30 + q)
    n, degree, layers = 5, 3, 2
    params = make_params(rng, n, degree, q, ff_layers=2)
    angles, masks = window_batch(rng, 5, n, q, layers)
    batch = mixer.mix_window(ad.tensor(angles), params, masks, q=q,
                             embed_layers=layers, normalize_lcu=normalize)
    assert batch.features.shape == (5, 3 * q)
    assert batch.pre_norm.shape == (5,)
    assert batch.lcu_weights.shape == (5, n)
    for w in range(5):
        alone = mixer.mix_window(ad.tensor(angles[w]), params, masks[w], q=q,
                                 embed_layers=layers, normalize_lcu=normalize)
        assert np.array_equal(batch.features.values[w], alone.features.values), w
        assert np.array_equal(batch.pre_norm.values[w], alone.pre_norm.values), w
        assert np.array_equal(batch.lcu_weights.values[w], alone.lcu_weights.values), w
        assert np.array_equal(batch.state.values[w], alone.state.values), w


def test_mix_window_batch_joint_permutation_bitwise():
    # equal mixing coefficients, so permuting one window's tokens together
    # with its mask permutes the addends of that window's LCU sum only
    rng = np.random.default_rng(31)
    q, n, degree, layers = 3, 6, 3, 1
    params = make_params(rng, n, degree, q)
    params.lcu_coeffs.values[:] = 0.3 - 0.2j
    angles, masks = window_batch(rng, 4, n, q, layers)
    a = mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers)
    perm = rng.permutation(n)
    angles_p, masks_p = angles.copy(), masks.copy()
    angles_p[2], masks_p[2] = angles[2][perm], masks[2][perm]
    b = mixer.mix_window(ad.tensor(angles_p), params, masks_p, q=q, embed_layers=layers)
    assert np.array_equal(a.features.values, b.features.values)
    assert np.array_equal(a.pre_norm.values, b.pre_norm.values)
    assert np.array_equal(a.state.values, b.state.values)


def test_mix_window_batch_makes_one_template_call_per_power(monkeypatch):
    calls = {"mixer": [], "circuits": []}
    for owner, key in ((mixer, "mixer"), (circuits, "circuits")):
        original = owner.ansatz_rows

        def counting(*args, _original=original, _key=key, **kwargs):
            out = _original(*args, **kwargs)
            calls[_key].append(out.shape[0])
            return out

        monkeypatch.setattr(owner, "ansatz_rows", counting)
    rng = np.random.default_rng(32)
    q, n, degree, layers = 3, 4, 4, 1
    params = make_params(rng, n, degree, q)
    angles, masks = window_batch(rng, 6, n, q, layers)
    mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers)
    assert calls["mixer"] == [int(masks.sum())] * degree
    assert calls["circuits"] == [6]          # the feed-forward template, one row per window


def test_mix_window_batch_collapse_error_names_window():
    rng = np.random.default_rng(33)
    q, n, layers = 2, 3, 1
    params = make_params(rng, n, 1, q, poly=np.array([0.0, 1.0]))
    angles, masks = window_batch(rng, 4, n, q, layers)
    # window 2 mixes two identity tokens with opposite weights: M = 0
    params.lcu_coeffs.values[:2] = [0.5, -0.5]
    angles[2, :2] = 0.0
    masks[2] = [True, True, False]
    with pytest.raises(CollapsedStateError, match="document 7 window 1"):
        mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers,
                         window_id=["a", "b", "document 7 window 1", "c"])
    with pytest.raises(CollapsedStateError, match="window 2"):
        mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers)


def test_mix_window_batch_empty_window_named():
    rng = np.random.default_rng(34)
    params = make_params(rng, 3, 2, 2)
    angles, masks = window_batch(rng, 3, 3, 2, 1)
    masks[1] = False
    with pytest.raises(EmptyWindowError, match="window 1"):
        mixer.mix_window(ad.tensor(angles), params, masks, q=2, embed_layers=1)


def test_mix_window_batch_gradients():
    rng = np.random.default_rng(35)
    q, n, degree, layers, ffl = 2, 3, 2, 1, 1
    b = rand_complex(rng, (n,))
    c = rand_complex(rng, (degree + 1,)) * 0.5
    c[1] += 1.0
    phi = rng.uniform(-0.5, 0.5, size=kernels.angle_count(q, ffl))
    angles = rng.uniform(-1.0, 1.0, size=(3, n, kernels.angle_count(q, layers)))
    masks = np.array([[True, True, False], [True, True, True], [False, True, False]])

    def build(ls):
        params = mixer.MixerParams(
            lcu_coeffs=ls[0], poly_coeffs=ls[1],
            ff_angles=circuits.AnsatzAngles(ls[2], q=q, layers=ffl))
        out = mixer.mix_window(ls[3], params, masks, q=q, embed_layers=layers)
        return ad.add(out.features, ad.scalar_mul(out.pre_norm, ad.tensor(np.ones((3, 3 * q)))))

    check_op_gradients(
        build, [ad.tensor(b), ad.tensor(c), ad.tensor(phi), ad.tensor(angles)],
        rng, complex_leaves={0, 1}, atol=5e-6)


# ---------------------------------------------------------------------------
# template operands built once per set of angles

def count_operand_builds(monkeypatch):
    built = []
    original = kernels.TemplateOperands.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kernels.TemplateOperands, "__init__", counting)
    return built


@pytest.mark.parametrize("taped", [True, False], ids=["tape", "eager"])
def test_mix_window_builds_each_templates_operands_once(monkeypatch, taped):
    # the token template's operands serve all d powers, forward and adjoint;
    # the feed-forward template's serve its forward and adjoint
    built = count_operand_builds(monkeypatch)
    rng = np.random.default_rng(34)
    q, n, degree, layers = 3, 4, 4, 2
    params = make_params(rng, n, degree, q)
    angles, masks = window_batch(rng, 5, n, q, layers)
    if taped:
        with ad.Tape():
            token_angles = ad.parameter(angles)
            out = mixer.mix_window(token_angles, params, masks, q=q, embed_layers=layers)
            ad.backward(ad.real_part(ad.sum_last(ad.reshape(out.features, (-1,)))))
        assert token_angles.grad is not None and np.any(token_angles.grad)
    else:
        mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers)
    assert [b.layers for b in built] == [layers, params.ff_angles.layers]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_reused_operands_bitwise_same_as_fresh(q, shared):
    # d chained template calls: one holder for all of them, or a fresh one
    # per call, give bitwise the same outputs, input and angle gradients
    rng = np.random.default_rng(1400 + q)
    layers, k, d = (2 if q < 8 else 1), 3, 3
    n = kernels.angle_count(q, layers)
    states = rand_complex(rng, (k, 1 << q))
    angles = rng.uniform(-np.pi, np.pi, size=n if shared else (k, n))
    weight = rand_complex(rng, (k, 1 << q))
    runs = []
    for reuse in (True, False):
        with ad.Tape():
            s, a = ad.parameter(states), ad.parameter(angles)
            ops = kernels.template_operands(q, layers, a.values) if reuse else None
            out = s
            for _ in range(d):
                out = circuits.ansatz_rows(out, a, q, layers, operands=ops)
            ad.backward(probe_loss(out, weight))
        runs.append((out.values, s.grad, a.grad))
    for reused, fresh in zip(*runs):
        assert np.array_equal(reused, fresh)


def test_operands_from_other_angles_rejected():
    rng = np.random.default_rng(35)
    q, layers = 3, 1
    states = ad.tensor(rand_complex(rng, (2, 1 << q)))
    angles = rng.uniform(-1, 1, size=(2, kernels.angle_count(q, layers)))
    ops = kernels.template_operands(q, layers, angles)
    with pytest.raises(ShapeError, match="operands"):
        circuits.ansatz_rows(states, ad.tensor(angles.copy()), q, layers, operands=ops)
    own = ad.tensor(angles)
    with pytest.raises(ShapeError, match="operands"):
        circuits.ansatz_rows(states, own, q, layers,
                             operands=kernels.template_operands(q, layers, angles.copy()))
    circuits.ansatz_rows(states, own, q, layers,
                         operands=kernels.template_operands(q, layers, own.values))
