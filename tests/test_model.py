"""Model layer: init, forward, aggregation, loss assembly, optimizer."""

import numpy as np
import pytest

from qtmix import autodiff as ad
from qtmix.autodiff import Tape, backward, parameter
from qtmix.config import LossConfig, ModelConfig, OptimizerConfig
from qtmix.data import Document, make_windows
from qtmix.errors import CollapsedStateError, InputError
from qtmix.kernels import angle_count
from qtmix.model import (count_attention_params, document_loss,
                         forward_document, init_params, loss_terms)
from qtmix.optim import AdamW, cosine_lr


def small_cfg(**kw):
    base = dict(qubits=3, window=4, degree=2, embed_dim=6, embed_layers=1,
                ff_layers=1, hidden=5, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def doc_of(ids, label=0, window=4, stride=None):
    return Document(label=label, windows=make_windows(list(ids), window, stride))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_shapes():
    cfg = small_cfg()
    p = init_params(cfg, vocab_size=11, n_classes=3, seed=0)
    named = p.named()
    assert named["embed_table"].shape == (11, 6)
    assert named["embed_proj"].shape == (angle_count(3, 1), 6)
    assert named["lcu_coeffs"].shape == (4,)
    assert named["poly_coeffs"].shape == (3,)
    assert named["ff_angles"].shape == (angle_count(3, 1),)
    assert named["head_w1"].shape == (5, 9)
    assert named["head_b1"].shape == (5,)
    assert named["head_w2"].shape == (3, 5)
    assert named["head_b2"].shape == (3,)
    assert "attn_vec" not in named


def test_init_attention_vector_only_for_pooling():
    cfg = small_cfg(aggregation="attention_pool")
    p = init_params(cfg, 11, 2, seed=0)
    assert p.attn_vec is not None
    assert np.all(p.attn_vec.values == 0.0)


def test_init_value_ranges():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=4)
    n = cfg.window
    b = p.mixer.lcu_coeffs.values
    assert np.all(np.abs(b - 1.0 / n) <= cfg.init_coeff_noise / n + 1e-15)
    c = p.mixer.poly_coeffs.values
    target = np.zeros(cfg.degree + 1, dtype=complex)
    target[1] = 1.0
    assert np.all(np.abs(c - target) <= cfg.init_coeff_noise + 1e-15)
    ff = p.mixer.ff_angles.theta.values
    assert np.all(np.abs(ff.real) <= cfg.init_angle_scale)
    assert np.all(ff.imag == 0.0)
    assert np.all(p.head_b1.values == 0.0)
    assert np.all(p.head_b2.values == 0.0)
    # real-constrained groups carry exactly zero imaginary parts
    for name in ("embed_table", "embed_proj", "ff_angles", "head_w1", "head_w2"):
        assert np.all(p.named()[name].values.imag == 0.0), name


def test_init_seed_determinism():
    cfg = small_cfg()
    a = init_params(cfg, 11, 2, seed=9)
    b = init_params(cfg, 11, 2, seed=9)
    c = init_params(cfg, 11, 2, seed=10)
    for name, t in a.named().items():
        assert np.array_equal(t.values, b.named()[name].values), name
    assert any(not np.array_equal(t.values, c.named()[name].values)
               for name, t in a.named().items())


def test_init_zero_noise_is_exact():
    cfg = small_cfg(init_coeff_noise=0.0, init_angle_scale=0.0)
    p = init_params(cfg, 11, 2, seed=0)
    assert np.all(p.mixer.lcu_coeffs.values == 1.0 / cfg.window)
    expect = np.zeros(cfg.degree + 1, dtype=complex)
    expect[1] = 1.0
    assert np.array_equal(p.mixer.poly_coeffs.values, expect)
    assert np.all(p.mixer.ff_angles.theta.values == 0.0)


def test_init_rejects_degenerate_sizes():
    with pytest.raises(InputError):
        init_params(small_cfg(), 11, n_classes=1, seed=0)
    with pytest.raises(InputError):
        init_params(small_cfg(), 1, n_classes=2, seed=0)


# ---------------------------------------------------------------------------
# document forward
# ---------------------------------------------------------------------------

def test_forward_shapes_and_realness():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    doc = doc_of([2, 3, 4, 5, 6, 7], label=1)
    res = forward_document(doc, p, cfg)
    assert res.logits.shape == (2,)
    assert np.all(res.logits.values.imag == 0.0)
    assert res.window_logits.shape == (2, 2)
    assert res.pre_norms.shape == (2,)
    assert res.mean_pre_norm.shape == ()
    pre = res.pre_norms.values.real
    expect = 0.5 * (pre[0] + pre[1])
    assert abs(res.mean_pre_norm.real_item() - expect) <= 1e-15


def test_forward_empty_document_rejected():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    with pytest.raises(InputError, match="no windows"):
        forward_document(Document(label=0, windows=[]), p, cfg)


def test_forward_is_deterministic_in_eval_mode():
    cfg = small_cfg(dropout=0.3)
    p = init_params(cfg, 11, 2, seed=1)
    doc = doc_of([2, 3, 4, 5], label=0)
    a = forward_document(doc, p, cfg)
    b = forward_document(doc, p, cfg)
    assert np.array_equal(a.logits.values, b.logits.values)


def test_dropout_needs_rng_and_changes_logits():
    cfg = small_cfg(dropout=0.5)
    p = init_params(cfg, 11, 2, seed=1)
    doc = doc_of([2, 3, 4, 5], label=0)
    with pytest.raises(InputError, match="rng"):
        forward_document(doc, p, cfg, training=True)
    eval_logits = forward_document(doc, p, cfg).logits.values
    rng = np.random.default_rng(0)
    train_logits = forward_document(doc, p, cfg, training=True, rng=rng).logits.values
    assert not np.array_equal(eval_logits, train_logits)
    # same rng stream, same draws
    again = forward_document(doc, p, cfg, training=True,
                             rng=np.random.default_rng(0)).logits.values
    assert np.array_equal(train_logits, again)


def test_mean_of_identical_windows_is_bitwise_window_logits():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=3)
    one = doc_of([2, 3, 4, 5], label=0)
    two = doc_of([2, 3, 4, 5, 2, 3, 4, 5], label=0)
    la = forward_document(one, p, cfg).logits.values
    lb = forward_document(two, p, cfg).logits.values
    assert np.array_equal(la, lb)


def test_zero_attention_pool_matches_mean():
    base = small_cfg()
    pool = small_cfg(aggregation="attention_pool")
    pm = init_params(base, 11, 2, seed=5)
    pa = init_params(pool, 11, 2, seed=5)
    doc = doc_of([2, 3, 4, 5, 6, 7, 8], label=1)
    lm = forward_document(doc, pm, base).logits.values
    la = forward_document(doc, pa, pool).logits.values
    assert np.max(np.abs(lm - la)) <= 1e-12


def test_attention_pool_departs_from_mean_once_trained_vector_set():
    cfg = small_cfg(aggregation="attention_pool")
    p = init_params(cfg, 11, 2, seed=5)
    doc = doc_of([2, 3, 4, 5, 6, 7, 8], label=1)
    uniform = forward_document(doc, p, cfg).logits.values
    p.attn_vec.values[...] = np.linspace(-2, 2, 9)
    skewed = forward_document(doc, p, cfg).logits.values
    assert not np.allclose(uniform, skewed, atol=1e-9)


def test_measurement_mask_hides_features_from_head():
    q = 3
    mask = [True, False, True] * q
    cfg_masked = small_cfg(measurement_mask=mask)
    cfg_plain = small_cfg()
    p = init_params(cfg_plain, 11, 2, seed=6)
    # wipe the head rows that read the surviving features; only masked-off
    # features could then move the logits, and they must not
    cols = [i for i, keep in enumerate(mask) if keep]
    p.head_w1.values[:, cols] = 0.0
    doc = doc_of([2, 3, 4, 5], label=0)
    with_mask = forward_document(doc, p, cfg_masked).logits.values
    bias_only = p.head_b2.values + p.head_w2.values @ np.maximum(
        p.head_b1.values.real, 0.0)
    assert np.max(np.abs(with_mask - bias_only)) <= 1e-12


def test_stride_changes_window_count():
    cfg = small_cfg(stride=2)
    p = init_params(cfg, 11, 2, seed=0)
    doc = doc_of([2, 3, 4, 5, 6, 7], window=4, stride=2)
    res = forward_document(doc, p, cfg)
    assert res.window_logits.shape[0] == 3


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_uniform_logits_cross_entropy():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    p.head_w2.values[...] = 0.0
    p.head_b2.values[...] = 0.0
    doc = doc_of([2, 3, 4, 5], label=1)
    loss, parts = document_loss(doc, p, cfg, LossConfig(lambda_ps=0.0))
    assert abs(parts["ce"] - np.log(2.0)) <= 1e-12
    assert parts["total"] == parts["ce"]


def test_loss_psr_term_value():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    doc = doc_of([2, 3, 4, 5], label=1)
    lc = LossConfig(tau=0.5, lambda_ps=0.25)
    loss, parts = document_loss(doc, p, cfg, lc)
    expect = 0.25 * (parts["mean_pre_norm"] - 0.5) ** 2
    assert abs(parts["psr"] - expect) <= 1e-12
    assert abs(parts["total"] - (parts["ce"] + parts["psr"])) <= 1e-12


def test_loss_l1_term_zero_when_normalized():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    doc = doc_of([2, 3, 4, 5], label=1)
    _, parts = document_loss(doc, p, cfg, LossConfig(lambda_ps=0.0, lambda_l1=2.0))
    assert parts["l1c"] <= 1e-24


def test_loss_l1_term_active_without_normalization():
    cfg = small_cfg(normalize_lcu=False)
    p = init_params(cfg, 11, 2, seed=0)
    doc = doc_of([2, 3, 4, 5], label=1)
    _, parts = document_loss(doc, p, cfg, LossConfig(lambda_ps=0.0, lambda_l1=2.0))
    raw = np.abs(p.mixer.lcu_coeffs.values).sum()
    assert abs(parts["l1c"] - 2.0 * (raw - 1.0) ** 2) <= 1e-12


def test_loss_smooth_and_l2_terms():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    doc = doc_of([2, 3, 4, 5], label=1)
    lc = LossConfig(lambda_ps=0.0, lambda_smooth=0.5, lambda_l2=0.25)
    _, parts = document_loss(doc, p, cfg, lc)
    c = p.mixer.poly_coeffs.values
    smooth = 0.5 * float(np.sum(np.abs(np.diff(c)) ** 2))
    l2 = 0.25 * float(np.sum(np.abs(c) ** 2))
    assert abs(parts["smooth"] - smooth) <= 1e-12
    assert abs(parts["l2"] - l2) <= 1e-12
    assert abs(parts["total"] - (parts["ce"] + smooth + l2)) <= 1e-12


def test_loss_gradients_flow_to_every_group():
    cfg = small_cfg(aggregation="attention_pool")
    p = init_params(cfg, 11, 2, seed=2)
    doc = doc_of([2, 3, 4, 5, 6, 7, 8, 9, 10], label=1)
    lc = LossConfig(lambda_ps=0.1, lambda_l1=0.1, lambda_smooth=0.1, lambda_l2=0.1)
    with Tape():
        loss, _ = document_loss(doc, p, cfg, lc)
        grads = backward(loss, populate_leaves=False)
    by_name = {}
    for name, t in p.named().items():
        for leaf, g in grads.items():
            if leaf is t:
                by_name[name] = g
    for name in p.named():
        assert name in by_name, f"no gradient reached {name}"
        assert np.any(by_name[name] != 0.0), f"gradient identically zero for {name}"


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def test_count_attention_params_defaults():
    pc = count_attention_params(ModelConfig())
    assert pc.ff_angle_count == 4 * 6 * 8
    assert pc.complex_entries == 16 + 6 + 192
    assert pc.real_view == 32 + 12 + 192
    assert pc.delta == 16 + 5 + 1


def test_count_attention_params_reference_sizes():
    big = count_attention_params(ModelConfig(window=256, degree=5))
    small = count_attention_params(ModelConfig(window=128, degree=5))
    assert big.complex_entries == 454
    assert small.complex_entries == 326
    assert big.complex_entries - small.complex_entries == 128
    # the loose convention doubles every complex entry
    assert big.real_view == 2 * 256 + 2 * 6 + 192
    assert small.real_view == 2 * 128 + 2 * 6 + 192


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

def test_cosine_schedule_endpoints_and_midpoint():
    total = 11
    assert cosine_lr(0, total, 1e-3, 1e-5) == pytest.approx(1e-3, abs=0)
    assert cosine_lr(total - 1, total, 1e-3, 1e-5) == pytest.approx(1e-5, abs=1e-20)
    mid = cosine_lr(5, total, 1e-3, 1e-5)
    assert mid == pytest.approx(0.5 * (1e-3 + 1e-5), rel=1e-12)


def test_cosine_schedule_monotone_non_increasing():
    vals = [cosine_lr(s, 40, 1e-2, 1e-4) for s in range(40)]
    assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))


def test_cosine_schedule_single_step_run():
    assert cosine_lr(0, 1, 1e-3, 1e-5) == pytest.approx(1e-3)


def test_adamw_first_step_closed_form():
    cfg = OptimizerConfig(weight_decay=0.0)
    x = parameter(np.array([2.0, -3.0]))
    opt = AdamW({"x": x}, cfg)
    g = np.array([0.5, -1.5], dtype=complex)
    opt.step({"x": g}, lr=0.1)
    # bias-corrected first step reduces to g / (|g| + eps)
    expect = np.array([2.0, -3.0]) - 0.1 * (g.real / (np.abs(g.real) + cfg.eps))
    assert np.max(np.abs(x.values.real - expect)) <= 1e-12
    assert np.all(x.values.imag == 0.0)


def test_adamw_weight_decay_decoupled():
    cfg = OptimizerConfig(weight_decay=0.1)
    x = parameter(np.array([4.0]))
    opt = AdamW({"x": x}, cfg)
    opt.step({}, lr=0.5)                      # no gradient: pure decay
    assert x.values.real[0] == pytest.approx(4.0 - 0.5 * 0.1 * 4.0)


def test_adamw_skips_decay_for_mixing_coefficients():
    cfg = OptimizerConfig(weight_decay=0.1)
    b = parameter(np.array([0.25 + 0.1j]))
    w = parameter(np.array([0.25 + 0.1j]))
    opt = AdamW({"lcu_coeffs": b, "other": w}, cfg)
    opt.step({}, lr=0.5)
    assert b.values[0] == 0.25 + 0.1j
    assert w.values[0] != 0.25 + 0.1j


def test_adamw_complex_update_is_pairwise_real():
    """Updating a complex parameter must equal updating its real and
    imaginary halves as independent reals."""
    cfg = OptimizerConfig(weight_decay=0.01)
    z = parameter(np.array([1.0 + 2.0j, -0.5 + 0.25j]))
    re = parameter(np.array([1.0, -0.5]))
    im = parameter(np.array([2.0, 0.25]))
    g = np.array([0.3 - 0.7j, -0.2 + 0.9j])
    oz = AdamW({"z": z}, cfg)
    ore = AdamW({"re": re}, cfg)
    oim = AdamW({"im": im}, cfg)
    for _ in range(3):
        oz.step({"z": g}, lr=0.05)
        ore.step({"re": g.real.astype(complex)}, lr=0.05)
        oim.step({"im": 1j * g.imag.astype(complex) * -1j}, lr=0.05)
    assert np.array_equal(z.values.real, re.values.real)
    assert np.array_equal(z.values.imag, im.values.real)


def test_adamw_rejects_shape_mismatch():
    x = parameter(np.zeros(3))
    opt = AdamW({"x": x}, OptimizerConfig())
    with pytest.raises(ValueError, match="shape"):
        opt.step({"x": np.zeros(4, dtype=complex)}, lr=0.1)


def test_adamw_descends_a_quadratic():
    x = parameter(np.array([3.0, -2.0]))
    opt = AdamW({"x": x}, OptimizerConfig(weight_decay=0.0))
    for _ in range(300):
        g = 2.0 * x.values.real
        opt.step({"x": g.astype(complex)}, lr=0.05)
    assert np.max(np.abs(x.values.real)) < 0.05


# ---------------------------------------------------------------------------
# batches of documents

def doc_batch(rng, count, window=4, stride=None):
    docs = []
    for i in range(count):
        length = int(rng.integers(1, 3 * window))
        docs.append(doc_of(rng.integers(2, 11, size=length).tolist(), label=i % 2,
                           window=window, stride=stride))
    return docs


def seeded(d):
    return np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0, d)))


@pytest.mark.parametrize("aggregation", ["mean_logits", "attention_pool"])
def test_document_loss_bitwise_same_alone_and_in_batch_with_dropout(aggregation):
    cfg = small_cfg(dropout=0.4, aggregation=aggregation, stride=2)
    lc = LossConfig(lambda_ps=0.3, lambda_l1=0.2, lambda_smooth=0.1, lambda_l2=0.1)
    p = init_params(cfg, 11, 2, seed=8)
    if p.attn_vec is not None:
        p.attn_vec.values[...] = np.linspace(-1, 1, 9)
    docs = doc_batch(np.random.default_rng(8), 8, stride=2)
    assert len({len(d.windows) for d in docs}) > 1
    loss, parts = document_loss(docs, p, cfg, lc, training=True,
                                rng=[seeded(d) for d in range(8)])
    res = forward_document(docs, p, cfg, training=True, rng=[seeded(d) for d in range(8)])
    assert len(parts) == 8 and res.logits.shape == (8, 2)
    for d, doc in enumerate(docs):
        _, alone = document_loss(doc, p, cfg, lc, training=True, rng=seeded(d))
        assert parts[d] == alone, d
        one = forward_document(doc, p, cfg, training=True, rng=seeded(d))
        assert np.array_equal(res.logits.values[d], one.logits.values), d
    assert loss.real_item() == pytest.approx(np.mean([pt["total"] for pt in parts]),
                                             rel=1e-14)


def test_document_windows_bitwise_same_in_any_batch():
    cfg = small_cfg(stride=3)
    p = init_params(cfg, 11, 2, seed=4)
    docs = doc_batch(np.random.default_rng(4), 6, stride=3)
    full = forward_document(docs, p, cfg)
    tail = forward_document(docs[3:], p, cfg)
    start = sum(len(d.windows) for d in docs[:3])
    assert np.array_equal(full.window_logits.values[start:], tail.window_logits.values)
    assert np.array_equal(full.pre_norms.values[start:], tail.pre_norms.values)
    assert np.array_equal(full.lcu_weights.values[start:], tail.lcu_weights.values)
    assert np.array_equal(full.logits.values[3:], tail.logits.values)


def test_batch_gradients_match_central_differences_attention_pool():
    cfg = ModelConfig(qubits=2, window=3, stride=2, degree=2, embed_dim=3,
                      embed_layers=1, ff_layers=1, hidden=4, dropout=0.0,
                      aggregation="attention_pool", normalize_lcu=False)
    lc = LossConfig(tau=0.5, lambda_ps=0.2, lambda_l1=0.1, lambda_smooth=0.1,
                    lambda_l2=0.05)
    p = init_params(cfg, 8, 2, seed=3)
    rng = np.random.default_rng(3)
    p.attn_vec.values[...] = rng.uniform(-1, 1, 6)
    docs = [doc_of([2, 3, 4, 5, 6, 7], label=0, window=3, stride=2),
            doc_of([7, 6, 5], label=1, window=3, stride=2),
            doc_of([3, 3, 4, 7, 2], label=1, window=3, stride=2)]
    assert [len(d.windows) for d in docs] == [3, 2, 3]
    named = p.named()
    with Tape():
        loss, _ = document_loss(docs, p, cfg, lc)
        grads = backward(loss, populate_leaves=False)
    by_id = {id(t): g for t, g in grads.items()}
    h = 1e-6
    for name, t in named.items():
        g = by_id[id(t)]
        axes = (1.0, 1j) if name in ("lcu_coeffs", "poly_coeffs") else (1.0,)
        for i in range(t.size):
            saved = t.values.flat[i]
            for axis in axes:
                t.values.flat[i] = saved + axis * h
                up = document_loss(docs, p, cfg, lc)[0].real_item()
                t.values.flat[i] = saved - axis * h
                down = document_loss(docs, p, cfg, lc)[0].real_item()
                t.values.flat[i] = saved
                fd = (up - down) / (2 * h)
                a = g.flat[i].real if axis == 1.0 else g.flat[i].imag
                assert abs(a - fd) <= 1e-7 + 1e-5 * abs(fd), (name, i, axis, a, fd)


def test_batch_errors_name_document_and_window():
    cfg = small_cfg()
    p = init_params(cfg, 11, 2, seed=0)
    docs = [doc_of([2, 3]), Document(label=0, windows=[])]
    with pytest.raises(InputError, match="document 12 has no windows"):
        forward_document(docs, p, cfg, doc_ids=[11, 12])
    # a polynomial with no terms collapses every window; the first is named
    p.mixer.poly_coeffs.values[...] = 0.0
    with pytest.raises(CollapsedStateError, match="document 5 window 0"):
        forward_document([doc_of([2, 3]), doc_of([4])], p, cfg, doc_ids=[5, 6])
