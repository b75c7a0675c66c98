"""Repeated tokens: the mixer's (U, L) angles with a (W, n) token index.

Each distinct token's template runs once per batch in the first
polynomial power, each distinct (window, token) pair once in every later
power, and a window's repeated tokens share one merged coefficient. These
tests hold that path to the per-position one, to central differences and
to the bitwise contracts, on ids that repeat within windows and across
documents.
"""

from __future__ import annotations

import numpy as np
import pytest

from qtmix import autodiff as ad
from qtmix import circuits, kernels, mixer
from qtmix.config import DataConfig, LossConfig, ModelConfig, RunConfig
from qtmix.data import Document, make_windows
from qtmix.model import document_loss, forward_document, init_params
from qtmix.training import batch_gradients

from helpers import rand_complex


def mixer_params(rng, n, degree, q, ff_layers=1):
    phi = rng.uniform(-np.pi, np.pi, size=kernels.angle_count(q, ff_layers))
    return mixer.MixerParams(
        lcu_coeffs=ad.tensor(rand_complex(rng, (n,))),
        poly_coeffs=ad.tensor(rand_complex(rng, (degree + 1,)) * 0.5),
        ff_angles=circuits.AnsatzAngles(ad.tensor(phi), q=q, layers=ff_layers),
    )


def token_batch(rng, w, n, u, q, layers):
    """(u, L) angles, a (w, n) token index into them and a mask with no
    empty window."""
    angles = rng.uniform(-np.pi, np.pi, size=(u, kernels.angle_count(q, layers)))
    tokens = rng.integers(0, u, size=(w, n))
    masks = rng.random((w, n)) < 0.7
    masks[:, 0] = True
    return angles, tokens, masks


def repeats_in_a_window(tokens, masks) -> bool:
    return any(len(set(t[m].tolist())) < int(m.sum()) for t, m in zip(tokens, masks))


def outputs(out):
    return [out.features.values, out.pre_norm.values, out.state.values,
            out.lcu_weights.values]


# ---------------------------------------------------------------------------
# the mixer

@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_token_index_matches_per_position_call(q, normalize):
    rng = np.random.default_rng(60 + q)
    n, degree, layers = 6, 3, 2
    params = mixer_params(rng, n, degree, q, ff_layers=2)
    angles, tokens, masks = token_batch(rng, 5, n, 3, q, layers)
    assert repeats_in_a_window(tokens, masks)
    by_token = mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers,
                                tokens=tokens, normalize_lcu=normalize)
    by_position = mixer.mix_window(ad.tensor(angles[tokens]), params, masks, q=q,
                                   embed_layers=layers, normalize_lcu=normalize)
    got, want = outputs(by_token), outputs(by_position)
    for a, b in zip(got[:3], want[:3]):
        # relative beyond 1: pre_norm is large without normalization
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))
    assert np.array_equal(got[3], want[3])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_token_index_bitwise_per_position_without_repeats_in_a_window(q):
    # ids repeat across windows, never inside one
    rng = np.random.default_rng(70 + q)
    n, degree, layers, u, w = 5, 3, 2, 7, 6
    params = mixer_params(rng, n, degree, q, ff_layers=2)
    angles = rng.uniform(-np.pi, np.pi, size=(u, kernels.angle_count(q, layers)))
    tokens = np.stack([rng.permutation(u)[:n] for _ in range(w)])
    masks = rng.random((w, n)) < 0.8
    masks[:, 0] = True
    by_token = mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers,
                                tokens=tokens)
    by_position = mixer.mix_window(ad.tensor(angles[tokens]), params, masks, q=q,
                                   embed_layers=layers)
    for a, b in zip(outputs(by_token), outputs(by_position)):
        assert np.array_equal(a, b)


def record_token_template(monkeypatch):
    """Patch the token template and ``take_rows``: the returned lists get
    each template call's ``angle_index`` and, per gather, whether it
    gathered a template call's output."""
    indices, outs, gathers = [], [], []
    run, take = mixer.ansatz_rows, ad.take_rows

    def running(*args, **kwargs):
        indices.append(kwargs.get("angle_index"))
        outs.append(run(*args, **kwargs))
        return outs[-1]

    def taking(a, idx):
        gathers.append(any(a is out for out in outs))
        return take(a, idx)

    monkeypatch.setattr(mixer, "ansatz_rows", running)
    monkeypatch.setattr(ad, "take_rows", taking)
    return indices, gathers


def test_identity_index_runs_no_gather(monkeypatch):
    # per-position angles, and a token index whose pairs are its tokens in
    # order, run every power without an angle index or a gathered first power
    rng = np.random.default_rng(75)
    q, n, degree, layers = 3, 4, 3, 1
    params = mixer_params(rng, n, degree, q)
    width = kernels.angle_count(q, layers)
    masks = np.array([[True, False, True, True], [True, True, True, True]])
    per_position = rng.uniform(-np.pi, np.pi, size=(2, n, width))
    rows = rng.uniform(-np.pi, np.pi, size=(8, width))
    identity = np.array([[2, 0, 3, 1], [6, 5, 4, 7]])        # each window its own block
    repeated = np.array([[2, 0, 3, 2], [6, 5, 4, 7]])
    calls = [(ad.tensor(per_position), masks, None),
             (ad.tensor(per_position[0]), masks[0], None),
             (ad.tensor(rows), np.ones_like(masks), identity),
             (ad.tensor(rows[:4]), np.ones(n, dtype=bool), identity[0])]
    indices, gathers = record_token_template(monkeypatch)
    for angles, mask, tokens in calls:
        indices.clear()
        gathers.clear()
        mixer.mix_window(angles, params, mask, q=q, embed_layers=layers, tokens=tokens)
        assert [i is None for i in indices] == [True] * degree
        assert not any(gathers)
    # the probe sees a map that is not the identity
    indices.clear()
    gathers.clear()
    mixer.mix_window(ad.tensor(rows), params, np.ones_like(masks), q=q, embed_layers=layers,
                     tokens=repeated)
    assert len(indices) == degree and all(i is not None for i in indices[1:])
    assert gathers[-1]


def test_joint_permutation_with_repeated_tokens_bitwise():
    # one window: permute its positions, token ids, mask and mixing
    # coefficients together; the repeated ids' merged weights are
    # canonical sums, so every output bit stays
    rng = np.random.default_rng(80)
    q, n, degree, layers = 3, 7, 3, 1
    params = mixer_params(rng, n, degree, q)
    angles = rng.uniform(-np.pi, np.pi, size=(3, kernels.angle_count(q, layers)))
    tokens = np.array([0, 2, 0, 1, 2, 0, 0])
    mask = np.array([True, True, True, True, True, False, True])
    base = mixer.mix_window(ad.tensor(angles), params, mask, q=q, embed_layers=layers,
                            tokens=tokens)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(n)
        permuted = mixer.MixerParams(lcu_coeffs=ad.tensor(params.lcu_coeffs.values[perm]),
                                     poly_coeffs=params.poly_coeffs,
                                     ff_angles=params.ff_angles)
        out = mixer.mix_window(ad.tensor(angles), permuted, mask[perm], q=q,
                               embed_layers=layers, tokens=tokens[perm])
        for a, b in zip(outputs(base)[:3], outputs(out)[:3]):
            assert np.array_equal(a, b), seed


def test_batch_joint_permutation_with_repeated_tokens_bitwise():
    # a batch: the same permutation of every window's positions, with the
    # coefficients, leaves every window's outputs bitwise the same
    rng = np.random.default_rng(81)
    q, n, degree, layers = 3, 6, 2, 2
    params = mixer_params(rng, n, degree, q)
    angles, tokens, masks = token_batch(rng, 4, n, 3, q, layers)
    # one token four times in a window: its merged weight has more than
    # two addends, so a sum in position order would round differently
    tokens[1], masks[1] = [0, 2, 0, 1, 0, 0], True
    base = mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers,
                            tokens=tokens)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(n)
        permuted = mixer.MixerParams(lcu_coeffs=ad.tensor(params.lcu_coeffs.values[perm]),
                                     poly_coeffs=params.poly_coeffs,
                                     ff_angles=params.ff_angles)
        out = mixer.mix_window(ad.tensor(angles), permuted, masks[:, perm], q=q,
                               embed_layers=layers, tokens=tokens[:, perm])
        for a, b in zip(outputs(base)[:3], outputs(out)[:3]):
            assert np.array_equal(a, b), seed


def test_token_index_gradients_match_per_position():
    # the vjp sums each token's per-pair angle gradients into its row
    rng = np.random.default_rng(82)
    q, n, degree, layers = 3, 5, 3, 1
    params = mixer_params(rng, n, degree, q)
    angles, tokens, masks = token_batch(rng, 4, n, 3, q, layers)
    assert repeats_in_a_window(tokens, masks)
    weight = rand_complex(rng, (4, 3 * q))
    grads = []
    for by_token in (True, False):
        with ad.Tape():
            leaf = ad.parameter(angles if by_token else angles[tokens])
            coeffs = ad.parameter(params.lcu_coeffs.values)
            p = mixer.MixerParams(coeffs, params.poly_coeffs, params.ff_angles)
            out = mixer.mix_window(leaf, p, masks, q=q, embed_layers=layers,
                                   tokens=tokens if by_token else None)
            ad.backward(ad.real_part(ad.sumall(ad.mul(out.features, ad.tensor(weight)))))
        g = leaf.grad
        if not by_token:
            summed = np.zeros(angles.shape, dtype=complex)
            np.add.at(summed, tokens[masks], g[masks])
            g = summed
        grads.append((g, coeffs.grad))
    for a, b in zip(*grads):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_token_index_errors():
    rng = np.random.default_rng(83)
    q, n, layers = 2, 3, 1
    params = mixer_params(rng, n, 1, q)
    angles, tokens, masks = token_batch(rng, 2, n, 2, q, layers)
    with pytest.raises(mixer.ShapeError, match="token index must have shape"):
        mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers,
                         tokens=tokens[:, :2])
    with pytest.raises(mixer.ShapeError, match="out of range"):
        mixer.mix_window(ad.tensor(angles), params, masks, q=q, embed_layers=layers,
                         tokens=tokens + 2)
    with pytest.raises(mixer.ShapeError, match=r"\(U, 8\)"):
        mixer.mix_window(ad.tensor(angles[:, :5]), params, masks, q=q, embed_layers=layers,
                         tokens=tokens)


# ---------------------------------------------------------------------------
# the model

def model_cfg(**kw):
    base = dict(qubits=2, window=4, stride=2, degree=2, embed_dim=3, embed_layers=1,
                ff_layers=1, hidden=4, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def doc_of(ids, label, cfg):
    return Document(label=label, windows=make_windows(list(ids), cfg.window, cfg.stride),
                    n_tokens=len(ids))


# ids repeat inside windows and across documents
REPEATED = ([2, 3, 2, 2, 4, 3, 2], [3, 3, 5], [4, 2, 4, 4, 5, 2], [5, 5, 5, 5])


def repeated_docs(cfg):
    return [doc_of(ids, i % 2, cfg) for i, ids in enumerate(REPEATED)]


@pytest.mark.parametrize("aggregation", ["mean_logits", "attention_pool"])
def test_batch_gradients_central_differences_with_repeated_ids(aggregation):
    cfg = RunConfig(model=model_cfg(aggregation=aggregation),
                    loss=LossConfig(tau=0.5, lambda_ps=0.2, lambda_l1=0.1,
                                    lambda_smooth=0.1, lambda_l2=0.05),
                    data=DataConfig(kind="synthetic")).validate()
    p = init_params(cfg.model, 6, 2, seed=11)
    rng = np.random.default_rng(11)
    if p.attn_vec is not None:
        p.attn_vec.values[...] = rng.uniform(-1, 1, p.attn_vec.shape)
    docs = repeated_docs(cfg.model)
    assert any(len(set(ids[m].tolist())) < int(m.sum())
               for d in docs for ids, m in d.windows)
    grads, _ = batch_gradients(list(enumerate(docs)), p, cfg, epoch=0)
    h = 1e-6
    for name, t in p.named().items():
        g = grads[name]
        axes = (1.0, 1j) if name in ("lcu_coeffs", "poly_coeffs") else (1.0,)
        for i in range(t.size):
            saved = t.values.flat[i]
            for axis in axes:
                t.values.flat[i] = saved + axis * h
                up = document_loss(docs, p, cfg.model, cfg.loss)[0].real_item()
                t.values.flat[i] = saved - axis * h
                down = document_loss(docs, p, cfg.model, cfg.loss)[0].real_item()
                t.values.flat[i] = saved
                fd = (up - down) / (2 * h)
                a = g.flat[i].real if axis == 1.0 else g.flat[i].imag
                assert abs(a - fd) <= 1e-7 + 1e-5 * abs(fd), (name, i, axis, a, fd)


def seeded(d):
    return np.random.default_rng(np.random.SeedSequence(4, spawn_key=(0, d)))


@pytest.mark.parametrize("aggregation", ["mean_logits", "attention_pool"])
def test_document_bitwise_same_alone_and_in_batch_sharing_its_tokens(aggregation):
    cfg = model_cfg(aggregation=aggregation, dropout=0.3, qubits=3, embed_dim=6)
    lc = LossConfig(lambda_ps=0.3, lambda_l1=0.2, lambda_smooth=0.1, lambda_l2=0.1)
    p = init_params(cfg, 6, 2, seed=12)
    if p.attn_vec is not None:
        p.attn_vec.values[...] = np.linspace(-1, 1, p.attn_vec.shape[0])
    docs = repeated_docs(cfg)
    rngs = [seeded(d) for d in range(len(docs))]
    _, parts = document_loss(docs, p, cfg, lc, training=True, rng=rngs)
    batch = forward_document(docs, p, cfg, training=True,
                             rng=[seeded(d) for d in range(len(docs))])
    for d, doc in enumerate(docs):
        _, alone = document_loss(doc, p, cfg, lc, training=True, rng=seeded(d))
        assert parts[d] == alone, d
        one = forward_document(doc, p, cfg, training=True, rng=seeded(d))
        assert np.array_equal(batch.logits.values[d], one.logits.values), d


def test_template_calls_run_distinct_tokens_then_distinct_pairs(monkeypatch):
    rows = {"fwd": [], "vjp": []}
    original = mixer.ansatz_rows

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        rows["fwd"].append(out.shape[0])
        return out

    vjp = kernels.ansatz_rows_vjp

    def counting_vjp(out_arr, *args, **kwargs):
        rows["vjp"].append(out_arr.shape[0])
        return vjp(out_arr, *args, **kwargs)

    monkeypatch.setattr(mixer, "ansatz_rows", counting)
    monkeypatch.setattr(kernels, "ansatz_rows_vjp", counting_vjp)
    cfg = model_cfg(degree=3)
    p = init_params(cfg, 6, 2, seed=13)
    docs = repeated_docs(cfg)
    windows = [(ids, m) for d in docs for ids, m in d.windows]
    distinct = len({int(i) for ids, m in windows for i in ids[m]})
    pairs = sum(len(set(ids[m].tolist())) for ids, m in windows)
    positions = sum(int(m.sum()) for _, m in windows)
    assert distinct < pairs < positions
    with ad.Tape():
        loss, _ = document_loss(docs, p, cfg, LossConfig())
        ad.backward(loss)
    assert rows["fwd"] == [distinct, pairs, pairs]
    # the adjoint sweeps: the feed-forward template (one row per window),
    # then the token template's powers, last first
    assert rows["vjp"] == [len(windows), pairs, pairs, distinct]
