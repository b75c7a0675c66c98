"""Training loop: determinism, gradient batching, checkpoints, metrics."""

import json

import numpy as np
import pytest

import qtmix.training as training
from qtmix.config import (DataConfig, ModelConfig, OptimizerConfig, RunConfig,
                          from_dict)
from qtmix.data import write_tsv
from qtmix.errors import InputError, LabelError, ParseError, TrainingDiverged
from qtmix.model import init_params
from qtmix.training import (batch_gradients, evaluate, load_bundle,
                            load_checkpoint, save_checkpoint, train)


def tiny_cfg(out_dir, **kw):
    base = dict(
        model=ModelConfig(qubits=3, window=6, degree=2, embed_dim=8,
                          embed_layers=1, ff_layers=1, hidden=8, dropout=0.1),
        optimizer=OptimizerConfig(epochs=2, batch_size=8, lr_max=3e-3),
        data=DataConfig(kind="synthetic", task="majority", size=80, data_seed=3),
        seed=5, out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base).validate()


def normalized_records(path):
    out = []
    for line in open(path):
        rec = json.loads(line)
        if rec["record"] == "config":
            rec["config"]["out_dir"] = "X"
            rec["config"]["workers"] = 0
        out.append(json.dumps(rec, sort_keys=True))
    return out


# ---------------------------------------------------------------------------
# data bundles
# ---------------------------------------------------------------------------

def test_load_bundle_synthetic():
    cfg = tiny_cfg("/tmp/unused")
    b = load_bundle(cfg)
    assert (len(b.train), len(b.val), len(b.test)) == (64, 8, 8)
    assert b.n_classes == 2
    assert "alpha" in b.vocab.token_to_id
    assert all(len(d.windows) == 1 for d in b.train)


def test_load_bundle_tsv(tmp_path):
    rows = [("alpha alpha beta", 0), ("beta beta alpha", 1)] * 6
    for name in ("train", "val", "test"):
        write_tsv(tmp_path / f"{name}.tsv", rows)
    cfg = tiny_cfg(tmp_path, data=DataConfig(
        kind="tsv", train=str(tmp_path / "train.tsv"),
        val=str(tmp_path / "val.tsv"), test=str(tmp_path / "test.tsv"),
        min_freq=1))
    b = load_bundle(cfg)
    assert len(b.train) == 12
    assert b.n_classes == 2


def test_load_bundle_single_class_rejected(tmp_path):
    rows = [("alpha beta", 0)] * 4
    for name in ("train", "val", "test"):
        write_tsv(tmp_path / f"{name}.tsv", rows)
    cfg = tiny_cfg(tmp_path, data=DataConfig(
        kind="tsv", train=str(tmp_path / "train.tsv"),
        val=str(tmp_path / "val.tsv"), test=str(tmp_path / "test.tsv")))
    with pytest.raises(LabelError, match="single class"):
        load_bundle(cfg)


# ---------------------------------------------------------------------------
# batch gradients
# ---------------------------------------------------------------------------

def test_batch_gradients_mean_of_single_docs():
    cfg = tiny_cfg("/tmp/unused")
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    docs = [(0, b.train[0]), (1, b.train[1])]
    both, _ = batch_gradients(docs, params, cfg, epoch=0)
    one_a, _ = batch_gradients(docs[:1], params, cfg, epoch=0)
    one_b, _ = batch_gradients(docs[1:], params, cfg, epoch=0)
    for name in both:
        expect = 0.5 * (one_a.get(name, 0) + one_b.get(name, 0))
        assert np.max(np.abs(both[name] - expect)) <= 1e-15, name


def test_batch_gradients_order_independent_merge():
    cfg = tiny_cfg("/tmp/unused")
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    fwd = [(i, b.train[i]) for i in range(4)]
    rev = list(reversed(fwd))
    ga, _ = batch_gradients(fwd, params, cfg, epoch=0)
    gb, _ = batch_gradients(rev, params, cfg, epoch=0)
    for name in ga:
        assert np.array_equal(ga[name], gb[name]), name


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_perfect_and_macro_metrics():
    cfg = tiny_cfg("/tmp/unused")
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    m = evaluate(b.val, params, cfg.model)
    assert set(m) == {"n", "accuracy", "macro_precision", "macro_recall",
                      "macro_f1"}
    assert m["n"] == len(b.val)
    assert 0.0 <= m["accuracy"] <= 1.0
    assert 0.0 <= m["macro_f1"] <= 1.0


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_train_writes_artifacts_and_learns(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", optimizer=OptimizerConfig(
        epochs=4, batch_size=8, lr_max=3e-3))
    out = train(cfg)
    assert len(out.history) == 4
    assert out.history[-1]["train_loss"] < out.history[0]["train_loss"]
    recs = [json.loads(l) for l in open(out.metrics_path)]
    assert recs[0]["record"] == "config"
    assert recs[0]["config"]["seed"] == 5
    assert [r["record"] for r in recs[1:-1]] == ["epoch"] * 4
    assert recs[-1]["record"] == "final"
    assert "test" in recs[-1]
    for r in recs:
        assert "wall" not in json.dumps(r)


def test_train_run_to_run_bitwise(tmp_path):
    a = train(tiny_cfg(tmp_path / "a"))
    b = train(tiny_cfg(tmp_path / "b"))
    assert normalized_records(a.metrics_path) == normalized_records(b.metrics_path)
    for name, t in a.params.named().items():
        assert np.array_equal(t.values, b.params.named()[name].values), name


def test_train_worker_count_invariant(tmp_path):
    a = train(tiny_cfg(tmp_path / "a"))
    b = train(tiny_cfg(tmp_path / "b", workers=4))
    assert normalized_records(a.metrics_path) == normalized_records(b.metrics_path)
    for name, t in a.params.named().items():
        assert np.array_equal(t.values, b.params.named()[name].values), name


def test_train_zero_epochs_reports_init_metrics(tmp_path):
    cfg = tiny_cfg(tmp_path / "z", optimizer=OptimizerConfig(epochs=0))
    out = train(cfg)
    assert out.history == []
    assert out.best_epoch == -1
    recs = [json.loads(l) for l in open(out.metrics_path)]
    assert [r["record"] for r in recs] == ["config", "final"]
    assert 0.0 <= recs[-1]["test"]["accuracy"] <= 1.0


@pytest.mark.parametrize("epochs", [1, 2])
def test_train_evaluates_once_per_epoch_plus_test(tmp_path, monkeypatch, epochs):
    calls = []
    real = training.evaluate

    def counted(docs, *args, **kwargs):
        calls.append(len(docs))
        return real(docs, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate", counted)
    out = train(tiny_cfg(tmp_path / "e", optimizer=OptimizerConfig(epochs=epochs)))
    assert len(calls) == epochs + 1
    assert calls[-1] == len(out.bundle.test)


def test_train_divergence_raises_with_diagnostics(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "d")
    real = training.batch_gradients

    def poisoned(batch, params, run_cfg, *, epoch, pool=None):
        grads, parts = real(batch, params, run_cfg, epoch=epoch, pool=pool)
        for p in parts:
            p["total"] = float("nan")
        return grads, parts

    monkeypatch.setattr(training, "batch_gradients", poisoned)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg)
    diag = exc.value.diagnostics
    assert {"epoch", "batch", "step", "batch_loss", "mean_pre_norm"} <= set(diag)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    out = train(tiny_cfg(tmp_path / "run"))
    cfg2, params2, vocab2, n_classes2, progress = load_checkpoint(out.checkpoint_path)
    for name, t in out.params.named().items():
        assert np.array_equal(t.values, params2.named()[name].values), name
    assert n_classes2 == 2
    assert vocab2.token_to_id == out.bundle.vocab.token_to_id
    assert progress["best_epoch"] == out.best_epoch
    # the reloaded model scores identically
    m = evaluate(out.bundle.test, params2, cfg2.model)
    assert m == out.test


def test_checkpoint_rejects_unknown_format(tmp_path):
    p = tmp_path / "ck.json"
    p.write_text(json.dumps({"format": "other", "params": {}}))
    with pytest.raises(ParseError, match="unknown format"):
        load_checkpoint(p)


def test_checkpoint_attention_variant_round_trip(tmp_path):
    cfg = tiny_cfg(tmp_path / "run",
                   model=ModelConfig(qubits=3, window=4, degree=2, embed_dim=8,
                                     embed_layers=1, ff_layers=1, hidden=8,
                                     dropout=0.0, stride=2,
                                     aggregation="attention_pool"),
                   optimizer=OptimizerConfig(epochs=1, batch_size=8),
                   data=DataConfig(kind="synthetic", task="sentiment", size=40,
                                   data_seed=1, min_freq=1))
    out = train(cfg)
    _, params2, _, _, _ = load_checkpoint(out.checkpoint_path)
    assert params2.attn_vec is not None
    assert np.array_equal(out.params.attn_vec.values, params2.attn_vec.values)
