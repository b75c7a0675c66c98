"""Training loop: determinism, gradient batching, checkpoints, metrics."""

import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import qtmix.training as training
from qtmix import kernels
from qtmix.config import (DataConfig, ModelConfig, OptimizerConfig, RunConfig,
                          from_dict)
from qtmix.data import write_tsv
from qtmix.errors import DataIOError, InputError, LabelError, ParseError, TrainingDiverged
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


@pytest.mark.parametrize("aggregation", ["mean_logits", "attention_pool"])
def test_batch_gradients_of_real_groups_are_real(aggregation):
    # AdamW steps only the real half of a real parameter, so its gradient
    # must carry no imaginary part; dropout is on, as in training, and the
    # documents span several windows, so the attention scores matter
    cfg = tiny_cfg("/tmp/unused",
                   model=ModelConfig(qubits=3, window=4, stride=2, degree=2, embed_dim=8,
                                     embed_layers=1, ff_layers=1, hidden=8, dropout=0.3,
                                     aggregation=aggregation),
                   data=DataConfig(kind="synthetic", task="sentiment", size=40,
                                   data_seed=1, min_freq=1))
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    grads, _ = batch_gradients([(i, b.train[i]) for i in range(6)], params, cfg, epoch=1)
    named = params.named()
    real = sorted(name for name, t in named.items() if t.is_real)
    assert real == sorted(set(named) - {"lcu_coeffs", "poly_coeffs"})
    assert set(real) <= set(grads)
    for name in real:
        assert np.any(grads[name].real != 0), name
        assert not grads[name].imag.any(), name
    assert all(np.any(grads[name].imag != 0) for name in ("lcu_coeffs", "poly_coeffs"))


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


def test_batch_tape_freed_by_reference_counting(monkeypatch):
    cfg = tiny_cfg("/tmp/unused")
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    tapes = []

    class WatchedTape(training.Tape):
        def __enter__(self):
            tapes.append(weakref.ref(self))
            return super().__enter__()

    monkeypatch.setattr(training, "Tape", WatchedTape)
    gc.collect()
    gc.disable()
    try:
        grads, parts = batch_gradients([(i, b.train[i]) for i in range(4)], params, cfg,
                                       epoch=0)
        assert len(tapes) == 1
        assert tapes[0]() is None
    finally:
        gc.enable()
    assert grads and len(parts) == 4


def test_batch_operands_freed_by_reference_counting(monkeypatch):
    # the tape's vjp closures hold the batch's template operands; they go
    # with the tape, without the cyclic collector
    cfg = tiny_cfg("/tmp/unused")
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    holders = []
    original = kernels.TemplateOperands.__init__

    def watched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        holders.append(weakref.ref(self))

    monkeypatch.setattr(kernels.TemplateOperands, "__init__", watched)
    gc.collect()
    gc.disable()
    try:
        grads, parts = batch_gradients([(i, b.train[i]) for i in range(4)], params, cfg,
                                       epoch=0)
        assert len(holders) == 2        # the token and the feed-forward template
        assert all(ref() is None for ref in holders)
    finally:
        gc.enable()
    assert grads and len(parts) == 4


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


def test_evaluate_same_metrics_across_chunk_boundaries(monkeypatch):
    cfg = tiny_cfg("/tmp/unused", data=DataConfig(kind="synthetic", task="sentiment",
                                                 size=120, data_seed=2, min_freq=1),
                   model=ModelConfig(qubits=3, window=4, degree=2, embed_dim=8,
                                     embed_layers=1, ff_layers=1, hidden=8,
                                     stride=2, dropout=0.0))
    b = load_bundle(cfg)
    params = init_params(cfg.model, len(b.vocab), b.n_classes, cfg.seed)
    docs = b.train[:training.EVAL_CHUNK + 5]
    assert len({len(d.windows) for d in docs}) > 1
    whole = evaluate(docs, params, cfg.model)
    for chunk in (1, 3, 7, len(docs)):
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk)
        assert evaluate(docs, params, cfg.model) == whole, chunk


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


_TRAIN_SCRIPT = "import sys; from qtmix import cli; sys.exit(cli.main(['train', '--config', sys.argv[1]]))"


def test_train_artifacts_same_bytes_at_any_blas_thread_count(tmp_path):
    # 800 words over 64 documents of 40 tokens: a batch holds a few hundred
    # distinct tokens, enough for OpenBLAS to split a product that sums
    # over them across two threads
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(800)]
    paths = {}
    for split, n in (("train", 64), ("val", 8), ("test", 8)):
        paths[split] = str(tmp_path / f"{split}.tsv")
        write_tsv(paths[split], [(" ".join(rng.choice(words, 40)), i % 2) for i in range(n)])
    cfg = {"model": {"qubits": 4, "window": 16, "stride": 8, "degree": 2, "embed_dim": 32,
                     "embed_layers": 1, "ff_layers": 1, "hidden": 8,
                     "aggregation": "attention_pool"},
           "optimizer": {"epochs": 1, "batch_size": 32},
           "data": {"kind": "tsv", **paths, "min_freq": 1},
           "seed": 3, "out_dir": str(tmp_path / "run")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(training.__file__))
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _TRAIN_SCRIPT, str(tmp_path / "cfg.json")],
                       env=env, check=True, capture_output=True, timeout=300)
        artifacts.append([(tmp_path / "run" / name).read_bytes()
                          for name in ("metrics.jsonl", "checkpoint.json")])
    assert artifacts[0][0] == artifacts[1][0], "metrics.jsonl differs between 1 and 2 threads"
    assert artifacts[0][1] == artifacts[1][1], "checkpoint.json differs between 1 and 2 threads"


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

    def poisoned(batch, params, run_cfg, *, epoch):
        grads, parts = real(batch, params, run_cfg, epoch=epoch)
        for p in parts:
            p["total"] = float("nan")
        return grads, parts

    monkeypatch.setattr(training, "batch_gradients", poisoned)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg)
    diag = exc.value.diagnostics
    assert {"epoch", "batch", "step", "batch_loss", "mean_pre_norm"} <= set(diag)


def test_huge_learning_rate_diverges_with_metrics_kept(tmp_path):
    # the first update leaves parameters near 1e300: finite, but the next
    # forward overflows, and its NaN reaches the loss check
    out_dir = tmp_path / "big"
    cfg = tiny_cfg(out_dir, optimizer=OptimizerConfig(epochs=2, batch_size=8,
                                                      lr_max=1e300, lr_min=1e299))
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
        train(cfg)
    assert exc.value.diagnostics["step"] == 1
    records = [json.loads(line) for line in open(out_dir / "metrics.jsonl")]
    assert [r["record"] for r in records] == ["config"]
    assert not (out_dir / "checkpoint.json").exists()


def test_non_finite_parameter_after_update_diverges(tmp_path, monkeypatch):
    # a finite loss with an infinite gradient: the update makes head_b2 NaN
    real = training.batch_gradients

    def poisoned(batch, params, run_cfg, *, epoch):
        grads, parts = real(batch, params, run_cfg, epoch=epoch)
        if epoch == 1:
            grads["head_b2"] = np.full_like(grads["head_b2"], np.inf)
        return grads, parts

    monkeypatch.setattr(training, "batch_gradients", poisoned)
    out_dir = tmp_path / "p"
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="head_b2") as exc:
        train(tiny_cfg(out_dir))
    diag = exc.value.diagnostics
    batches = -(-len(load_bundle(tiny_cfg(out_dir)).train) // 8)    # steps in epoch 0
    assert diag["parameter"] == "head_b2"
    assert (diag["epoch"], diag["batch"], diag["step"]) == (1, 0, batches)
    records = [json.loads(line) for line in open(out_dir / "metrics.jsonl")]
    assert [r["record"] for r in records] == ["config", "epoch"]


@pytest.mark.parametrize("bad_epoch", [0, 1])
def test_diverged_run_keeps_metrics_of_finished_epochs(tmp_path, monkeypatch, bad_epoch):
    # metrics.jsonl keeps the config record and the epochs before the one
    # that diverges, as an undisturbed run writes them
    full = train(tiny_cfg(tmp_path / "full"))
    real = training.batch_gradients

    def poisoned(batch, params, run_cfg, *, epoch):
        grads, parts = real(batch, params, run_cfg, epoch=epoch)
        if epoch == bad_epoch:
            for p in parts:
                p["total"] = float("nan")
        return grads, parts

    monkeypatch.setattr(training, "batch_gradients", poisoned)
    out_dir = tmp_path / "d"
    with pytest.raises(TrainingDiverged):
        train(tiny_cfg(out_dir))
    got = normalized_records(out_dir / "metrics.jsonl")
    assert [json.loads(line)["record"] for line in got] == ["config"] + ["epoch"] * bad_epoch
    assert got == normalized_records(full.metrics_path)[:1 + bad_epoch]
    assert not (out_dir / "checkpoint.json").exists()


def test_run_stopped_by_any_error_keeps_config_record(tmp_path, monkeypatch):
    # an error that is not a QtmixError, in the first epoch, before any
    # epoch record exists
    def fail(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(training, "batch_gradients", fail)
    out_dir = tmp_path / "run"
    with pytest.raises(MemoryError):
        train(tiny_cfg(out_dir))
    records = [json.loads(line) for line in open(out_dir / "metrics.jsonl")]
    assert [r["record"] for r in records] == ["config"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["metrics.jsonl"]


def test_artifacts_replaced_whole_leaving_no_temp_files(tmp_path, monkeypatch):
    replaced = []
    real_replace = training.os.replace

    def watched(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(training.os, "replace", watched)
    out = train(tiny_cfg(tmp_path / "run"))
    # after each of the 2 epochs and with the final record; then the checkpoint
    assert replaced == ["metrics.jsonl"] * 3 + ["checkpoint.json"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
        ["checkpoint.json", "metrics.jsonl"]
    assert len(open(out.metrics_path).read().splitlines()) == 4


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(training.os, "replace", refuse)
    with pytest.raises(DataIOError, match="metrics.jsonl: disk full"):
        train(tiny_cfg(tmp_path / "run"))
    assert list((tmp_path / "run").iterdir()) == []


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


def test_checkpoint_with_worker_count_still_loads(tmp_path):
    out = train(tiny_cfg(tmp_path / "run", optimizer=OptimizerConfig(epochs=1)))
    payload = json.loads(open(out.checkpoint_path).read())
    payload["config"]["workers"] = 1          # as written before the pool was removed
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    cfg2, params2, _, _, _ = load_checkpoint(old)
    assert not hasattr(cfg2, "workers")
    for name, t in out.params.named().items():
        assert np.array_equal(t.values, params2.named()[name].values), name


@pytest.mark.parametrize("imag", [-0.0, 0.25])
def test_real_group_with_an_imaginary_part_round_trips_as_pairs(tmp_path, imag):
    # only a real group whose imaginary parts are all +0.0 is written as
    # float64; any other keeps every bit as (re, im) pairs
    cfg = tiny_cfg(tmp_path / "run", optimizer=OptimizerConfig(epochs=1))
    out = train(cfg)
    out.params.head_w1.values.imag[1, 2] = imag
    path = tmp_path / "ck.json"
    save_checkpoint(path, out.params, cfg, out.bundle.vocab, out.bundle.n_classes, {})
    stored = json.loads(path.read_text())["params"]
    assert "dtype" not in stored["head_w1"] and stored["head_w2"]["dtype"] == "<f8"
    _, params2, _, _, _ = load_checkpoint(path)
    for name, t in out.params.named().items():
        assert t.values.tobytes() == params2.named()[name].values.tobytes(), name
    assert params2.head_w2.is_real and not params2.head_w1.is_real


def test_checkpoint_rejects_unknown_format(tmp_path):
    p = tmp_path / "ck.json"
    p.write_text(json.dumps({"format": "other", "params": {}}))
    with pytest.raises(ParseError, match="unknown format"):
        load_checkpoint(p)


def test_checkpoint_rejects_complex_ff_angles(tmp_path):
    # the feed-forward angles are real; an imaginary part would be dropped,
    # loading a different model
    out = train(tiny_cfg(tmp_path / "run", optimizer=OptimizerConfig(epochs=1)))
    payload = json.loads(open(out.checkpoint_path).read())
    angles = training._decode_array(payload["params"]["ff_angles"])
    payload["params"]["ff_angles"] = training._encode_array(angles + 0.5j)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="parameter array 'ff_angles' must be real"):
        load_checkpoint(bad)


@pytest.mark.parametrize("name, value", [("head_w2", np.nan), ("lcu_coeffs", np.inf)])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, name, value):
    # train refuses a non-finite parameter; so does a checkpoint load
    out = train(tiny_cfg(tmp_path / "run", optimizer=OptimizerConfig(epochs=1)))
    payload = json.loads(open(out.checkpoint_path).read())
    arr = training._decode_array(payload["params"][name])
    arr.flat[1] = value
    payload["params"][name] = training._encode_array(arr)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=f"parameter array '{name}' is not finite"):
        load_checkpoint(bad)


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


def test_bench_tracer_reaches_every_wrapped_function(tmp_path, monkeypatch):
    # a traced bench run exits 1 when a function its tracer wraps is never
    # called; one small training run must reach all of them
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        train(tiny_cfg(tmp_path / "run"))
    finally:
        tracer.uninstall()
    assert tracer.never_called() == []
