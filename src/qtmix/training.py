"""Training loop, evaluation, checkpoints, and metrics files.

A training batch is one forward pass on one tape: every window of the
batch's documents, in dataset-index order, then one backward pass from
the mean of the per-document losses. Dropout draws come from
per-(epoch, document) seed sequences, so a document's draws, and with
them its loss, do not depend on the batch it lands in. Evaluation makes
eager passes over chunks of ``EVAL_CHUNK`` documents; a document's logits
are bitwise the same in any chunk. Metrics records carry no wall-clock
fields: two runs with the same config and seed must produce identical
files.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from .autodiff import Tape, Tensor, backward, parameter
from .circuits import AnsatzAngles
from .config import RunConfig, from_dict as config_from_dict
from .data import Vocab
from .errors import (ConfigError, DataIOError, InputError, LabelError, ParseError,
                     TrainingDiverged)
from .mixer import MixerParams
from .model import Params, document_loss, forward_document, init_params, param_shapes
from .optim import AdamW, cosine_lr

CHECKPOINT_FORMAT = "qtmix-checkpoint-v1"
# documents per evaluation pass: small enough that an eager pass allocates
# no more than a training step does on the q=4 majority task (batch 16)
EVAL_CHUNK = 16


@dataclass
class DataBundle:
    train: list
    val: list
    test: list
    vocab: Vocab
    n_classes: int


def _require_windows(docs: list, split: str) -> None:
    empty = [i for i, d in enumerate(docs) if not d.windows]
    if empty:
        shown = ", ".join(str(i) for i in empty[:10])
        raise InputError(
            f"{split} split has document(s) with no tokens at index(es) {shown}; "
            "remove them or fix the source rows")


def load_bundle(cfg: RunConfig) -> DataBundle:
    d = cfg.data
    if d.kind == "tsv":
        rows_train = datamod.load_tsv(d.train)
        rows_val = datamod.load_tsv(d.val)
        rows_test = datamod.load_tsv(d.test)
    elif d.task == "majority":
        rows_train, rows_val, rows_test = datamod.synth_majority(
            d.data_seed, d.size, cfg.model.window, d.distractor_vocab)
    else:
        rows_train, rows_val, rows_test = datamod.synth_sentiment(d.data_seed, d.size)

    if not rows_train or not rows_val or not rows_test:
        raise InputError("every split needs at least one document")
    vocab = Vocab.build([datamod.tokenize(t) for t, _ in rows_train],
                        min_freq=d.min_freq, max_vocab=d.max_vocab)
    labels = [lab for rows in (rows_train, rows_val, rows_test) for _, lab in rows]
    n_classes = max(labels) + 1
    if n_classes < 2:
        raise LabelError("corpus has a single class; nothing to classify")
    stride = cfg.model.effective_stride
    out = DataBundle(
        train=datamod.build_documents(rows_train, vocab, cfg.model.window, stride),
        val=datamod.build_documents(rows_val, vocab, cfg.model.window, stride),
        test=datamod.build_documents(rows_test, vocab, cfg.model.window, stride),
        vocab=vocab, n_classes=n_classes)
    _require_windows(out.train, "train")
    _require_windows(out.val, "val")
    _require_windows(out.test, "test")
    return out


# ---------------------------------------------------------------------------
# gradient batches
# ---------------------------------------------------------------------------

def _doc_rng(seed: int, epoch: int, doc_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(epoch, doc_index)))


def batch_gradients(batch: list, params: Params, cfg: RunConfig, *,
                    epoch: int) -> tuple[dict, list]:
    """Mean gradient over a batch of (dataset_index, Document) pairs, and
    the per-document loss breakdowns in dataset-index order.

    The batch runs in dataset-index order whatever order it is given in,
    so the result is bit-reproducible.
    """
    ordered = sorted(batch, key=lambda pair: pair[0])
    indices = [idx for idx, _ in ordered]
    rngs = [_doc_rng(cfg.seed, epoch, idx) for idx in indices]
    with Tape():
        loss, parts = document_loss([doc for _, doc in ordered], params, cfg.model,
                                    cfg.loss, training=True, rng=rngs, doc_ids=indices)
        raw = backward(loss, populate_leaves=False)
    by_id = {id(t): g for t, g in raw.items()}
    grads = {name: by_id[id(t)] for name, t in params.named().items() if id(t) in by_id}
    return grads, parts


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(docs: list, params: Params, model_cfg) -> dict:
    """Accuracy plus macro-averaged precision/recall/F1 over all classes,
    from eager forward passes over chunks of ``EVAL_CHUNK`` documents."""
    n_classes = params.head_b2.shape[0]
    tp = np.zeros(n_classes)
    fp = np.zeros(n_classes)
    fn = np.zeros(n_classes)
    correct = 0
    for start in range(0, len(docs), EVAL_CHUNK):
        chunk = docs[start:start + EVAL_CHUNK]
        result = forward_document(chunk, params, model_cfg, training=False,
                                  doc_ids=range(start, start + len(chunk)))
        preds = np.argmax(result.logits.values.real, axis=1)
        for doc, pred in zip(chunk, preds):
            if pred == doc.label:
                correct += 1
                tp[pred] += 1
            else:
                fp[pred] += 1
                fn[doc.label] += 1
    prec = np.divide(tp, tp + fp, out=np.zeros(n_classes), where=(tp + fp) > 0)
    rec = np.divide(tp, tp + fn, out=np.zeros(n_classes), where=(tp + fn) > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(n_classes),
                   where=(prec + rec) > 0)
    return {
        "n": len(docs),
        "accuracy": correct / len(docs) if docs else 0.0,
        "macro_precision": float(prec.mean()),
        "macro_recall": float(rec.mean()),
        "macro_f1": float(f1.mean()),
    }


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _encode_array(arr: np.ndarray) -> dict:
    """A float64 array with its dtype tag, any other as untagged (re, im) pairs."""
    tag = {"dtype": "<f8"} if arr.dtype == np.float64 else {}
    c = np.ascontiguousarray(arr, dtype="<f8" if tag else "<c16")
    return {"shape": list(c.shape), **tag, "data": base64.b64encode(c).decode("ascii")}


def _stored(t: Tensor) -> np.ndarray:
    """A real parameter whose imaginary parts are all +0.0 (all bits zero)
    as its real half; any other array as it is."""
    real = t.is_real and not t.values.imag.view(np.uint64).any()
    return t.values.real if real else t.values


def _decode_array(payload: dict) -> np.ndarray:
    # the bytes are read back as stored, not recombined with arithmetic, so
    # every value (-0.0, inf and NaN too) round-trips bitwise; an untagged
    # array is (re, im) pairs, as every array was before the tag existed
    shape = tuple(payload["shape"])
    dtype = payload.get("dtype", "<c16")
    if dtype not in ("<f8", "<c16"):
        raise ValueError(f"unknown dtype {dtype!r}")
    flat = np.frombuffer(base64.b64decode(payload["data"]), dtype=dtype)
    return flat.astype(dtype[1:]).reshape(shape)


def save_checkpoint(path: str | Path, params: Params, cfg: RunConfig,
                    vocab: Vocab, n_classes: int, progress: dict) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "n_classes": n_classes,
        "vocab": vocab.to_dict(),
        "progress": progress,
        "params": {name: _encode_array(_stored(t)) for name, t in params.named().items()},
    }
    _write_atomic(Path(path), json.dumps(payload))


def load_checkpoint(path: str | Path) -> tuple[RunConfig, Params, Vocab, int, dict]:
    """Read a checkpoint; any departure from the written schema is a
    ``ParseError`` naming the key or parameter array at fault."""
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except OSError as e:
        raise DataIOError(f"cannot read checkpoint {p}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"checkpoint {p} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"checkpoint {p} is not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise ParseError(f"checkpoint {p}: the root must be an object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"checkpoint {p}: unknown format {payload.get('format')!r}")
    for key, kind in (("config", dict), ("vocab", dict), ("n_classes", int), ("params", dict)):
        if not isinstance(payload.get(key), kind):
            raise ParseError(f"checkpoint {p}: key '{key}' is missing or not "
                             f"{'an object' if kind is dict else 'an integer'}")
    saved = dict(payload["config"])
    # checkpoints written before the worker pool was removed carry its count
    saved.pop("workers", None)
    try:
        cfg = config_from_dict(saved)
    except ConfigError as e:
        raise ParseError(f"checkpoint {p}: key 'config' is invalid: {e}") from e
    table = payload["vocab"].get("token_to_id")
    ids = sorted(i for i in table.values() if type(i) is int) if isinstance(table, dict) else None
    if ids is None or ids != list(range(2, len(table) + 2)):
        raise ParseError(f"checkpoint {p}: key 'vocab.token_to_id' must map tokens to ids 2..n+1")
    vocab = Vocab.from_dict(payload["vocab"])
    n_classes = payload["n_classes"]
    shapes = param_shapes(cfg.model, len(vocab), n_classes)
    odd = sorted(set(shapes) ^ set(payload["params"]))
    if odd:
        raise ParseError(f"checkpoint {p}: parameter array '{odd[0]}' is "
                         f"{'missing' if odd[0] in shapes else 'not part of this model'}")
    t = {}
    for name, shape in shapes.items():
        try:
            arr = _decode_array(payload["params"][name])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"checkpoint {p}: parameter array '{name}' is malformed: {e!r}") from e
        if arr.shape != shape:
            raise ParseError(f"checkpoint {p}: parameter array '{name}' has shape "
                             f"{arr.shape}, its config needs {shape}")
        if name == "ff_angles" and np.any(arr.imag != 0):
            raise ParseError(f"checkpoint {p}: parameter array '{name}' must be real")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ParseError(f"checkpoint {p}: parameter array '{name}' is not finite")
        # a float64 array builds a real parameter; ff_angles is real even as pairs
        t[name] = parameter(arr.real if name == "ff_angles" else arr)
    mc = cfg.model
    mixer = MixerParams(t.pop("lcu_coeffs"), t.pop("poly_coeffs"),
                        AnsatzAngles(t.pop("ff_angles"), q=mc.qubits, layers=mc.ff_layers))
    return cfg, Params(mixer=mixer, **t), vocab, n_classes, payload.get("progress", {})


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory, through a temp
    file in that directory and ``os.replace``, so a process that stops
    mid-write never leaves a partial ``path``; a path that cannot be
    written is a ``DataIOError`` naming it. The file is not synced to disk:
    after a power loss or an OS crash it may still be lost or truncated."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as e:
        raise DataIOError(f"cannot write {path}: {e.strerror or e}") from e


def _write_metrics(path: Path, records: list) -> None:
    _write_atomic(path, "".join(json.dumps(rec) + "\n" for rec in records))


def _snapshot(params: Params) -> dict:
    return {name: _stored(t).copy() for name, t in params.named().items()}


def _restore(params: Params, arrays: dict) -> None:
    for name, t in params.named().items():
        t.values[...] = arrays[name]


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

@dataclass
class TrainOutcome:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val: dict = field(default_factory=dict)
    test: dict = field(default_factory=dict)
    checkpoint_path: str = ""
    metrics_path: str = ""
    params: Params | None = None
    bundle: DataBundle | None = None


def train(cfg: RunConfig, log=None) -> TrainOutcome:
    """Full run: load data, optimize, track the best validation epoch,
    evaluate that model on test, write metrics.jsonl and checkpoint.json
    under cfg.out_dir.

    metrics.jsonl is rewritten after every epoch, and when any exception
    or an interrupt stops the run, so a failed run keeps the config record
    and the records of the epochs it finished. Both files are replaced
    whole, never written in place (see ``_write_atomic``)."""
    say = log if log is not None else (lambda *_: None)
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataIOError(f"cannot create output directory {out_dir}: "
                          f"{e.strerror or e}") from e
    bundle = load_bundle(cfg)
    params = init_params(cfg.model, len(bundle.vocab), bundle.n_classes, cfg.seed)
    opt = AdamW(params.named(), cfg.optimizer)

    n_train = len(bundle.train)
    bs = cfg.optimizer.batch_size
    batches_per_epoch = math.ceil(n_train / bs)
    total_steps = max(cfg.optimizer.epochs * batches_per_epoch, 1)

    metrics_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "checkpoint.json"
    records = [{"record": "config", "config": cfg.to_dict(),
                "n_classes": bundle.n_classes, "vocab_size": len(bundle.vocab),
                "train_docs": n_train, "val_docs": len(bundle.val),
                "test_docs": len(bundle.test)}]

    history = []
    best_epoch = -1
    best_arrays = None
    # epoch 0 always becomes the best so far, so the initial model is
    # evaluated only when no epoch runs
    best_val = evaluate(bundle.val, params, cfg.model) if cfg.optimizer.epochs == 0 else {}
    step = 0
    try:
        for epoch in range(cfg.optimizer.epochs):
            t_start = time.perf_counter()
            order = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(epoch,))
            ).permutation(n_train)
            sums = {"total": 0.0, "ce": 0.0, "psr": 0.0, "l1c": 0.0,
                    "smooth": 0.0, "l2": 0.0, "mean_pre_norm": 0.0}
            last_lr = 0.0
            for b in range(batches_per_epoch):
                chunk = order[b * bs:(b + 1) * bs]
                batch = [(int(i), bundle.train[int(i)]) for i in chunk]
                grads, parts = batch_gradients(batch, params, cfg, epoch=epoch)
                batch_loss = float(np.mean([p["total"] for p in parts]))
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} batch {b}",
                        diagnostics={
                            "epoch": epoch, "batch": b, "step": step,
                            "batch_loss": batch_loss,
                            "mean_pre_norm": float(np.mean(
                                [p["mean_pre_norm"] for p in parts])),
                        })
                last_lr = cosine_lr(step, total_steps,
                                    cfg.optimizer.lr_max, cfg.optimizer.lr_min)
                opt.step(grads, last_lr)
                bad = next((name for name, t in params.named().items()
                            if not np.isfinite(t.values.view(np.float64)).all()), None)
                if bad is not None:
                    raise TrainingDiverged(
                        f"non-finite parameter '{bad}' after the update at epoch "
                        f"{epoch} batch {b}",
                        diagnostics={"epoch": epoch, "batch": b, "step": step,
                                     "parameter": bad, "lr": last_lr})
                step += 1
                for key in sums:
                    sums[key] += float(np.sum([p[key] for p in parts]))
            means = {k: v / n_train for k, v in sums.items()}
            val = evaluate(bundle.val, params, cfg.model)
            rec = {"record": "epoch", "epoch": epoch,
                   "train_loss": means["total"],
                   "loss_parts": {k: means[k] for k in
                                  ("ce", "psr", "l1c", "smooth", "l2")},
                   "mean_pre_norm": means["mean_pre_norm"],
                   "lr": last_lr, "val": val}
            records.append(rec)
            history.append(rec)
            _write_metrics(metrics_path, records)
            if val["accuracy"] > best_val.get("accuracy", -1.0) or best_epoch < 0:
                best_epoch = epoch
                best_val = val
                best_arrays = _snapshot(params)
            say(f"epoch {epoch}: loss {means['total']:.4f} "
                f"val_acc {val['accuracy']:.4f} "
                f"pre_norm {means['mean_pre_norm']:.4f} "
                f"({time.perf_counter() - t_start:.1f}s)")
    except BaseException:
        # a failed rewrite must not hide the error that stopped the run
        with contextlib.suppress(DataIOError):
            _write_metrics(metrics_path, records)
        raise

    if best_arrays is not None:
        _restore(params, best_arrays)
    test = evaluate(bundle.test, params, cfg.model)
    records.append({"record": "final", "best_epoch": best_epoch,
                    "best_val": best_val, "test": test,
                    "epochs_run": cfg.optimizer.epochs})
    _write_metrics(metrics_path, records)
    save_checkpoint(ckpt_path, params, cfg, bundle.vocab, bundle.n_classes,
                    progress={"epochs_run": cfg.optimizer.epochs,
                              "global_step": step, "best_epoch": best_epoch,
                              "best_val_accuracy": best_val.get("accuracy", 0.0)})
    say(f"best epoch {best_epoch} val_acc {best_val.get('accuracy', 0.0):.4f} "
        f"test_acc {test['accuracy']:.4f}")
    return TrainOutcome(history=history, best_epoch=best_epoch, best_val=best_val,
                        test=test, checkpoint_path=str(ckpt_path),
                        metrics_path=str(metrics_path), params=params,
                        bundle=bundle)
