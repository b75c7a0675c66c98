"""Training loop, evaluation, checkpoints, and metrics files.

Gradients are computed per document on an isolated tape and merged in
dataset-index order, so the result is bit-identical no matter how many
workers run the batch. Dropout draws come from per-(epoch, document)
seed sequences for the same reason. Metrics records carry no wall-clock
fields: two runs with the same config and seed must produce identical
files.
"""

from __future__ import annotations

import base64
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from .autodiff import Tape, backward, parameter
from .circuits import AnsatzAngles
from .config import RunConfig, from_dict as config_from_dict
from .data import Document, Vocab
from .errors import DataIOError, InputError, LabelError, ParseError, TrainingDiverged
from .mixer import MixerParams
from .model import Params, document_loss, forward_document, init_params
from .optim import AdamW, cosine_lr

CHECKPOINT_FORMAT = "qtmix-checkpoint-v1"


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


def _one_doc(doc: Document, doc_index: int, params: Params, cfg: RunConfig,
             name_by_id: dict, epoch: int) -> tuple[dict, dict]:
    rng = _doc_rng(cfg.seed, epoch, doc_index)
    with Tape():
        loss, parts = document_loss(doc, params, cfg.model, cfg.loss,
                                    training=True, rng=rng)
        raw = backward(loss, populate_leaves=False)
    grads = {}
    for tns, g in raw.items():
        name = name_by_id.get(id(tns))
        if name is not None:
            grads[name] = g
    return grads, parts


def batch_gradients(batch: list, params: Params, cfg: RunConfig, *,
                    epoch: int, pool: ThreadPoolExecutor | None = None
                    ) -> tuple[dict, list]:
    """Mean gradient over a batch of (dataset_index, Document) pairs.

    Per-document results are merged in dataset-index order regardless of
    which worker produced them, keeping the sum bit-reproducible.
    """
    name_by_id = {id(t): n for n, t in params.named().items()}
    ordered = sorted(batch, key=lambda pair: pair[0])
    jobs = [(doc, idx) for idx, doc in ordered]
    if pool is None:
        results = [_one_doc(doc, idx, params, cfg, name_by_id, epoch)
                   for doc, idx in jobs]
    else:
        results = list(pool.map(
            lambda job: _one_doc(job[0], job[1], params, cfg, name_by_id, epoch),
            jobs))
    scale = 1.0 / len(jobs)
    merged: dict[str, np.ndarray] = {}
    for grads, _ in results:
        for name, g in grads.items():
            if name in merged:
                merged[name] = merged[name] + g
            else:
                merged[name] = g.copy()
    for name in merged:
        merged[name] *= scale
    return merged, [parts for _, parts in results]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def predict(doc: Document, params: Params, model_cfg) -> int:
    result = forward_document(doc, params, model_cfg, training=False)
    return int(np.argmax(result.logits.values.real))


def evaluate(docs: list, params: Params, model_cfg) -> dict:
    """Accuracy plus macro-averaged precision/recall/F1 over all classes."""
    n_classes = params.head_b2.shape[0]
    tp = np.zeros(n_classes)
    fp = np.zeros(n_classes)
    fn = np.zeros(n_classes)
    correct = 0
    for doc in docs:
        pred = predict(doc, params, model_cfg)
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
    c = np.ascontiguousarray(arr, dtype="<c16")
    return {"shape": list(c.shape),
            "data": base64.b64encode(c.view("<f8").tobytes()).decode("ascii")}


def _decode_array(payload: dict) -> np.ndarray:
    shape = tuple(payload["shape"])
    flat = np.frombuffer(base64.b64decode(payload["data"]), dtype="<f8").copy()
    pairs = flat.reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape)


def save_checkpoint(path: str | Path, params: Params, cfg: RunConfig,
                    vocab: Vocab, n_classes: int, progress: dict) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "n_classes": n_classes,
        "vocab": vocab.to_dict(),
        "progress": progress,
        "params": {name: _encode_array(t.values)
                   for name, t in params.named().items()},
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> tuple[RunConfig, Params, Vocab, int, dict]:
    p = Path(path)
    try:
        payload = json.loads(p.read_text())
    except OSError as e:
        raise DataIOError(f"cannot read checkpoint {p}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"checkpoint {p} is not valid JSON: {e}") from e
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"checkpoint {p}: unknown format {payload.get('format')!r}")
    cfg = config_from_dict(payload["config"])
    vocab = Vocab.from_dict(payload["vocab"])
    n_classes = int(payload["n_classes"])
    arrays = {name: _decode_array(rec) for name, rec in payload["params"].items()}
    mc = cfg.model
    mixer = MixerParams(
        lcu_coeffs=parameter(arrays["lcu_coeffs"]),
        poly_coeffs=parameter(arrays["poly_coeffs"]),
        ff_angles=AnsatzAngles(parameter(arrays["ff_angles"].real), q=mc.qubits,
                               layers=mc.ff_layers),
    )
    attn = parameter(arrays["attn_vec"]) if "attn_vec" in arrays else None
    params = Params(
        embed_table=parameter(arrays["embed_table"]),
        embed_proj=parameter(arrays["embed_proj"]),
        mixer=mixer,
        head_w1=parameter(arrays["head_w1"]),
        head_b1=parameter(arrays["head_b1"]),
        head_w2=parameter(arrays["head_w2"]),
        head_b2=parameter(arrays["head_b2"]),
        attn_vec=attn,
    )
    return cfg, params, vocab, n_classes, payload.get("progress", {})


def _snapshot(params: Params) -> dict:
    return {name: t.values.copy() for name, t in params.named().items()}


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
    under cfg.out_dir."""
    say = log if log is not None else (lambda *_: None)
    bundle = load_bundle(cfg)
    params = init_params(cfg.model, len(bundle.vocab), bundle.n_classes, cfg.seed)
    opt = AdamW(params.named(), cfg.optimizer)

    n_train = len(bundle.train)
    bs = cfg.optimizer.batch_size
    batches_per_epoch = math.ceil(n_train / bs)
    total_steps = max(cfg.optimizer.epochs * batches_per_epoch, 1)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "checkpoint.json"
    records = [{"record": "config", "config": cfg.to_dict(),
                "n_classes": bundle.n_classes, "vocab_size": len(bundle.vocab),
                "train_docs": n_train, "val_docs": len(bundle.val),
                "test_docs": len(bundle.test)}]

    pool = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None
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
                grads, parts = batch_gradients(batch, params, cfg,
                                               epoch=epoch, pool=pool)
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
            if val["accuracy"] > best_val.get("accuracy", -1.0) or best_epoch < 0:
                best_epoch = epoch
                best_val = val
                best_arrays = _snapshot(params)
            say(f"epoch {epoch}: loss {means['total']:.4f} "
                f"val_acc {val['accuracy']:.4f} "
                f"pre_norm {means['mean_pre_norm']:.4f} "
                f"({time.perf_counter() - t_start:.1f}s)")
    finally:
        if pool is not None:
            pool.shutdown()

    if best_arrays is not None:
        _restore(params, best_arrays)
    test = evaluate(bundle.test, params, cfg.model)
    records.append({"record": "final", "best_epoch": best_epoch,
                    "best_val": best_val, "test": test,
                    "epochs_run": cfg.optimizer.epochs})
    with open(metrics_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
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
