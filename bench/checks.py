"""Output checks of a finished round, run outside the timed section.

Each ``check_*`` function compares outputs and returns a list of failure
messages, empty when the outputs pass; ``run_checks`` computes the outputs
of a round and applies every check. The references are the dense
state-vector model in ``reference.py``, central differences and the
method's own properties, never a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qtmix import autodiff as ad
from qtmix import training
from qtmix.mixer import COLLAPSE_THRESHOLD, mix_window
from qtmix.model import document_loss

from reference import Register

DENSE_TOL = 1e-9        # |program - dense reference|, features and weights
DENSE_RTOL = 1e-9       # relative, pre_norm
L1_TOL = 1e-12          # |sum |b_j| - 1|
BLOCH_TOL = 1e-12       # slack on Bloch vector length <= 1
FD_STEP = 1e-6          # central-difference step along a unit-per-group direction
FD_RTOL = 1e-6          # relative to the sum of |per-group directional derivatives|
FD_ATOL = 1e-9
PROPERTY_DOCS = 8       # test documents whose windows are checked


# --- comparisons -------------------------------------------------------------

def check_dense(where: str, program: dict, reference: dict) -> list[str]:
    """Program window outputs against the dense reference."""
    out = []
    err = float(np.max(np.abs(program["features"] - reference["features"])))
    if not err <= DENSE_TOL:
        out.append(f"{where}: features differ from the dense reference by {err:.3e}")
    err = float(np.max(np.abs(program["weights"] - reference["weights"])))
    if not err <= DENSE_TOL:
        out.append(f"{where}: mixing weights differ from the dense reference by {err:.3e}")
    rel = abs(program["pre_norm"] - reference["pre_norm"]) / abs(reference["pre_norm"])
    if not rel <= DENSE_RTOL:
        out.append(f"{where}: pre_norm differs from the dense reference by {rel:.3e} (relative)")
    return out


def check_window_properties(where: str, window: dict, q: int) -> list[str]:
    """l1-normalised weights, Bloch vectors inside the ball, no collapse."""
    out = []
    dev = abs(float(np.abs(window["weights"]).sum()) - 1.0)
    if not dev <= L1_TOL:
        out.append(f"{where}: sum of |mixing weights| is 1 {dev:+.3e}")
    feats = window["features"]
    lengths = np.sqrt(feats[:q] ** 2 + feats[q:2 * q] ** 2 + feats[2 * q:] ** 2)
    if not np.all(lengths <= 1.0 + BLOCH_TOL):
        out.append(f"{where}: Bloch vector of length {lengths.max():.15f} > 1")
    if not window["pre_norm"] > COLLAPSE_THRESHOLD:
        out.append(f"{where}: pre_norm {window['pre_norm']:.3e} not above "
                   f"COLLAPSE_THRESHOLD {COLLAPSE_THRESHOLD}")
    return out


def check_directional_derivative(analytic: list[float], finite_diff: float) -> list[str]:
    """``analytic`` holds one directional derivative per parameter group."""
    total = sum(analytic)
    tol = FD_ATOL + FD_RTOL * sum(abs(a) for a in analytic)
    if not abs(total - finite_diff) <= tol:
        return [f"directional derivative: analytic {total:.12e} vs central "
                f"difference {finite_diff:.12e} (tolerance {tol:.1e})"]
    return []


def check_metrics_file(lines: list[str]) -> list[str]:
    """Every number in metrics.jsonl, every loss included, is finite."""
    out = []

    def walk(value, path):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{path}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, f"{path}[{i}]")
        elif isinstance(value, float) and not math.isfinite(value):
            out.append(f"metrics.jsonl: {path} is {value}")

    for i, line in enumerate(lines):
        walk(json.loads(line), f"line {i + 1}")
    return out


def check_checkpoint(saved: dict, loaded: dict, test: dict, reloaded_test: dict) -> list[str]:
    """Parameters restored bitwise, and the loaded model's test metrics equal."""
    out = []
    if sorted(saved) != sorted(loaded):
        out.append(f"checkpoint: parameters {sorted(loaded)} differ from {sorted(saved)}")
    for name in sorted(set(saved) & set(loaded)):
        a, b = saved[name], loaded[name]
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            out.append(f"checkpoint: parameter {name} is not restored bitwise")
    if reloaded_test != test:
        out.append(f"checkpoint: test metrics after loading {reloaded_test} != {test}")
    return out


def check_accuracy(test: dict, floor: float | None) -> list[str]:
    if floor is not None and not test["accuracy"] >= floor:
        return [f"test accuracy {test['accuracy']:.4f} below the floor {floor}"]
    return []


# --- program outputs -----------------------------------------------------------

def window_outputs(doc, w: int, params, model_cfg) -> dict:
    """The program's features, pre_norm and weights for window ``w`` of ``doc``."""
    ids, mask = doc.windows[w]
    theta = params.embed_table.values[ids] @ params.embed_proj.values.T
    out = mix_window(ad.tensor(theta), params.mixer, mask, q=model_cfg.qubits,
                     embed_layers=model_cfg.embed_layers, window_id=w,
                     normalize_lcu=model_cfg.normalize_lcu)
    return {"theta": theta.real, "mask": mask,
            "features": out.features.values.real,
            "pre_norm": float(out.pre_norm.values.real),
            "weights": out.lcu_weights.values}


def dense_reference(register: Register, window: dict, params, model_cfg) -> dict:
    mx = params.mixer
    return register.mix_window(window["theta"], window["mask"], mx.lcu_coeffs.values,
                               mx.poly_coeffs.values, mx.ff_angles.theta.values.real,
                               embed_layers=model_cfg.embed_layers,
                               ff_layers=model_cfg.ff_layers,
                               normalize=model_cfg.normalize_lcu)


def group_directions(params, rng: np.random.Generator) -> dict:
    """A random unit direction in each parameter group; complex where the
    group holds complex values, real where it is real-constrained."""
    out = {}
    for name, t in params.named().items():
        d = rng.standard_normal(t.shape).astype(complex)
        if np.any(t.values.imag != 0.0):
            d = d + 1j * rng.standard_normal(t.shape)
        out[name] = d / np.linalg.norm(d)
    return out


def directional_derivatives(doc, doc_index: int, params, cfg, directions: dict
                            ) -> tuple[dict, float]:
    """Analytic derivative of ``document_loss`` along each group's direction,
    and the central difference along their sum, with the dropout draws of
    (epoch 0, ``doc_index``) fixed for every evaluation."""
    named = params.named()

    def rng():
        return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, doc_index)))

    with ad.Tape():
        loss, _ = document_loss(doc, params, cfg.model, cfg.loss, training=True, rng=rng())
        grads = ad.backward(loss, populate_leaves=False)
    by_tensor = {id(t): g for t, g in grads.items()}
    analytic = {name: float(np.sum(np.conj(by_tensor.get(id(t), 0.0)) * directions[name]).real)
                for name, t in named.items()}

    def loss_at(step: float) -> float:
        saved = {name: t.values.copy() for name, t in named.items()}
        try:
            for name, t in named.items():
                t.values += step * directions[name]
            value, _ = document_loss(doc, params, cfg.model, cfg.loss, training=True, rng=rng())
            return value.real_item()
        finally:
            for name, t in named.items():
                t.values[...] = saved[name]

    fd = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
    return analytic, fd


@dataclass
class CheckReport:
    failures: list = field(default_factory=list)
    docs: int = 0                   # documents the checks ran the program on
    checkpoint_load_s: float = 0.0
    checkpoint_bytes: int = 0
    dense_err: float = 0.0          # largest |program - reference| feature difference
    fd_err: float = 0.0             # |analytic - central difference|


def run_checks(outcome, cfg, workload, seed: int) -> CheckReport:
    report = CheckReport()
    fail = report.failures.extend
    params, bundle, mc = outcome.params, outcome.bundle, cfg.model
    rng = random.Random(seed)

    # every window of a seeded sample of test documents: properties; a
    # seeded sample of those windows: the dense reference
    docs = sorted(rng.sample(range(len(bundle.test)), min(PROPERTY_DOCS, len(bundle.test))))
    windows = [(d, w) for d in docs for w in range(len(bundle.test[d].windows))]
    sample = set(rng.sample(windows, min(workload.dense_windows, len(windows))))
    register = Register(mc.qubits)
    for d, w in windows:
        where = f"test doc {d} window {w}"
        window = window_outputs(bundle.test[d], w, params, mc)
        fail(check_window_properties(where, window, mc.qubits))
        if (d, w) in sample:
            ref = dense_reference(register, window, params, mc)
            fail(check_dense(where, window, ref))
            report.dense_err = max(report.dense_err,
                                   float(np.max(np.abs(window["features"] - ref["features"]))))

    # a sampled training document: directional central difference
    d = rng.randrange(len(bundle.train))
    directions = group_directions(params, np.random.default_rng(seed))
    analytic, fd = directional_derivatives(bundle.train[d], d, params, cfg, directions)
    fail(check_directional_derivative(list(analytic.values()), fd))
    report.fd_err = abs(sum(analytic.values()) - fd)

    fail(check_metrics_file(Path(outcome.metrics_path).read_text().splitlines()))

    t0 = time.perf_counter()
    loaded_cfg, loaded, _, _, _ = training.load_checkpoint(outcome.checkpoint_path)
    report.checkpoint_load_s = time.perf_counter() - t0
    report.checkpoint_bytes = Path(outcome.checkpoint_path).stat().st_size
    reloaded_test = training.evaluate(bundle.test, loaded, loaded_cfg.model)
    fail(check_checkpoint({n: t.values for n, t in params.named().items()},
                          {n: t.values for n, t in loaded.named().items()},
                          outcome.test, reloaded_test))

    fail(check_accuracy(outcome.test, workload.accuracy_floor))
    report.docs = len(docs) + 1 + len(bundle.test)
    return report
