"""End-to-end finite-difference check of the whole document pipeline.

Every trainable coordinate is perturbed by +-h and the central difference
of the total loss is compared against the tape gradient. Complex groups
(mixing and polynomial coefficients) are checked along both the real and
imaginary axes; real groups (``is_real``) along the real axis only. The
``corrupt_group`` hook scales one group's analytic gradient so tests can
confirm the checker actually catches a broken adjoint.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, backward
from .config import LossConfig, ModelConfig
from .data import Document, make_windows
from .errors import ConfigError
from .model import document_loss, init_params, param_shapes


def _probe_document(model_cfg: ModelConfig, vocab_size: int, n_classes: int,
                    rng: np.random.Generator) -> Document:
    # two windows when possible so aggregation paths are exercised
    length = model_cfg.window + max(model_cfg.window // 2, 1)
    ids = rng.integers(2, vocab_size, size=length).tolist()
    return Document(label=int(rng.integers(n_classes)),
                    windows=make_windows(ids, model_cfg.window))


def run_gradcheck(model_cfg: ModelConfig, loss_cfg: LossConfig, *,
                  vocab_size: int = 16, n_classes: int = 2, seed: int = 0,
                  h: float = 1e-5, rel_tol: float = 1e-4,
                  abs_tol: float = 1e-6, corrupt_group: str | None = None) -> dict:
    names = param_shapes(model_cfg, vocab_size, n_classes)
    if corrupt_group is not None and corrupt_group not in names:
        raise ConfigError(f"no parameter group named {corrupt_group!r}; this model "
                          f"has {', '.join(names)}")
    rng = np.random.default_rng(seed)
    doc = _probe_document(model_cfg, vocab_size, n_classes, rng)
    params = init_params(model_cfg, vocab_size, n_classes, seed)
    named = params.named()

    with Tape():
        loss, _ = document_loss(doc, params, model_cfg, loss_cfg, training=False)
        raw = backward(loss, populate_leaves=False)
    analytic = {name: raw[tns] if tns in raw else np.zeros_like(tns.values)
                for name, tns in named.items()}
    if corrupt_group is not None:
        analytic[corrupt_group] = analytic[corrupt_group] * 1.5

    def loss_value() -> float:
        l, _ = document_loss(doc, params, model_cfg, loss_cfg, training=False)
        return l.real_item()

    groups = []
    all_pass = True
    for name, tns in named.items():
        arr = tns.values
        grad = analytic[name]
        axes = (1.0,) if tns.is_real else (1.0, 1j)
        max_abs = 0.0
        max_rel = 0.0
        ok = True
        count = 0
        for i in range(arr.size):
            saved = arr.flat[i]
            for axis in axes:
                arr.flat[i] = saved + axis * h
                f_plus = loss_value()
                arr.flat[i] = saved - axis * h
                f_minus = loss_value()
                arr.flat[i] = saved
                fd = (f_plus - f_minus) / (2.0 * h)
                a = grad.flat[i].real if axis == 1.0 else grad.flat[i].imag
                err = abs(a - fd)
                tol = max(rel_tol * max(abs(a), abs(fd)), abs_tol)
                max_abs = max(max_abs, err)
                if max(abs(a), abs(fd)) > 0:
                    max_rel = max(max_rel, err / max(abs(a), abs(fd)))
                if err > tol:
                    ok = False
                count += 1
        groups.append({"name": name, "n_coords": count, "max_abs_err": max_abs,
                       "max_rel_err": max_rel, "passed": ok})
        all_pass = all_pass and ok

    return {
        "pass": all_pass,
        "h": h,
        "rel_tol": rel_tol,
        "abs_tol": abs_tol,
        "seed": seed,
        "n_windows": len(doc.windows),
        "groups": groups,
    }


def format_report(report: dict) -> str:
    lines = [f"gradient check: h={report['h']:g} rel_tol={report['rel_tol']:g} "
             f"abs_tol={report['abs_tol']:g} windows={report['n_windows']}"]
    for g in report["groups"]:
        status = "ok  " if g["passed"] else "FAIL"
        lines.append(f"  {status} {g['name']:<12} coords={g['n_coords']:<5} "
                     f"max_abs_err={g['max_abs_err']:.3e} "
                     f"max_rel_err={g['max_rel_err']:.3e}")
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines)
