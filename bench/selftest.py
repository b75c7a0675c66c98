#!/usr/bin/env python3
"""Test of the benchmark's output checks.

    python3 bench/selftest.py

Trains a tiny model (q=3, four-token windows), runs every check on its real
outputs, which must pass, and then on deliberately corrupted copies of
them, which each check must reject. Prints one line per case; exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qtmix import config, training  # noqa: E402
from qtmix.mixer import COLLAPSE_THRESHOLD  # noqa: E402

import checks  # noqa: E402
from reference import Register  # noqa: E402
from workloads import majority_corpus, write_corpus  # noqa: E402


def tiny_run(tmp: Path):
    paths = write_corpus(majority_corpus(0, {"train": 16, "val": 4, "test": 4}, 4),
                         tmp / "corpus")
    cfg = config.from_dict({
        "model": {"qubits": 3, "window": 4, "degree": 2, "embed_dim": 4,
                  "embed_layers": 1, "ff_layers": 1, "hidden": 8},
        "optimizer": {"epochs": 1, "batch_size": 8},
        "data": {"kind": "tsv", **paths, "min_freq": 1},
        "seed": 0, "out_dir": str(tmp / "round")})
    return cfg, training.train(cfg)


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    results = []

    def case(name: str, good: list, bad: list) -> None:
        ok = not good and bool(bad)
        results.append(ok)
        detail = good[0] if good else (bad[0] if bad else "corruption not detected")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        cfg, outcome = tiny_run(Path(tmp))
        params, mc = outcome.params, cfg.model

        report = checks.run_checks(outcome, cfg, SimpleNamespace(dense_windows=2,
                                                                 accuracy_floor=None), 0)
        case("run_checks on real outputs", report.failures, ["(no corruption)"])

        window = checks.window_outputs(outcome.bundle.test[0], 0, params, mc)
        ref = checks.dense_reference(Register(mc.qubits), window, params, mc)
        bumped = window["features"].copy()
        bumped[0] += 1e-7
        case("dense reference, features", checks.check_dense("w", window, ref),
             checks.check_dense("w", {**window, "features": bumped}, ref))
        case("dense reference, pre_norm", checks.check_dense("w", window, ref),
             checks.check_dense("w", {**window, "pre_norm": window["pre_norm"] * (1 + 1e-7)}, ref))
        bumped = window["weights"].copy()
        bumped[0] += 1e-7
        case("dense reference, weights", checks.check_dense("w", window, ref),
             checks.check_dense("w", {**window, "weights": bumped}, ref))

        good = checks.check_window_properties("w", window, mc.qubits)
        case("l1 weights sum to 1", good, checks.check_window_properties(
            "w", {**window, "weights": window["weights"] * (1 + 1e-9)}, mc.qubits))
        outside = window["features"].copy()
        outside[[0, mc.qubits, 2 * mc.qubits]] = (0.8, 0.0, 0.7)
        case("Bloch vectors in the unit ball", good, checks.check_window_properties(
            "w", {**window, "features": outside}, mc.qubits))
        case("pre_norm above the collapse threshold", good, checks.check_window_properties(
            "w", {**window, "pre_norm": COLLAPSE_THRESHOLD / 2}, mc.qubits))

        directions = checks.group_directions(params, np.random.default_rng(0))
        analytic, fd = checks.directional_derivatives(outcome.bundle.train[0], 0, params,
                                                      cfg, directions)
        for name in analytic:
            wrong = {**analytic, name: 1.5 * analytic[name]}
            case(f"directional derivative, {name} gradient x1.5",
                 checks.check_directional_derivative(list(analytic.values()), fd),
                 checks.check_directional_derivative(list(wrong.values()), fd))

        lines = Path(outcome.metrics_path).read_text().splitlines()
        epoch = json.loads(lines[1])
        epoch["train_loss"] = float("nan")
        case("finite losses in metrics.jsonl", checks.check_metrics_file(lines),
             checks.check_metrics_file([lines[0], json.dumps(epoch)] + lines[2:]))

        saved = {n: t.values for n, t in params.named().items()}
        loaded_cfg, loaded_params, _, _, _ = training.load_checkpoint(outcome.checkpoint_path)
        loaded = {n: t.values for n, t in loaded_params.named().items()}
        reloaded_test = training.evaluate(outcome.bundle.test, loaded_params, loaded_cfg.model)
        flipped = dict(loaded)
        flipped["head_w1"] = loaded["head_w1"].copy()
        flipped["head_w1"].view(np.uint64).flat[0] ^= 1
        case("checkpoint restores bitwise",
             checks.check_checkpoint(saved, loaded, outcome.test, reloaded_test),
             checks.check_checkpoint(saved, flipped, outcome.test, reloaded_test))
        case("checkpoint reproduces the test metrics",
             checks.check_checkpoint(saved, loaded, outcome.test, reloaded_test),
             checks.check_checkpoint(saved, loaded, outcome.test,
                                     {**reloaded_test, "accuracy": reloaded_test["accuracy"] + 0.25}))

        case("test accuracy floor", checks.check_accuracy({"accuracy": 0.95}, 0.8),
             checks.check_accuracy({"accuracy": 0.5}, 0.8))

    print(f"{sum(results)}/{len(results)} cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
