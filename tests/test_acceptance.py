"""Acceptance gate: ten checks, each printing one pass/fail line.

Every test enforces its own wall-time budget and runs on the installed
package exactly as a user would drive it. Budgets assume a single CPU
core; all training configs here use the default workers=1.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qtmix.cli as cli
from qtmix import autodiff as ad
from qtmix import oracle
from qtmix.autodiff import Tape, backward, parameter, tensor
from qtmix.circuits import AnsatzAngles, ansatz_rows
from qtmix.config import (DataConfig, LossConfig, ModelConfig,
                          OptimizerConfig, RunConfig)
from qtmix.data import synth_sentiment
from qtmix.gradcheck import run_gradcheck
from qtmix.kernels import angle_count
from qtmix.mixer import MixerParams, l1_normalize, mix_window
from qtmix.model import count_attention_params
from qtmix.training import train


def report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def budget(num: int, label: str, elapsed: float, limit: float) -> None:
    assert elapsed < limit, (
        f"criterion {num} [{label}] exceeded its budget: "
        f"{elapsed:.1f}s >= {limit:.0f}s")


def test_criterion_01_unitarity():
    """100 random template instantiations across q in {2,4,8} and
    layers in {1,2,3}: max |U^H U - I| <= 1e-10 in under 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        q = (2, 4, 8)[i % 3]
        layers = (1, 2, 3)[(i // 3) % 3]
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i,)))
        angles = rng.uniform(-np.pi, np.pi, angle_count(q, layers))
        dim = 1 << q
        rows = ansatz_rows(tensor(np.eye(dim, dtype=complex)),
                           tensor(np.tile(angles, (dim, 1))), q, layers)
        u = rows.values.T
        err = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    budget(1, "unitarity", elapsed, 30.0)
    report(1, "unitarity", worst <= 1e-10,
           f"100 instantiations, max err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    """Iterative polynomial-of-mixing-operator route matches the dense
    matrix oracle within 1e-10 for q<=3, window<=4, degree<=4, 50 seeds."""
    t0 = time.perf_counter()
    rep = oracle.verify_equivalence(50, entropy=0, max_q=3, max_window=4,
                                    max_degree=4, tol=1e-10)
    elapsed = time.perf_counter() - t0
    budget(2, "oracle equivalence", elapsed, 60.0)
    worst = max(rep["max_err"].values())
    report(2, "oracle equivalence", rep["pass"],
           f"50 seeds, max err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_03_l1_invariant():
    """Sum |normalized coefficients| == 1 within 1e-12 over 1000 draws,
    masked windows included."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i,)))
        n = int(rng.integers(1, 17))
        b = (rng.uniform(0.1, 2.0, n)
             * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        if i % 2 == 0:
            mask = np.ones(n, dtype=bool)
        else:
            mask = rng.random(n) < 0.6
            if not mask.any():
                mask[int(rng.integers(n))] = True
        w = l1_normalize(tensor(b), mask).values
        worst = max(worst, abs(float(np.abs(w).sum()) - 1.0))
        assert np.all(w[~mask] == 0.0)
    elapsed = time.perf_counter() - t0
    report(3, "l1 invariant", worst <= 1e-12,
           f"1000 draws, max |sum-1| {worst:.3e}, {elapsed:.1f}s")


def test_criterion_04_end_to_end_gradcheck():
    """Analytic gradients of the full loss (lambda_ps=0.1, tau=0.5) match
    central differences (h=1e-5) with rel err <= 1e-4 on every group,
    at q=4, window=4, degree=3, one template layer, embed 8, hidden 8,
    two classes."""
    t0 = time.perf_counter()
    mc = ModelConfig(qubits=4, window=4, degree=3, embed_dim=8,
                     embed_layers=1, ff_layers=1, hidden=8, dropout=0.0)
    lc = LossConfig(tau=0.5, lambda_ps=0.1)
    rep = run_gradcheck(mc, lc, vocab_size=16, n_classes=2, seed=0,
                        h=1e-5, rel_tol=1e-4)
    elapsed = time.perf_counter() - t0
    budget(4, "gradient check", elapsed, 120.0)
    worst = max(g["max_abs_err"] for g in rep["groups"])
    n_coords = sum(g["n_coords"] for g in rep["groups"])
    report(4, "gradient check", rep["pass"],
           f"{n_coords} coordinates, max abs err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_05_psr_descent_and_zero_gradient():
    """On a frozen window with mean pre-norm != tau, 50 gradient steps on
    the norm penalty alone shrink |pre_norm - tau| monotonically after
    step 5; at pre_norm == tau the penalty gradient is <= 1e-12."""
    t0 = time.perf_counter()
    q, n, degree, layers, ff_layers = 4, 6, 3, 1, 1
    rng = np.random.default_rng(7)
    b = parameter(rng.uniform(0.5, 1.5, n)
                  * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    c = parameter(rng.uniform(0.5, 1.5, degree + 1)
                  * np.exp(1j * rng.uniform(0, 2 * np.pi, degree + 1)))
    ff = parameter(rng.uniform(-0.5, 0.5, angle_count(q, ff_layers)))
    rows = tensor(rng.uniform(-np.pi, np.pi, (n, angle_count(q, layers))))
    mask = np.ones(n, dtype=bool)
    lam = 0.1

    def penalty(tau):
        params = MixerParams(b, c, AnsatzAngles(ff, q=q, layers=ff_layers))
        out = mix_window(rows, params, mask, q=q, embed_layers=layers)
        dev = ad.add_const(out.pre_norm, -tau)
        return ad.mul_const(ad.mul(dev, dev), lam), out.pre_norm

    tau = 0.5
    gaps = []
    for _ in range(50):
        with Tape():
            loss, pre = penalty(tau)
            grads = backward(loss, populate_leaves=False)
        gaps.append(abs(pre.real_item() - tau))
        for leaf in (b, c):
            for tns, g in grads.items():
                if tns is leaf:
                    leaf.values[...] -= 0.05 * g
    assert gaps[0] > 1e-3, "frozen instance must start away from tau"
    monotone = all(gaps[k + 1] <= gaps[k] + 1e-15 for k in range(5, 49))

    _, pre = penalty(tau)
    tau_hit = pre.real_item()
    with Tape():
        loss, _ = penalty(tau_hit)
        grads = backward(loss, populate_leaves=False)
    worst_grad = max(float(np.abs(g).max()) for g in grads.values())
    elapsed = time.perf_counter() - t0
    report(5, "norm-penalty behavior", monotone and worst_grad <= 1e-12,
           f"gap {gaps[0]:.3f} -> {gaps[-1]:.3f}, monotone after step 5: "
           f"{monotone}, grad at target {worst_grad:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_06_majority_task_learnable(tmp_path):
    """2000/250/250 synthetic majority task (window 8, q=4, degree 3, two
    template layers) reaches >= 95% test accuracy within 30 epochs on one
    core in under 15 minutes."""
    t0 = time.perf_counter()
    cfg = RunConfig(
        model=ModelConfig(qubits=4, window=8, degree=3, embed_dim=16,
                          embed_layers=2, ff_layers=2, hidden=32, dropout=0.1),
        optimizer=OptimizerConfig(epochs=3, batch_size=32, lr_max=3e-3),
        data=DataConfig(kind="synthetic", task="majority", size=2500,
                        data_seed=0),
        seed=0, out_dir=str(tmp_path / "crit6"))
    out = train(cfg)
    elapsed = time.perf_counter() - t0
    budget(6, "majority learnability", elapsed, 900.0)
    acc = out.test["accuracy"]
    report(6, "majority learnability", acc >= 0.95,
           f"test acc {acc:.4f} after {cfg.optimizer.epochs} epochs "
           f"(<=30 allowed), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_sentiment_proxy(tmp_path):
    """Sentiment stand-in corpus at desk scale (2000 train, 500 held out,
    window 16, q=8, degree 5): accuracy at least 15 points above the
    majority-class baseline within 20 epochs, under 60 minutes.
    Full-scale accuracy figures are not targets here."""
    t0 = time.perf_counter()
    cfg = RunConfig(
        model=ModelConfig(qubits=8, window=16, degree=5, embed_dim=32,
                          embed_layers=1, ff_layers=2, hidden=32, dropout=0.1),
        optimizer=OptimizerConfig(epochs=3, batch_size=32, lr_max=3e-3),
        data=DataConfig(kind="synthetic", task="sentiment", size=2500,
                        data_seed=0),
        seed=0, out_dir=str(tmp_path / "crit7"))
    _, _, test_rows = synth_sentiment(0, 2500)
    labels = [lab for _, lab in test_rows]
    baseline = max(labels.count(0), labels.count(1)) / len(labels)
    out = train(cfg)
    elapsed = time.perf_counter() - t0
    budget(7, "sentiment proxy", elapsed, 3600.0)
    acc = out.test["accuracy"]
    report(7, "sentiment proxy", acc >= baseline + 0.15,
           f"test acc {acc:.4f} vs baseline {baseline:.3f} + 0.15, "
           f"{cfg.optimizer.epochs} epochs (<=20 allowed), {elapsed:.0f}s")


def test_criterion_08_parameter_accounting(tmp_path, capsys):
    """count_attention_params reproduces the reference block sizes 454
    (window 256) and 326 (window 128) with the 128 delta exact, and the
    report prints the doubled-pairs accounting and flags the mismatch."""
    t0 = time.perf_counter()
    big = count_attention_params(ModelConfig(window=256, degree=5))
    small = count_attention_params(ModelConfig(window=128, degree=5))
    sizes_ok = (big.complex_entries == 454 and small.complex_entries == 326
                and big.complex_entries - small.complex_entries == 128)

    p = tmp_path / "p256.json"
    p.write_text(json.dumps({"model": {"window": 256}}))
    rc = cli.main(["params", "--config", str(p)])
    out = capsys.readouterr().out
    report_ok = (rc == 0 and "454" in out and str(big.real_view) in out
                 and "convention" in out)
    elapsed = time.perf_counter() - t0
    report(8, "parameter accounting", sizes_ok and report_ok,
           f"454/326 delta 128 exact, report shows {big.real_view} "
           f"pairs-view and flags it, {elapsed:.1f}s")


_SCALING_SCRIPT = """
import gc, json, time
import numpy as np
from qtmix.autodiff import tensor
from qtmix.circuits import AnsatzAngles
from qtmix.kernels import angle_count
from qtmix.mixer import MixerParams, mix_window

q, layers, ff_layers = 10, 3, 4

def setup(n, degree, seed=0):
    rng = np.random.default_rng(seed)
    b = (rng.uniform(0.5, 1.5, n)
         * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    c = (rng.uniform(0.5, 1.5, degree + 1)
         * np.exp(1j * rng.uniform(0, 2 * np.pi, degree + 1)))
    rows = rng.uniform(-np.pi, np.pi, (n, angle_count(q, layers)))
    ff = rng.uniform(-np.pi, np.pi, angle_count(q, ff_layers))
    params = MixerParams(tensor(b), tensor(c),
                         AnsatzAngles(tensor(ff), q=q, layers=ff_layers))
    return tensor(rows), params, np.ones(n, dtype=bool)

shapes = {"base": (8, 3), "double_degree": (8, 6), "double_window": (16, 3)}
inputs = {k: setup(n, d) for k, (n, d) in shapes.items()}
times = {k: [] for k in shapes}
for k, (rows, params, mask) in inputs.items():
    mix_window(rows, params, mask, q=q, embed_layers=layers)
gc.disable()
for _ in range(20):
    for k, (rows, params, mask) in inputs.items():
        t = time.perf_counter()
        mix_window(rows, params, mask, q=q, embed_layers=layers)
        times[k].append(time.perf_counter() - t)
gc.enable()
print(json.dumps({k: float(np.median(v)) for k, v in times.items()}))
"""


def test_criterion_09_forward_scaling():
    """Doubling the polynomial degree (3 to 6) or the window (8 to 16) at
    fixed other dims scales the mixer forward wall-time by a factor in
    [1.5, 2.5], median of 20 runs. The measurement runs interleaved in a
    fresh single-threaded subprocess: interleaving cancels machine-load
    drift out of the ratios, and isolation keeps this process's allocator
    and BLAS thread-pool state out of the numbers."""
    t0 = time.perf_counter()
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    proc = subprocess.run([sys.executable, "-c", _SCALING_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    med = json.loads(proc.stdout.strip().splitlines()[-1])
    r_degree = med["double_degree"] / med["base"]
    r_window = med["double_window"] / med["base"]
    elapsed = time.perf_counter() - t0
    ok = 1.5 <= r_degree <= 2.5 and 1.5 <= r_window <= 2.5
    report(9, "forward scaling", ok,
           f"degree 3->6 ratio {r_degree:.2f}, window 8->16 ratio "
           f"{r_window:.2f}, both in [1.5, 2.5], {elapsed:.1f}s")


def test_criterion_10_train_determinism(tmp_path):
    """Two full train commands with identical config and seed produce
    byte-identical metrics histories."""
    t0 = time.perf_counter()
    cfg = {
        "model": {"qubits": 3, "window": 6, "degree": 2, "embed_dim": 8,
                  "embed_layers": 1, "ff_layers": 1, "hidden": 8,
                  "dropout": 0.1},
        "optimizer": {"epochs": 2, "batch_size": 8, "lr_max": 0.003},
        "data": {"kind": "synthetic", "task": "majority", "size": 80,
                 "data_seed": 3},
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(p)]) == 0
    metrics_path = tmp_path / "run" / "metrics.jsonl"
    first = metrics_path.read_bytes()
    assert cli.main(["train", "--config", str(p)]) == 0
    second = metrics_path.read_bytes()
    elapsed = time.perf_counter() - t0
    report(10, "determinism", first == second,
           f"two runs, {len(first)} metric bytes identical, {elapsed:.1f}s")
