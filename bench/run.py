#!/usr/bin/env python3
"""Benchmark qtmix training on one workload.

    python3 bench/run.py --workload train-q4-majority --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qtmix is imported from ``src/``.
The corpus is generated from ``--seed`` and written as TSV before any
timer starts. A round is one call to ``training.train`` on it, from
scratch; rounds repeat until ``--seconds`` have passed. Before them, a few
set-up probes enter ``train`` and stop it at its first training step. One
process, one thread, one client in a closed loop. Outputs of the last
round are checked after the timed section.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. A traced run
prints its own end-to-end metrics on the line before, and writes its spans
to ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBES = 10                     # set-up probes per run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        from qtmix import config, training
        from qtmix.errors import QtmixError
    except ImportError as e:
        print(f"bench: cannot import qtmix from {SRC}: {e}", file=sys.stderr)
        return 2
    import checks
    import tracing
    from workloads import WORKLOADS, run_config, write_corpus

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=out_root))
    try:
        paths = write_corpus(workload.corpus(args.seed), work / "corpus")
        cfg_dict = run_config(workload, args.seed, paths, work / "round")
        probe_dict = run_config(workload, args.seed, paths, work / "probe")

        clock = tracing.Clock()
        clock.install()
        setup = []
        for _ in range(PROBES):
            cfg = config.from_dict(probe_dict)
            gc.collect()
            clock.reset(stop_at_first_step=True)
            entered = time.perf_counter()
            try:
                training.train(cfg)
            except tracing.FirstStep:
                pass
            setup.append(clock.setup_s(entered))

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        rounds = failed_rounds = 0
        trained = evaluated = 0
        train_s = eval_s = 0.0
        outcome = None
        started = time.perf_counter()
        while True:
            cfg = config.from_dict(cfg_dict)
            gc.collect()
            clock.reset()
            entered = time.perf_counter()
            try:
                if tracer:
                    result = tracer.span("training.train", training.train, cfg)
                else:
                    result = training.train(cfg)
            except QtmixError as e:
                print(f"bench: round {rounds} failed: {type(e).__name__}: {e}", file=sys.stderr)
                failed_rounds += 1
            else:
                left = time.perf_counter()
                outcome = result
                n_train = len(result.bundle.train) * cfg.optimizer.epochs
                round_setup = clock.setup_s(entered)
                setup.append(round_setup)
                trained += n_train
                evaluated += clock.eval_docs
                train_s += left - entered - round_setup - clock.eval_s
                eval_s += clock.eval_s
                per_round = n_train + clock.eval_docs
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        clock.uninstall()

        if outcome is None:
            print("bench: every round failed", file=sys.stderr)
            return 1
        failed = failed_rounds * per_round
        checked = time.perf_counter()
        report = checks.run_checks(outcome, config.from_dict(cfg_dict), workload, args.seed)
        print(f"bench: {workload.name} seed {args.seed}: {rounds} round(s) in "
              f"{elapsed:.1f} s, checks {time.perf_counter() - checked:.1f} s, "
              f"test accuracy {outcome.test['accuracy']:.4f}, dense reference error "
              f"{report.dense_err:.1e}, central difference error {report.fd_err:.1e}; "
              f"documents trained {trained}, evaluated {evaluated}, checked {report.docs}, "
              f"failed {failed}", file=sys.stderr)
        for msg in report.failures:
            print(f"bench: check failed: {msg}", file=sys.stderr)

        end_to_end = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "train_docs_per_s": {"value": trained / train_s, "unit": "docs/s"},
            "eval_docs_per_s": {"value": evaluated / eval_s, "unit": "docs/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        metrics = end_to_end
        if tracer:
            missing = tracer.never_called()
            if missing:
                print(f"bench: traced entry points never called: {missing}", file=sys.stderr)
                return 1
            layers = tracer.layer_metrics(rounds - failed_rounds)
            layers["training.checkpoint_load_s"] = (report.checkpoint_load_s, "s")
            layers["training.checkpoint_bytes"] = (report.checkpoint_bytes, "bytes")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
            trace_path = out_root / f"trace-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(json.dumps({"traced_end_to_end": end_to_end, "rounds": rounds,
                              "spans": str(trace_path.relative_to(HERE.parent))}))
        print(json.dumps({
            "correct": not report.failures,
            "attempted": trained + evaluated + failed + report.docs,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
