"""Command-line entry points.

Subcommands: train, eval, gradcheck, verify, params, synth. Exit codes
are part of the contract: 0 success, 1 a check or verification failed,
2 bad configuration, 3 bad input data, 4 training diverged, 5 a request
exceeded the command's size budget, 6 a numerical failure (a collapsed or
degenerate state or coefficient vector), 7 any other internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as configmod
from . import data as datamod
from . import oracle
from .config import LossConfig, ModelConfig, RunConfig
from .errors import (BudgetError, CollapsedStateError, ConfigError, DataIOError,
                     DegenerateCoefficientError, DegenerateStateError, InputError,
                     LabelError, ParseError, QtmixError, TrainingDiverged)
from .gradcheck import format_report, run_gradcheck
from .model import count_attention_params
from .training import evaluate, load_checkpoint, split_documents, split_rows, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_BUDGET = 5
EXIT_NUMERICAL = 6
EXIT_INTERNAL = 7

GRADCHECK_MAX_QUBITS = 6
GRADCHECK_MAX_WINDOW = 8
VERIFY_MAX_QUBITS = 3


def _load_run_config(args) -> RunConfig:
    cfg = configmod.load_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg.validate()


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    outcome = train(cfg, log=print)
    print(f"checkpoint: {outcome.checkpoint_path}")
    print(f"metrics:    {outcome.metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, params, vocab, n_classes, progress = load_checkpoint(args.checkpoint)
    rows = datamod.load_tsv(args.data) if args.data else split_rows(cfg, "test")[0]
    bad = sorted({lab for _, lab in rows if not (0 <= lab < n_classes)})
    if bad:
        raise LabelError(f"label(s) {bad} outside the checkpoint's "
                         f"{n_classes} classes")
    if not rows:
        raise InputError("no documents to evaluate")
    docs = split_documents(rows, vocab, cfg.model, args.data or "test split")
    metrics = evaluate(docs, params, cfg.model)
    print(json.dumps({"checkpoint": str(args.checkpoint),
                      "progress": progress, "metrics": metrics}, indent=2))
    return EXIT_OK


def _gradcheck_default_model() -> ModelConfig:
    return ModelConfig(qubits=4, window=4, degree=3, embed_dim=8,
                       embed_layers=1, ff_layers=1, hidden=8, dropout=0.0)


def cmd_gradcheck(args) -> int:
    if args.config:
        cfg = configmod.load_file(args.config)
        model_cfg, loss_cfg = cfg.model, cfg.loss
    else:
        model_cfg, loss_cfg = _gradcheck_default_model(), LossConfig()
    if model_cfg.qubits > GRADCHECK_MAX_QUBITS:
        raise BudgetError(
            f"gradcheck runs full-coordinate finite differences; qubits="
            f"{model_cfg.qubits} exceeds the limit of {GRADCHECK_MAX_QUBITS}")
    if model_cfg.window > GRADCHECK_MAX_WINDOW:
        raise BudgetError(
            f"gradcheck window={model_cfg.window} exceeds the limit of "
            f"{GRADCHECK_MAX_WINDOW}")
    report = run_gradcheck(model_cfg, loss_cfg, seed=args.seed or 0,
                           corrupt_group=args.corrupt_group)
    print(format_report(report))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    if args.max_qubits < 2 or args.seeds < 1:
        raise ConfigError(f"verify needs max_qubits >= 2 (the smallest template) and "
                          f"seeds >= 1, got {args.max_qubits} and {args.seeds}")
    if args.max_qubits > VERIFY_MAX_QUBITS:
        raise BudgetError(
            f"verify builds dense matrices; max_qubits={args.max_qubits} "
            f"exceeds the limit of {VERIFY_MAX_QUBITS}")
    uni = oracle.verify_unitarity(args.seeds, entropy=args.seed or 0,
                                  max_q=args.max_qubits)
    print(f"unitarity    seeds={uni['n_seeds']} max_err={uni['max_err']:.3e} "
          f"tol={uni['tol']:g} {'ok' if uni['pass'] else 'FAIL'}")
    eqv = oracle.verify_equivalence(args.seeds, entropy=args.seed or 0,
                                    max_q=args.max_qubits)
    err = eqv["max_err"]
    print(f"equivalence  seeds={eqv['n_seeds']} "
          f"pre_norm={err['pre_norm']:.3e} state={err['state']:.3e} "
          f"features={err['features']:.3e} tol={eqv['tol']:g} "
          f"{'ok' if eqv['pass'] else 'FAIL'}")
    ok = uni["pass"] and eqv["pass"]
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_params(args) -> int:
    cfg = configmod.load_file(args.config) if args.config else RunConfig()
    cfg.validate()
    pc = count_attention_params(cfg.model)
    mc = cfg.model
    print(f"mixer parameter block (window={pc.window} degree={pc.degree} "
          f"qubits={mc.qubits} ff_layers={mc.ff_layers})")
    print(f"  feed-forward angles   {pc.ff_angle_count}")
    print(f"  complex-entry count   {pc.complex_entries}   "
          f"({pc.window} mixing + {pc.degree + 1} polynomial + "
          f"{pc.ff_angle_count} angles)")
    print(f"  real-pair count       {pc.real_view}   "
          f"(2*{pc.window} + 2*{pc.degree + 1} + {pc.ff_angle_count})")
    print(f"  difference            {pc.delta}")
    print("note: the two conventions differ by exactly window + degree + 1; "
          "quoted sizes depend on which one a report uses.")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.task == "majority":
        splits = datamod.synth_majority(args.seed or 0, args.size, args.window)
    else:
        splits = datamod.synth_sentiment(args.seed or 0, args.size)
    out = Path(args.out)
    for name, rows in zip(("train", "val", "test"), splits):
        path = out / f"{name}.tsv"
        datamod.write_tsv(path, rows)
        print(f"wrote {len(rows):5d} rows to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qtmix",
                                description="quantum token mixer text classifier")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write artifacts")
    t.add_argument("--config", help="JSON config file (defaults when omitted)")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--out", help="override the output directory")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", help="TSV file to evaluate on (default: the "
                   "checkpoint config's test split)")
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference gradient check")
    g.add_argument("--config", help="JSON config; model must satisfy "
                   f"qubits<={GRADCHECK_MAX_QUBITS}, window<={GRADCHECK_MAX_WINDOW}")
    g.add_argument("--seed", type=int)
    g.add_argument("--corrupt-group", help="scale this group's analytic "
                   "gradient to prove the check catches a broken rule")
    g.set_defaults(func=cmd_gradcheck)

    v = sub.add_parser("verify", help="compare the simulator against dense "
                       "reference matrices")
    v.add_argument("--seeds", type=int, default=50)
    v.add_argument("--seed", type=int, help="entropy for the random draws")
    v.add_argument("--max-qubits", type=int, default=VERIFY_MAX_QUBITS)
    v.set_defaults(func=cmd_verify)

    pa = sub.add_parser("params", help="print mixer parameter accounting")
    pa.add_argument("--config")
    pa.set_defaults(func=cmd_params)

    s = sub.add_parser("synth", help="write a synthetic TSV corpus")
    s.add_argument("--task", choices=("majority", "sentiment"), required=True)
    s.add_argument("--size", type=int, default=2500)
    s.add_argument("--seed", type=int)
    s.add_argument("--window", type=int, default=8,
                   help="document length for the majority task")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:   # numpy refuses it
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, DataIOError, InputError, LabelError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        for key, value in e.diagnostics.items():
            print(f"  {key}: {value}", file=sys.stderr)
        return EXIT_DIVERGED
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (CollapsedStateError, DegenerateCoefficientError, DegenerateStateError) as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QtmixError as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
