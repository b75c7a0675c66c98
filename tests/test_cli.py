"""Command-line interface: subcommands, exit codes, artifacts."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtmix.cli as cli
from qtmix import errors, training
from qtmix.errors import TrainingDiverged
from qtmix.training import _encode_array


def write_cfg(tmp_path, **extra):
    cfg = {
        "model": {"qubits": 3, "window": 6, "degree": 2, "embed_dim": 8,
                  "embed_layers": 1, "ff_layers": 1, "hidden": 8,
                  "dropout": 0.1},
        "optimizer": {"epochs": 2, "batch_size": 8, "lr_max": 0.003},
        "data": {"kind": "synthetic", "task": "majority", "size": 60,
                 "data_seed": 3},
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
    }
    cfg.update(extra)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_params_command(capsys):
    assert cli.main(["params"]) == 0
    out = capsys.readouterr().out
    assert "214" in out and "236" in out
    assert "difference" in out
    assert "convention" in out


def test_synth_command(tmp_path, capsys):
    rc = cli.main(["synth", "--task", "majority", "--size", "40",
                   "--seed", "1", "--window", "6", "--out", str(tmp_path)])
    assert rc == 0
    for name, count in (("train", 32), ("val", 4), ("test", 4)):
        lines = (tmp_path / f"{name}.tsv").read_text().strip().splitlines()
        assert len(lines) == count


def test_train_and_eval_commands(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    out_dir = tmp_path / "run"
    assert (out_dir / "checkpoint.json").exists()
    assert (out_dir / "metrics.jsonl").exists()
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(out_dir / "checkpoint.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["metrics"]["accuracy"] <= 1.0


def test_eval_on_explicit_tsv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    cli.main(["train", "--config", str(cfg)])
    data = tmp_path / "extra.tsv"
    data.write_text("0\talpha alpha alpha beta filler0 filler1\n"
                    "1\tbeta beta beta alpha filler0 filler1\n")
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "run/checkpoint.json"),
                   "--data", str(data)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["n"] == 2


def test_train_rerun_same_outdir_identical_metrics(tmp_path):
    cfg = write_cfg(tmp_path)
    cli.main(["train", "--config", str(cfg)])
    first = (tmp_path / "run" / "metrics.jsonl").read_bytes()
    cli.main(["train", "--config", str(cfg)])
    second = (tmp_path / "run" / "metrics.jsonl").read_bytes()
    assert first == second


def test_train_seed_override_changes_history(tmp_path):
    cfg = write_cfg(tmp_path)
    cli.main(["train", "--config", str(cfg)])
    first = (tmp_path / "run" / "metrics.jsonl").read_text()
    cli.main(["train", "--config", str(cfg), "--seed", "6"])
    second = (tmp_path / "run" / "metrics.jsonl").read_text()
    assert first != second


def test_gradcheck_default_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_corrupted_adjoint_fails_naming_group(capsys):
    rc = cli.main(["gradcheck", "--seed", "1", "--corrupt-group", "lcu_coeffs"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL lcu_coeffs" in out
    assert out.strip().endswith("FAIL")


def test_gradcheck_budget_refusal(tmp_path, capsys):
    cfg = write_cfg(tmp_path, model={"qubits": 7, "window": 4})
    assert cli.main(["gradcheck", "--config", str(cfg)]) == 5
    cfg2 = write_cfg(tmp_path, model={"qubits": 4, "window": 12})
    assert cli.main(["gradcheck", "--config", str(cfg2)]) == 5


def test_verify_passes(capsys):
    assert cli.main(["verify", "--seeds", "5"]) == 0
    out = capsys.readouterr().out
    assert "unitarity" in out and "equivalence" in out
    assert out.strip().endswith("PASS")


def test_verify_refuses_large_registers(capsys):
    assert cli.main(["verify", "--max-qubits", "4"]) == 5
    assert "dense" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"model": {"qubitz": 3}}))
    assert cli.main(["train", "--config", str(p)]) == 2
    assert "qubitz" in capsys.readouterr().err


def test_missing_data_file_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, data={"kind": "tsv",
                                    "train": str(tmp_path / "none.tsv"),
                                    "val": str(tmp_path / "none.tsv"),
                                    "test": str(tmp_path / "none.tsv")})
    assert cli.main(["train", "--config", str(cfg)]) == 3
    assert "data error" in capsys.readouterr().err


def test_malformed_tsv_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\tok line\nnot a row\n")
    cfg = write_cfg(tmp_path, data={"kind": "tsv", "train": str(bad),
                                    "val": str(bad), "test": str(bad)})
    assert cli.main(["train", "--config", str(cfg)]) == 3
    assert "line(s) 2" in capsys.readouterr().err


def latin1_file(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(text.encode("latin-1"))
    return p


def refused_without_traceback(argv, code, capsys) -> str:
    capsys.readouterr()
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return captured.out + captured.err


def assert_refused_without_traceback(argv, code, named, capsys):
    err = refused_without_traceback(argv, code, capsys)
    assert "is not UTF-8 text" in err and named in err


def test_tsv_not_utf8_exit_3(tmp_path, capsys):
    bad = latin1_file(tmp_path, "bad.tsv", "0\tcaf\xe9 au lait\n")
    cfg = write_cfg(tmp_path, data={"kind": "tsv", "train": str(bad),
                                    "val": str(bad), "test": str(bad)})
    assert_refused_without_traceback(["train", "--config", str(cfg)], 3, "bad.tsv", capsys)


def test_checkpoint_not_utf8_exit_3(tmp_path, capsys):
    bad = latin1_file(tmp_path, "ckpt.json", '{"format": "caf\xe9"}')
    assert_refused_without_traceback(["eval", "--checkpoint", str(bad)], 3, "ckpt.json",
                                     capsys)


def test_config_not_utf8_exit_2(tmp_path, capsys):
    bad = latin1_file(tmp_path, "cfg.json", '{"out_dir": "caf\xe9"}')
    assert_refused_without_traceback(["train", "--config", str(bad)], 2, "cfg.json", capsys)


@pytest.mark.parametrize("where", ["under_a_file", "is_a_file"])
def test_uncreatable_out_dir_exit_3(tmp_path, capsys, monkeypatch, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "run" if where == "under_a_file" else blocker
    trained = []
    monkeypatch.setattr("qtmix.training.batch_gradients",
                        lambda *a, **k: trained.append(1))
    cfg = write_cfg(tmp_path)
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err
    assert not trained
    assert blocker.read_text() == "not a directory\n"


def test_divergence_exit_4(tmp_path, capsys, monkeypatch):
    def explode(cfg, log=None):
        raise TrainingDiverged("non-finite loss at epoch 0 batch 1",
                               diagnostics={"mean_pre_norm": 123.4, "step": 1})
    monkeypatch.setattr(cli, "train", explode)
    cfg = write_cfg(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "diverged" in err
    assert "mean_pre_norm: 123.4" in err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "qtmix.cli", "verify",
                           "--seeds", "2"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


@pytest.fixture(scope="module")
def good_checkpoint(tmp_path_factory):
    """A checkpoint of a q=3 model with two feed-forward layers (24 angles)."""
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg = write_cfg(tmp, model={"qubits": 3, "window": 6, "degree": 2, "embed_dim": 8,
                                "embed_layers": 1, "ff_layers": 2, "hidden": 8},
                    optimizer={"epochs": 1, "batch_size": 8})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return json.loads((tmp / "run" / "checkpoint.json").read_text())


def _drop_head_w1(payload):
    del payload["params"]["head_w1"]
    return payload


def _model_key(key, value):
    def corrupt(payload):
        payload["config"]["model"][key] = value
        return payload
    return corrupt


def _vocab_id_out_of_range(payload):
    table = payload["vocab"]["token_to_id"]
    table[next(iter(table))] = 99999
    return payload


def _short_ff_angles(payload):
    payload["params"]["ff_angles"] = _encode_array(np.zeros(12))
    return payload


def _head_w1_dtype(tag):
    def corrupt(payload):
        if tag is None:
            del payload["params"]["head_w1"]["dtype"]    # float64 bytes read as pairs
        else:
            payload["params"]["head_w1"]["dtype"] = tag
        return payload
    return corrupt


@pytest.mark.parametrize("corrupt,named", [
    (lambda payload: [1, 2], "root"),
    (lambda payload: {"format": payload["format"]}, "'config'"),
    (_drop_head_w1, "'head_w1' is missing"),
    (_short_ff_angles, "'ff_angles' has shape (12,), its config needs (24,)"),
    (_vocab_id_out_of_range, "'vocab.token_to_id'"),
    (_model_key("qubits", "8"), "key 'config' is invalid: 'model.qubits' must be int"),
    (_model_key("stride", 99), "key 'config' is invalid: model.stride"),
    (_head_w1_dtype("<f4"), "'head_w1' is malformed"),
    (_head_w1_dtype(None), "'head_w1' is malformed"),
], ids=["root-list", "format-only", "head_w1-dropped", "ff_angles-12-of-24", "vocab-id",
        "qubits-string", "stride-99", "head_w1-dtype-f4", "head_w1-dtype-dropped"])
def test_eval_malformed_checkpoint_exit_3(good_checkpoint, corrupt, named, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(corrupt(json.loads(json.dumps(good_checkpoint)))))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: checkpoint {p}") and named in err


def _all_pairs(arr):
    # every array as (re, im) pairs, as checkpoints were written before
    # float64 arrays carried a dtype tag
    c = np.ascontiguousarray(arr, dtype="<c16")
    return {"shape": list(c.shape),
            "data": base64.b64encode(c.view("<f8").tobytes()).decode("ascii")}


def test_checkpoint_in_the_all_pairs_encoding_loads_bitwise_and_evaluates(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "run" / "checkpoint.json"
    final = json.loads((tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[-1])
    payload = json.loads(ckpt.read_text())
    tagged = sorted(name for name, arr in payload["params"].items() if "dtype" in arr)
    assert tagged == sorted(set(payload["params"]) - {"lcu_coeffs", "poly_coeffs"})
    _, params, _, _, _ = training.load_checkpoint(ckpt)
    payload["params"] = {name: _all_pairs(t.values) for name, t in params.named().items()}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    _, old_params, _, _, _ = training.load_checkpoint(old)
    for name, t in params.named().items():
        loaded = old_params.named()[name].values
        assert loaded.dtype == t.values.dtype and loaded.tobytes() == t.values.tobytes(), name
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(old)]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"] == final["test"]


def test_eval_label_outside_checkpoint_classes_exit_3(good_checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(good_checkpoint))
    data = tmp_path / "labels.tsv"
    data.write_text("0\talpha beta alpha\n5\tbeta alpha beta\n")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 3
    captured = capsys.readouterr()
    assert "data error: label(s) [5] outside the checkpoint's 2 classes" in captured.err
    assert "Traceback" not in captured.err + captured.out


def _documented_exit(cls):
    codes = [(errors.ConfigError, cli.EXIT_CONFIG),
             ((errors.ParseError, errors.DataIOError, errors.InputError, errors.LabelError),
              cli.EXIT_DATA),
             (errors.TrainingDiverged, cli.EXIT_DIVERGED),
             (errors.BudgetError, cli.EXIT_BUDGET),
             ((errors.CollapsedStateError, errors.DegenerateCoefficientError,
               errors.DegenerateStateError), cli.EXIT_NUMERICAL)]
    return next((code for kinds, code in codes if issubclass(cls, kinds)), cli.EXIT_INTERNAL)


@pytest.mark.parametrize("cls", [c for c in vars(errors).values()
                                 if isinstance(c, type) and issubclass(c, errors.QtmixError)],
                         ids=lambda c: c.__name__)
def test_every_error_reaches_a_documented_exit_code(cls, monkeypatch, capsys):
    def fail(_):
        raise cls("made to fail")
    monkeypatch.setattr(cli, "count_attention_params", fail)
    assert cli.main(["params"]) == _documented_exit(cls)
    err = capsys.readouterr().err
    assert "made to fail" in err and "Traceback" not in err


def test_gradcheck_unknown_group_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("gradcheck started before checking the group name")
    monkeypatch.setattr("qtmix.gradcheck.init_params", no_work)
    out = refused_without_traceback(["gradcheck", "--corrupt-group", "nope"], 2, capsys)
    assert "no parameter group named 'nope'" in out
    assert "embed_table" in out and "head_b2" in out and "attn_vec" not in out
    cfg = write_cfg(tmp_path, model={"qubits": 3, "window": 4,
                                     "aggregation": "attention_pool"})
    out = refused_without_traceback(["gradcheck", "--config", str(cfg),
                                     "--corrupt-group", "nope"], 2, capsys)
    assert "attn_vec" in out


@pytest.mark.parametrize("argv", [["--max-qubits", "1"], ["--max-qubits", "0"],
                                  ["--max-qubits", "-2"], ["--seeds", "0"],
                                  ["--seeds", "-1"]], ids=" ".join)
def test_verify_rejects_empty_or_impossible_checks_exit_2(argv, capsys):
    out = refused_without_traceback(["verify", *argv], 2, capsys)
    assert "config error" in out and "PASS" not in out


def _run_python(args, tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("window", [0, -3])
def test_synth_majority_rejects_windows_without_slots(window, tmp_path):
    # both calls used to redraw forever: no window of zero slots holds a majority
    proc = _run_python(["-c", f"from qtmix import data; data.synth_majority(0, 10, {window})"],
                       tmp_path)
    assert proc.returncode == 1 and "ConfigError" in proc.stderr
    proc = _run_python(["-m", "qtmix.cli", "synth", "--task", "majority", "--size", "10",
                        "--window", str(window), "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["train", "--seed", "-1"], ["gradcheck", "--seed", "-1"],
                                  ["verify", "--seed", "-1"],
                                  ["synth", "--task", "sentiment", "--seed", "-1"]],
                         ids=" ".join)
def test_negative_seed_flag_exit_2(argv, tmp_path, capsys):
    # numpy refuses a negative seed with a ValueError, which used to end in
    # a traceback and exit 1
    if argv[0] == "train":
        argv = argv + ["--config", str(write_cfg(tmp_path))]
    if argv[0] == "synth":
        argv = argv + ["--out", str(tmp_path / "out")]
    out = refused_without_traceback(argv, 2, capsys)
    assert "config error" in out and "seed must be >= 0, got -1" in out
    assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [{"seed": -1}, {"data": {"kind": "synthetic",
                                                           "data_seed": -2}}],
                         ids=["seed", "data_seed"])
def test_negative_config_seed_exit_2(extra, tmp_path, capsys):
    out = refused_without_traceback(["train", "--config", str(write_cfg(tmp_path, **extra))],
                                    2, capsys)
    assert "config error" in out and "seed must be >= 0" in out


@pytest.mark.parametrize("task", ["majority", "sentiment"])
@pytest.mark.parametrize("size", [-5, 0, 2, 9])
def test_synth_below_the_size_floor_exit_2(task, size, tmp_path, capsys):
    # --size -5 used to write three empty TSVs, --size 2 an empty train split
    out = refused_without_traceback(["synth", "--task", task, "--size", str(size),
                                     "--out", str(tmp_path / "out")], 2, capsys)
    assert f"needs size >= 10, got {size}" in out
    assert not (tmp_path / "out").exists()


def test_synth_out_under_a_file_exit_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = refused_without_traceback(["synth", "--task", "sentiment", "--size", "20",
                                     "--out", str(blocker / "sub")], 3, capsys)
    assert "data error: cannot write" in out and str(blocker / "sub") in out
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("artifact", ["metrics.jsonl", "checkpoint.json"])
def test_unwritable_artifact_path_exit_3(tmp_path, capsys, artifact):
    # an artifact path held by a directory cannot be replaced by a file
    out = tmp_path / "run"
    (out / artifact).mkdir(parents=True)
    cfg = write_cfg(tmp_path, optimizer={"epochs": 1, "batch_size": 8, "lr_max": 0.003})
    msg = refused_without_traceback(["train", "--config", str(cfg), "--out", str(out)], 3,
                                    capsys)
    assert "data error: cannot write" in msg and str(out / artifact) in msg
    assert (out / artifact).is_dir()


def test_divergence_with_unwritable_metrics_exit_4(tmp_path, capsys, monkeypatch):
    # the failed metrics rewrite must not hide the divergence that stopped the run
    def explode(*args, **kwargs):
        raise TrainingDiverged("non-finite loss at epoch 0 batch 0",
                               diagnostics={"mean_pre_norm": 123.4, "step": 0})
    monkeypatch.setattr(training, "batch_gradients", explode)
    out = tmp_path / "run"
    (out / "metrics.jsonl").mkdir(parents=True)
    cfg = write_cfg(tmp_path)
    msg = refused_without_traceback(["train", "--config", str(cfg), "--out", str(out)], 4,
                                    capsys)
    assert "training diverged: non-finite loss at epoch 0 batch 0" in msg
    assert "mean_pre_norm: 123.4" in msg and "step: 0" in msg


def test_stride_past_the_window_exit_2(tmp_path, capsys):
    # stride 9 over window 4 would never show the tokens between windows
    cfg = write_cfg(tmp_path, model={"qubits": 2, "window": 4, "stride": 9, "degree": 1,
                                     "embed_dim": 4, "embed_layers": 1, "ff_layers": 1,
                                     "hidden": 4})
    out = refused_without_traceback(["train", "--config", str(cfg)], 2, capsys)
    assert "config error" in out and "model.stride must be in 1..window (4), got 9" in out
    assert not (tmp_path / "run").exists()


def test_eval_on_empty_tsv_exit_3(good_checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(good_checkpoint))
    data = tmp_path / "empty.tsv"
    data.write_text("\n")
    out = refused_without_traceback(["eval", "--checkpoint", str(ckpt), "--data", str(data)],
                                    3, capsys)
    assert "data error: no documents to evaluate" in out and "accuracy" not in out
