"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

import qtmix.cli as cli
from qtmix import errors
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


def assert_refused_without_traceback(argv, code, named, capsys):
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "is not UTF-8 text" in err and named in err and "Traceback" not in err


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


def _vocab_id_out_of_range(payload):
    table = payload["vocab"]["token_to_id"]
    table[next(iter(table))] = 99999
    return payload


def _short_ff_angles(payload):
    payload["params"]["ff_angles"] = _encode_array(np.zeros(12))
    return payload


@pytest.mark.parametrize("corrupt,named", [
    (lambda payload: [1, 2], "root"),
    (lambda payload: {"format": payload["format"]}, "'config'"),
    (_drop_head_w1, "'head_w1' is missing"),
    (_short_ff_angles, "'ff_angles' has shape (12,), its config needs (24,)"),
    (_vocab_id_out_of_range, "'vocab.token_to_id'"),
], ids=["root-list", "format-only", "head_w1-dropped", "ff_angles-12-of-24", "vocab-id"])
def test_eval_malformed_checkpoint_exit_3(good_checkpoint, corrupt, named, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(corrupt(json.loads(json.dumps(good_checkpoint)))))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and named in err


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
