"""Config parsing: defaults, strict keys, validation, file loading."""

import json
import re
from pathlib import Path

import pytest

from qtmix.config import (LossConfig, ModelConfig, OptimizerConfig, RunConfig,
                          from_dict, load_file)
from qtmix.errors import ConfigError


def test_defaults():
    cfg = from_dict({})
    assert cfg.model.qubits == 8
    assert cfg.model.window == 16
    assert cfg.model.stride is None
    assert cfg.model.effective_stride == 16
    assert cfg.model.degree == 5
    assert cfg.model.embed_dim == 32
    assert cfg.model.embed_layers == 3
    assert cfg.model.ff_layers == 6
    assert cfg.model.hidden == 64
    assert cfg.model.dropout == 0.1
    assert cfg.model.activation == "relu"
    assert cfg.model.aggregation == "mean_logits"
    assert cfg.model.normalize_lcu is True
    assert cfg.loss.tau == 0.5
    assert cfg.loss.lambda_ps == 0.1
    assert cfg.loss.lambda_l1 == 0.0
    assert cfg.optimizer.lr_max == 1e-3
    assert cfg.optimizer.lr_min == 1e-5
    assert cfg.optimizer.weight_decay == 0.01
    assert cfg.optimizer.batch_size == 32
    assert cfg.data.kind == "synthetic"
    assert cfg.data.min_freq == 2
    assert cfg.data.max_vocab == 20000
    assert cfg.seed == 0


def test_partial_override_keeps_other_defaults():
    cfg = from_dict({"model": {"qubits": 4, "stride": 8}, "seed": 3})
    assert cfg.model.qubits == 4
    assert cfg.model.stride == 8
    assert cfg.model.effective_stride == 8
    assert cfg.model.window == 16
    assert cfg.seed == 3
    assert cfg.loss.tau == 0.5


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown top-level"):
        from_dict({"modle": {}})


def test_unknown_section_key():
    with pytest.raises(ConfigError, match="unknown key.*qubitz"):
        from_dict({"model": {"qubitz": 3}})


def test_unknown_key_lists_all():
    with pytest.raises(ConfigError, match="alpha, beta"):
        from_dict({"loss": {"alpha": 1, "beta": 2}})


@pytest.mark.parametrize("payload,fragment", [
    ({"model": {"qubits": 1}}, "qubits"),
    ({"model": {"qubits": 15}}, "qubits"),
    ({"model": {"window": 0}}, "window"),
    ({"model": {"stride": 0}}, "stride"),
    ({"model": {"degree": 0}}, "degree"),
    ({"model": {"dropout": 1.0}}, "dropout"),
    ({"model": {"dropout": -0.1}}, "dropout"),
    ({"model": {"activation": "gelu"}}, "activation"),
    ({"model": {"aggregation": "max"}}, "aggregation"),
    ({"loss": {"tau": 0.0}}, "tau"),
    ({"loss": {"tau": 1.0}}, "tau"),
    ({"loss": {"lambda_ps": -1}}, "lambda_ps"),
    ({"optimizer": {"lr_max": 0}}, "learning rates"),
    ({"optimizer": {"lr_min": 0.01, "lr_max": 0.001}}, "lr_min"),
    ({"optimizer": {"batch_size": 0}}, "batch_size"),
    ({"optimizer": {"epochs": -1}}, "epochs"),
    ({"data": {"kind": "csv"}}, "kind"),
    ({"data": {"kind": "tsv"}}, "needs paths"),
    ({"data": {"task": "parity"}}, "task"),
    ({"workers": 0}, "workers"),
    ({"optimizer": {"eps": 0.0}}, "eps"),
    ({"optimizer": {"eps": -1.0}}, "eps"),
    ({"optimizer": {"eps": float("inf")}}, "optimizer.eps must be finite"),
    ({"optimizer": {"lr_max": float("nan")}}, "optimizer.lr_max must be finite"),
    ({"optimizer": {"weight_decay": float("inf")}}, "weight_decay must be finite"),
    ({"loss": {"lambda_ps": float("nan")}}, "loss.lambda_ps must be finite"),
    ({"model": {"init_angle_scale": float("inf")}}, "model.init_angle_scale must be finite"),
    # a stride past the window never shows the tokens between windows
    ({"model": {"window": 4, "stride": 9}}, r"model.stride must be in 1..window \(4\), got 9"),
])
def test_validation_rejects(payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        from_dict(payload)


def test_measurement_mask_length_checked():
    with pytest.raises(ConfigError, match="measurement_mask"):
        from_dict({"model": {"qubits": 4, "measurement_mask": [True] * 5}})
    cfg = from_dict({"model": {"qubits": 4, "measurement_mask": [True] * 12}})
    assert len(cfg.model.measurement_mask) == 12


def test_measurement_mask_all_false_rejected():
    with pytest.raises(ConfigError, match="no feature"):
        from_dict({"model": {"qubits": 2, "measurement_mask": [False] * 6}})


@pytest.mark.parametrize("payload,named", [({"seed": -1}, "seed must be >= 0, got -1"),
                                           ({"data": {"data_seed": -2}}, "data.data_seed"),
                                           ({"data": {"size": 9}}, "data.size must be >= 10")])
def test_negative_seeds_and_small_corpora_rejected(payload, named):
    with pytest.raises(ConfigError, match=named):
        from_dict(payload)


def test_scalar_type_checked():
    with pytest.raises(ConfigError, match="seed"):
        from_dict({"seed": "zero"})
    with pytest.raises(ConfigError, match="seed"):
        from_dict({"seed": True})
    with pytest.raises(ConfigError, match="out_dir"):
        from_dict({"out_dir": 5})


@pytest.mark.parametrize("payload,bad_field", [
    ({"model": {"qubits": "8"}}, "model.qubits"),
    ({"model": {"window": 4.5}}, "model.window"),
    ({"model": {"qubits": True}}, "model.qubits"),        # a bool is not an int
    ({"model": {"dropout": "0.1"}}, "model.dropout"),
    ({"model": {"normalize_lcu": 1}}, "model.normalize_lcu"),
    ({"model": {"activation": None}}, "model.activation"),
    ({"model": {"measurement_mask": [1] * 24}}, "model.measurement_mask"),
    ({"data": {"train": 5}}, "data.train"),
    ({"model": {"dropout": 0}}, None),                    # float fields take an int
    ({"optimizer": {"lr_max": 1}}, None),
    ({"model": {"stride": None, "measurement_mask": None}}, None),   # X | None takes null
    ({"data": {"train": None}}, None),
])
def test_field_types_checked(payload, bad_field):
    if bad_field is None:
        from_dict(payload)
    else:
        with pytest.raises(ConfigError, match=f"'{bad_field}' must be"):
            from_dict(payload)


def test_to_dict_round_trip():
    cfg = from_dict({"model": {"qubits": 5}, "optimizer": {"epochs": 2}})
    echo = cfg.to_dict()
    again = from_dict(echo)
    assert again.to_dict() == echo


def test_readme_config_block_is_the_defaults():
    # the README says every field defaults as shown in its config block
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("default as shown:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(re.sub(r"\s*//.*", "", block)) == RunConfig().to_dict()


def test_load_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"model": {"qubits": 3}}))
    assert load_file(p).model.qubits == 3


def test_load_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_file(tmp_path / "nope.json")


def test_load_file_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_file(p)


def test_load_file_rejects_json_nan_and_infinity(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"optimizer": {"lr_max": NaN}}')
    with pytest.raises(ConfigError, match="lr_max must be finite"):
        load_file(p)
    p.write_text('{"model": {"dropout": -Infinity}}')
    with pytest.raises(ConfigError, match="dropout must be finite"):
        load_file(p)


def test_non_object_root_and_section():
    with pytest.raises(ConfigError, match="root"):
        from_dict([1, 2])
    with pytest.raises(ConfigError, match="object"):
        from_dict({"model": [1]})
