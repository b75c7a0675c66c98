"""Property tests: malformed configs end in ConfigError, checkpoints
round-trip bitwise."""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from qtmix.circuits import MAX_QUBITS
from qtmix.config import (DataConfig, LossConfig, ModelConfig, OptimizerConfig,
                          RunConfig, from_dict)
from qtmix.data import Vocab
from qtmix.errors import ConfigError
from qtmix.model import init_params, param_shapes
from qtmix.training import load_checkpoint, save_checkpoint

SECTIONS = {"model": ModelConfig, "loss": LossConfig, "optimizer": OptimizerConfig,
            "data": DataConfig}

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                         st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


def accepts(annotation: str, value) -> bool:
    """Whether a JSON value has the type a field's annotation names (a
    bool is not an int; a float field takes an int; ``| None`` takes null)."""
    kind, *rest = annotation.split(" | ")
    if value is None:
        return rest == ["None"]
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        return isinstance(value, (int, float))
    if kind == "str":
        return isinstance(value, str)
    if kind == "list[bool]":
        return isinstance(value, list) and all(isinstance(v, bool) for v in value)
    return False


FIELDS = [(name, f.name, f.type) for name, cls in SECTIONS.items()
          for f in dataclasses.fields(cls)] + [(None, "seed", "int"), (None, "out_dir", "str")]


def mapping(section, key, value) -> dict:
    return {key: value} if section is None else {section: {key: value}}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), json_values)
def test_field_of_wrong_type_raises_config_error(field, value):
    section, key, annotation = field
    if accepts(annotation, value):
        return
    try:
        from_dict(mapping(section, key, value))
    except ConfigError:
        return
    raise AssertionError(f"{section}.{key} = {value!r} was accepted")


def below(limit):
    return st.integers(-10**9, limit - 1)


def floats_outside(lo, hi, lo_open=False, hi_open=False):
    """Finite floats outside [lo, hi] (the bounds themselves count as
    outside where the range is open there), and the non-finite ones."""
    parts = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if lo is not None:
        parts.append(st.floats(max_value=lo, exclude_max=not lo_open, allow_nan=False))
    if hi is not None:
        parts.append(st.floats(min_value=hi, exclude_min=not hi_open, allow_nan=False))
    return st.one_of(parts)


OUT_OF_RANGE = {
    ("model", "qubits"): st.one_of(below(2), st.integers(MAX_QUBITS + 1, 10**9)),
    ("model", "window"): below(1),
    ("model", "stride"): below(1),
    ("model", "degree"): below(1),
    ("model", "embed_dim"): below(1),
    ("model", "embed_layers"): below(1),
    ("model", "ff_layers"): below(1),
    ("model", "hidden"): below(1),
    ("model", "dropout"): floats_outside(0.0, 1.0, hi_open=True),
    ("model", "activation"): st.text(max_size=8).filter(lambda s: s not in ("relu", "tanh")),
    ("model", "aggregation"): st.text(max_size=8),
    ("model", "measurement_mask"): st.lists(st.booleans(), max_size=40).filter(
        lambda m: len(m) != 24 or not any(m)),
    ("model", "init_angle_scale"): floats_outside(0.0, None),
    ("model", "init_coeff_noise"): floats_outside(0.0, None),
    ("loss", "tau"): floats_outside(0.0, 1.0, lo_open=True, hi_open=True),
    ("loss", "lambda_ps"): floats_outside(0.0, None),
    ("loss", "lambda_l1"): floats_outside(0.0, None),
    ("loss", "lambda_smooth"): floats_outside(0.0, None),
    ("loss", "lambda_l2"): floats_outside(0.0, None),
    ("optimizer", "lr_max"): floats_outside(0.0, None, lo_open=True),
    ("optimizer", "lr_min"): floats_outside(0.0, None, lo_open=True),
    ("optimizer", "weight_decay"): floats_outside(0.0, None),
    ("optimizer", "batch_size"): below(1),
    ("optimizer", "epochs"): below(0),
    ("optimizer", "beta1"): floats_outside(0.0, 1.0, hi_open=True),
    ("optimizer", "beta2"): floats_outside(0.0, 1.0, hi_open=True),
    ("optimizer", "eps"): floats_outside(0.0, None, lo_open=True),
    ("data", "kind"): st.text(max_size=8).filter(lambda s: s not in ("tsv", "synthetic")),
    ("data", "task"): st.text(max_size=8).filter(lambda s: s not in ("majority", "sentiment")),
    ("data", "size"): below(10),
    ("data", "distractor_vocab"): below(1),
    ("data", "min_freq"): below(1),
    ("data", "max_vocab"): below(2),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda where: st.tuples(st.just(where), OUT_OF_RANGE[where])))
def test_field_out_of_range_raises_config_error(case):
    (section, key), value = case
    try:
        from_dict(mapping(section, key, value))
    except ConfigError:
        return
    raise AssertionError(f"{section}.{key} = {value!r} was accepted")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(SECTIONS) + ["seed", "out_dir", "extra"]),
                       json_values, max_size=4))
def test_any_mapping_parses_or_raises_config_error(raw):
    try:
        cfg = from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


# ---------------------------------------------------------------------------
# checkpoints

# finite values (-0.0 and subnormals included): a checkpoint holding a NaN or
# an infinity is refused (tests/test_training.py)
any_float = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def checkpoints(draw):
    model = ModelConfig(qubits=draw(st.integers(2, 3)), window=draw(st.integers(1, 4)),
                        degree=draw(st.integers(1, 3)), embed_dim=draw(st.integers(1, 3)),
                        embed_layers=1, ff_layers=draw(st.integers(1, 2)),
                        hidden=draw(st.integers(1, 3)),
                        aggregation=draw(st.sampled_from(["mean_logits", "attention_pool"])))
    cfg = RunConfig(model=model, seed=draw(st.integers(0, 2**31))).validate()
    words = draw(st.lists(st.text(min_size=1, max_size=5), unique=True, max_size=4))
    vocab = Vocab({w: i + 2 for i, w in enumerate(words)})
    n_classes = draw(st.integers(2, 4))
    params = init_params(cfg.model, len(vocab), n_classes, seed=0)
    shapes = param_shapes(cfg.model, len(vocab), n_classes)
    for name, t in params.named().items():
        size = int(np.prod(shapes[name]))
        re = np.array(draw(st.lists(any_float, min_size=size, max_size=size)))
        # real angles have zero imaginary parts; another real group may, and
        # is then written as float64, or may not, and is written as pairs
        if name == "ff_angles" or (t.is_real and draw(st.booleans())):
            t.values[...] = re.reshape(t.shape)
        else:
            im = np.array(draw(st.lists(any_float, min_size=size, max_size=size)))
            t.values.view(np.float64).reshape(-1, 2)[:] = np.stack([re, im], axis=1)
    progress = {"epochs_done": draw(st.integers(0, 100))}
    return cfg, params, vocab, n_classes, progress


@settings(max_examples=60, deadline=None)
@given(checkpoints())
def test_checkpoint_round_trips_bitwise(case):
    cfg, params, vocab, n_classes, progress = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        save_checkpoint(path, params, cfg, vocab, n_classes, progress)
        stored = json.loads(path.read_text())["params"]
        cfg2, params2, vocab2, n_classes2, progress2 = load_checkpoint(path)
    assert cfg2 == cfg and vocab2 == vocab
    assert (n_classes2, progress2) == (n_classes, progress)
    saved, loaded = params.named(), params2.named()
    assert sorted(saved) == sorted(loaded)
    for name, t in saved.items():
        a, b = t.values, loaded[name].values
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
        as_float64 = t.is_real and not (a.imag.any() or np.signbit(a.imag).any())
        assert stored[name].get("dtype") == ("<f8" if as_float64 else None), name
        assert loaded[name].is_real == (as_float64 or name == "ff_angles"), name
