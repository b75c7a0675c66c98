"""The benchmark's workloads: a seeded corpus and a run config each.

A corpus is three ``label<TAB>text`` TSV files written from the seed
alone. Document lengths are a seeded shuffle of a fixed, evenly spread set
of lengths, so every seed gives the same number of tokens and windows, and
so the same work per round; the seed changes which words fill them and
with them the labels. Words are drawn with ``random.Random``, whose
streams are stable across Python versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable


def _lengths(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n lengths spread evenly over [lo, hi], in seeded order."""
    out = [lo + (i * (hi - lo)) // max(n - 1, 1) for i in range(n)]
    rng.shuffle(out)
    return out


# --- train-q8-sentiment ------------------------------------------------------

_GOOD = ("good", "great", "fine", "nice", "superb", "lovely", "bright",
         "charming", "crisp", "warm", "funny", "smart")
_BAD = ("bad", "awful", "dull", "weak", "bleak", "tired", "flat", "crude",
        "harsh", "slow", "messy", "grim")
_FILLER = ("the", "a", "movie", "film", "plot", "scene", "actor", "story",
           "it", "was", "and", "with", "very", "quite", "ending", "script")


def _sentiment_doc(rng: random.Random, length: int, label: int) -> str:
    """``length`` tokens of filler and polarity words, where "not" flips
    the polarity word after it. The label is the sign of the net polarity;
    a draw whose sign is zero or misses ``label`` is redrawn."""
    while True:
        words: list[str] = []
        score = 0
        while len(words) < length:
            if rng.random() < 0.45:
                words.append(rng.choice(_FILLER))
                continue
            positive = rng.random() < (0.72 if label == 1 else 0.28)
            sign = 1 if positive else -1
            if rng.random() < 0.25 and len(words) + 1 < length:
                words.append("not")
                sign = -sign
            words.append(rng.choice(_GOOD if positive else _BAD))
            score += sign
        if score != 0 and (score > 0) == (label == 1):
            return " ".join(words)


def sentiment_corpus(seed: int, sizes: dict) -> dict:
    rng = random.Random(seed)
    return {split: [(i % 2, _sentiment_doc(rng, length, i % 2))
                    for i, length in enumerate(_lengths(rng, n, 6, 28))]
            for split, n in sizes.items()}


# --- train-q4-majority -------------------------------------------------------

_MARKERS = ("alpha", "beta")


def _majority_doc(rng: random.Random, length: int, label: int) -> str:
    """Each slot is a marker with probability 0.7 (the label's marker with
    probability 0.8), else one of 8 fillers. The label is the marker seen
    more often; a draw where it is not (ties included) is redrawn."""
    while True:
        words: list[str] = []
        count = [0, 0]
        for _ in range(length):
            if rng.random() < 0.7:
                pick = label if rng.random() < 0.8 else 1 - label
                words.append(_MARKERS[pick])
                count[pick] += 1
            else:
                words.append(f"filler{rng.randrange(8)}")
        if count[label] > count[1 - label]:
            return " ".join(words)


def majority_corpus(seed: int, sizes: dict, length: int) -> dict:
    rng = random.Random(seed)
    return {split: [(i % 2, _majority_doc(rng, length, i % 2)) for i in range(n)]
            for split, n in sizes.items()}


# --- train-q4-bigvocab -------------------------------------------------------

LEXICON = 19_990                 # with the 2 cue words and PAD/UNK: 19,994 ids
_CUES = ("pro", "con")
_WORDS = [f"w{r:05d}" for r in range(LEXICON)]          # by Zipf rank
_ZIPF_CUM = list(accumulate(1.0 / (r + 1) ** 1.1 for r in range(LEXICON)))


def bigvocab_corpus(seed: int, sizes: dict) -> dict:
    """Documents of 40-120 tokens: 3, 5 or 7 cue words, the rest lexicon
    words. The label is the cue seen more often. In the train split every
    lexicon word appears at least once, so the vocabulary is the whole
    lexicon whatever the seed; the remaining slots, and every slot of val
    and test, are Zipf(1.1) draws over the lexicon."""
    rng = random.Random(seed)
    out = {}
    for split, n in sizes.items():
        lengths = _lengths(rng, n, 40, 120)
        n_cues = [(3, 5, 7)[i % 3] for i in range(n)]
        slots = sum(lengths) - sum(n_cues)
        pool = list(_WORDS) if split == "train" else []
        if len(pool) > slots:
            raise ValueError(f"{split} split has {slots} word slots, fewer than "
                             f"the {LEXICON}-word lexicon")
        pool += rng.choices(_WORDS, cum_weights=_ZIPF_CUM, k=slots - len(pool))
        rng.shuffle(pool)
        rows = []
        start = 0
        for i in range(n):
            label = i % 2
            stop = start + lengths[i] - n_cues[i]
            words, start = pool[start:stop], stop
            won = rng.randint(n_cues[i] // 2 + 1, n_cues[i])
            words += [_CUES[label]] * won + [_CUES[1 - label]] * (n_cues[i] - won)
            rng.shuffle(words)
            rows.append((label, " ".join(words)))
        out[split] = rows
    return out


# --- the workloads -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], dict]  # seed -> {split: [(label, text), ...]}
    config: dict                   # RunConfig mapping, less the data paths
    dense_windows: int             # test windows checked against the dense reference
    accuracy_floor: float | None = None


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-q8-sentiment",
        corpus=lambda seed: sentiment_corpus(seed, {"train": 24, "val": 6, "test": 12}),
        config={"optimizer": {"epochs": 1, "batch_size": 8}},
        dense_windows=2),
    Workload(
        name="train-q4-majority",
        corpus=lambda seed: majority_corpus(seed, {"train": 96, "val": 30, "test": 80}, 8),
        config={"model": {"qubits": 4, "window": 8, "degree": 3, "embed_dim": 16,
                          "embed_layers": 2, "ff_layers": 2, "hidden": 32},
                "optimizer": {"epochs": 2, "batch_size": 16, "lr_max": 1e-2}},
        dense_windows=6,
        accuracy_floor=0.7),
    Workload(
        name="train-q4-bigvocab",
        corpus=lambda seed: bigvocab_corpus(seed, {"train": 336, "val": 16, "test": 512}),
        config={"model": {"qubits": 4, "window": 32, "stride": 16, "degree": 2,
                          "embed_dim": 32, "embed_layers": 1, "ff_layers": 2,
                          "hidden": 32, "aggregation": "attention_pool"},
                "optimizer": {"epochs": 1}},
        dense_windows=6),
)}


def write_corpus(rows_by_split: dict, corpus_dir: Path) -> dict:
    """Write each split as ``label<TAB>text`` lines; return the paths."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, rows in rows_by_split.items():
        path = corpus_dir / f"{split}.tsv"
        path.write_text("".join(f"{label}\t{text}\n" for label, text in rows),
                        encoding="utf-8")
        paths[split] = str(path)
    return paths


def run_config(workload: Workload, seed: int, paths: dict, out_dir: Path) -> dict:
    """The full RunConfig mapping for one round: the workload's settings,
    the TSV corpus, min_freq 1 (the vocabulary is every train word) and the
    benchmark seed as the training seed."""
    cfg = {section: dict(values) for section, values in workload.config.items()}
    cfg["data"] = {"kind": "tsv", **paths, "min_freq": 1, "max_vocab": 20000}
    cfg["seed"] = seed
    cfg["out_dir"] = str(out_dir)
    return cfg
