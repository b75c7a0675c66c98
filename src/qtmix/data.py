"""Text ingestion: tokenizer, vocabulary, windowing, synthetic corpora.

The tokenizer is deliberately simple (lowercase, word characters vs.
single punctuation marks) so that runs are reproducible without any
external model files. Documents become fixed-length windows of token
ids with an attention-style mask marking real tokens vs. padding.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataIOError, ParseError

PAD_ID = 0
UNK_ID = 1
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word / single-punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocab:
    """Token-to-id table with reserved PAD=0 and UNK=1 slots.

    Built from corpus counts: tokens below ``min_freq`` are dropped, the
    rest are ranked by (count desc, token asc) and truncated to
    ``max_vocab`` total entries including the two reserved ids. The tie
    rule makes the table deterministic across runs and platforms.
    """

    token_to_id: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, token_lists: list[list[str]], min_freq: int = 2,
              max_vocab: int = 20000) -> "Vocab":
        counts = Counter()
        for toks in token_lists:
            counts.update(toks)
        ranked = sorted(
            (tok for tok, c in counts.items() if c >= min_freq),
            key=lambda tok: (-counts[tok], tok))
        keep = ranked[:max(max_vocab - 2, 0)]
        table = {tok: i + 2 for i, tok in enumerate(keep)}
        return cls(token_to_id=table)

    def __len__(self) -> int:
        return len(self.token_to_id) + 2

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def to_dict(self) -> dict:
        return {"token_to_id": self.token_to_id}

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocab":
        return cls(token_to_id=dict(payload["token_to_id"]))


def make_windows(ids: list[int], window: int,
                 stride: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Slice a token-id sequence into (ids, mask) windows.

    Windows start at 0, stride, 2*stride, ... while the start index is
    inside the sequence; the final window is padded with PAD_ID and the
    mask records which slots hold real tokens. Empty input gives no
    windows (the document is rejected upstream).
    """
    if stride is None:
        stride = window
    out = []
    start = 0
    while start < len(ids):
        chunk = ids[start:start + window]
        arr = np.full(window, PAD_ID, dtype=np.int64)
        arr[:len(chunk)] = chunk
        mask = np.zeros(window, dtype=bool)
        mask[:len(chunk)] = True
        out.append((arr, mask))
        start += stride
    return out


@dataclass
class Document:
    label: int
    windows: list[tuple[np.ndarray, np.ndarray]]
    n_tokens: int


def load_tsv(path: str | Path) -> list[tuple[str, int]]:
    """Read label<TAB>text rows. Collects all malformed lines into one error."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise DataIOError(f"cannot read {p}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{p} is not UTF-8 text: {e}") from e
    rows = []
    bad: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        head, sep, body = line.partition("\t")
        if not sep or not body.strip():
            bad.append(lineno)
            continue
        try:
            label = int(head)
        except ValueError:
            bad.append(lineno)
            continue
        if label < 0:
            bad.append(lineno)
            continue
        rows.append((body, label))
    if bad:
        shown = ", ".join(str(n) for n in bad[:20])
        more = "" if len(bad) <= 20 else f" (+{len(bad) - 20} more)"
        raise ParseError(f"{p}: malformed line(s) {shown}{more}; "
                         "expected integer-label<TAB>text")
    return rows


def write_tsv(path: str | Path, rows: list[tuple[str, int]]) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        for text, label in rows:
            fh.write(f"{label}\t{text}\n")


def build_documents(rows: list[tuple[str, int]], vocab: Vocab, window: int,
                    stride: int | None = None) -> list[Document]:
    docs = []
    for text, label in rows:
        ids = vocab.encode(tokenize(text))
        docs.append(Document(label=label, windows=make_windows(ids, window, stride),
                             n_tokens=len(ids)))
    return docs


# ---------------------------------------------------------------------------
# Synthetic corpora. Both tasks emit plain (text, label) rows so they flow
# through the same tokenizer/vocab path as file-based data.
# ---------------------------------------------------------------------------

def _split(rows: list[tuple[str, int]]) -> tuple[list, list, list]:
    n = len(rows)
    n_val = max(n // 10, 1)
    n_test = max(n // 10, 1)
    n_train = n - n_val - n_test
    return rows[:n_train], rows[n_train:n_train + n_val], rows[n_train + n_val:]


def synth_majority(seed: int, size: int, window: int,
                   distractor_vocab: int = 8) -> tuple[list, list, list]:
    """Two marker tokens; the label is whichever appears more often.

    Documents are exactly one window long. Marker slots are drawn with
    probability 0.7, the rest are distractors; draws whose realized
    majority misses the intended label (ties included) are resampled, so
    the alternating 0,1,0,1,... targets give an exactly balanced corpus
    whose labels are always the true majority.
    """
    rng = np.random.default_rng(seed)
    markers = ("alpha", "beta")
    distractors = [f"filler{i}" for i in range(distractor_vocab)]
    rows = []
    for i in range(size):
        label = i % 2
        while True:
            words = []
            count = [0, 0]
            for _ in range(window):
                if rng.random() < 0.7:
                    # biased toward the label's marker, but both appear
                    pick = label if rng.random() < 0.8 else 1 - label
                    words.append(markers[pick])
                    count[pick] += 1
                else:
                    words.append(distractors[rng.integers(len(distractors))])
            if count[label] > count[1 - label]:
                break
        rows.append((" ".join(words), label))
    return _split(rows)


_POSITIVE = ("good", "great", "fine", "nice", "superb", "lovely", "bright",
             "charming", "crisp", "warm", "funny", "smart")
_NEGATIVE = ("bad", "awful", "dull", "weak", "bleak", "tired", "flat",
             "crude", "harsh", "slow", "messy", "grim")
_NEUTRAL = ("the", "a", "movie", "film", "plot", "scene", "actor", "story",
            "it", "was", "and", "with", "very", "quite", "ending", "script")


def synth_sentiment(seed: int, size: int) -> tuple[list, list, list]:
    """Bag-of-polarity sentences with negation flips.

    Each document mixes neutral filler with polarity words; "not" before
    a polarity word flips its sign. The label is the sign of the net
    polarity; draws whose sign misses the alternating 0,1,0,1,... target
    (ties included) are resampled, so the corpus is exactly balanced.
    Lengths vary from 6 to 28 tokens so multi-window documents occur at
    small window sizes.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(size):
        target = i % 2  # alternate so the corpus is balanced
        while True:
            length = int(rng.integers(6, 29))
            words = []
            score = 0
            j = 0
            while j < length:
                r = rng.random()
                if r < 0.45:
                    words.append(_NEUTRAL[rng.integers(len(_NEUTRAL))])
                    j += 1
                    continue
                negate = rng.random() < 0.25 and j + 1 < length
                positive = rng.random() < (0.72 if target == 1 else 0.28)
                pool = _POSITIVE if positive else _NEGATIVE
                sign = 1 if positive else -1
                if negate:
                    words.append("not")
                    sign = -sign
                    j += 1
                words.append(pool[rng.integers(len(pool))])
                score += sign
                j += 1
            if score != 0 and (1 if score > 0 else 0) == target:
                break
        rows.append((" ".join(words), target))
    return _split(rows)
