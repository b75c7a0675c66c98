"""Tokenizer, vocabulary, windowing, TSV loading, synthetic corpora."""

import numpy as np
import pytest

from qtmix.data import (MIN_SYNTH_SIZE, PAD_ID, UNK_ID, Document, Vocab,
                        build_documents, load_tsv, make_windows, synth_majority,
                        synth_sentiment, tokenize, write_tsv,
                        _NEGATIVE, _POSITIVE)
from qtmix.errors import ConfigError, DataIOError, ParseError


# ---------------------------------------------------------------------------
# tokenizer: frozen cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("It's fine.", ["it", "'", "s", "fine", "."]),
    ("Hello, World!", ["hello", ",", "world", "!"]),
    ("", []),
    ("   ", []),
    ("a1 b2", ["a1", "b2"]),
    ("co-op", ["co", "-", "op"]),
    ("one  two\tthree", ["one", "two", "three"]),
    ("...", [".", ".", "."]),
])
def test_tokenize(text, expected):
    assert tokenize(text) == expected


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_vocab_reserved_ids():
    v = Vocab.build([["a", "a", "b", "b"]], min_freq=1)
    assert PAD_ID == 0 and UNK_ID == 1
    assert v.encode(["a", "zzz"]) == [v.token_to_id["a"], UNK_ID]
    assert min(v.token_to_id.values()) >= 2


def test_vocab_min_freq():
    v = Vocab.build([["a", "a", "b"]], min_freq=2)
    assert "a" in v.token_to_id
    assert "b" not in v.token_to_id
    assert v.encode(["b"]) == [UNK_ID]


def test_vocab_rank_ties_by_token():
    # equal counts: alphabetical order decides, so ids are reproducible
    v = Vocab.build([["pear", "apple", "pear", "apple"]], min_freq=1)
    assert v.token_to_id["apple"] == 2
    assert v.token_to_id["pear"] == 3


def test_vocab_count_rank():
    v = Vocab.build([["rare", "mid", "mid", "top", "top", "top"]], min_freq=1)
    assert v.token_to_id["top"] == 2
    assert v.token_to_id["mid"] == 3
    assert v.token_to_id["rare"] == 4


def test_vocab_max_vocab_truncates():
    v = Vocab.build([["a", "a", "b", "b", "c", "c"]], min_freq=1, max_vocab=4)
    assert len(v) == 4          # PAD, UNK, plus the two best-ranked tokens
    assert "c" not in v.token_to_id


def test_vocab_determinism():
    lists = [tokenize("the cat sat on the mat"), tokenize("the dog sat")]
    a = Vocab.build(lists)
    b = Vocab.build(lists)
    assert a.token_to_id == b.token_to_id


def test_vocab_dict_round_trip():
    v = Vocab.build([["x", "x", "y", "y"]], min_freq=1)
    again = Vocab.from_dict(v.to_dict())
    assert again.token_to_id == v.token_to_id


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_windows_exact_fit():
    w = make_windows([5, 6, 7, 8], window=4)
    assert len(w) == 1
    ids, mask = w[0]
    assert ids.tolist() == [5, 6, 7, 8]
    assert mask.all()


def test_windows_padding():
    w = make_windows([5, 6, 7, 8, 9], window=4)
    assert len(w) == 2
    ids, mask = w[1]
    assert ids.tolist() == [9, PAD_ID, PAD_ID, PAD_ID]
    assert mask.tolist() == [True, False, False, False]


def test_windows_overlapping_stride():
    w = make_windows([1, 2, 3, 4, 5, 6], window=4, stride=2)
    assert len(w) == 3
    assert w[0][0].tolist() == [1, 2, 3, 4]
    assert w[1][0].tolist() == [3, 4, 5, 6]
    assert w[2][0].tolist() == [5, 6, 0, 0]


def test_windows_empty_input():
    assert make_windows([], window=4) == []


def test_windows_round_trip_default_stride():
    ids = list(range(2, 25))
    w = make_windows(ids, window=6)
    rebuilt = [int(i) for arr, mask in w for i in arr[mask]]
    assert rebuilt == ids


# ---------------------------------------------------------------------------
# TSV I/O
# ---------------------------------------------------------------------------

def test_load_tsv(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("0\thello world\n1\tgoodbye\n\n0\tlast\n")
    rows = load_tsv(p)
    assert rows == [("hello world", 0), ("goodbye", 1), ("last", 0)]


def test_load_tsv_missing_file(tmp_path):
    with pytest.raises(DataIOError, match="cannot read"):
        load_tsv(tmp_path / "nope.tsv")


def test_load_tsv_reports_line_numbers(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("0\tok\nno tab here\nx\tbad label\n1\tok\n-1\tnegative\n")
    with pytest.raises(ParseError, match=r"line\(s\) 2, 3, 5"):
        load_tsv(p)


def test_load_tsv_takes_ascii_digit_labels_only(tmp_path):
    # int() reads these as 10, 1, 0 and 1 (an Arabic-Indic one)
    p = tmp_path / "d.tsv"
    p.write_text("0\tok\n1_0\ta\n+1\tb\n 0\tc\n\u0661\td\n12\tok\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line\(s\) 2, 3, 4, 5;"):
        load_tsv(p)
    p.write_text("0\tzero\n12\ttwelve\n", encoding="utf-8")
    assert load_tsv(p) == [("zero", 0), ("twelve", 12)]


def test_load_tsv_empty_text_is_malformed(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("0\t   \n")
    with pytest.raises(ParseError, match=r"line\(s\) 1"):
        load_tsv(p)


def test_write_read_round_trip(tmp_path):
    rows = [("plain text .", 0), ("more words here", 1)]
    p = tmp_path / "out" / "d.tsv"
    write_tsv(p, rows)
    assert load_tsv(p) == rows


def test_build_documents():
    rows = [("alpha beta alpha", 1)]
    v = Vocab.build([tokenize(rows[0][0])], min_freq=1)
    docs = build_documents(rows, v, window=2)
    assert docs[0].label == 1
    assert len(docs[0].windows) == 2


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def test_majority_split_sizes_and_balance():
    train, val, test = synth_majority(seed=0, size=100, window=8)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    labels = [lab for _, lab in train + val + test]
    assert labels.count(0) == labels.count(1) == 50


def test_majority_label_is_true_majority():
    train, val, test = synth_majority(seed=1, size=60, window=8)
    for text, label in train + val + test:
        toks = tokenize(text)
        assert len(toks) == 8
        a, b = toks.count("alpha"), toks.count("beta")
        assert a != b
        assert label == (0 if a > b else 1)


def test_majority_determinism():
    assert synth_majority(3, 40, 6) == synth_majority(3, 40, 6)
    assert synth_majority(3, 40, 6) != synth_majority(4, 40, 6)


@pytest.mark.parametrize("size", [-5, 0, 2, 9])
def test_synth_corpora_refuse_sizes_below_the_floor(size):
    with pytest.raises(ConfigError, match=f"size >= {MIN_SYNTH_SIZE}, got {size}"):
        synth_majority(0, size, 8)
    with pytest.raises(ConfigError, match=f"size >= {MIN_SYNTH_SIZE}, got {size}"):
        synth_sentiment(0, size)
    train, val, test = synth_sentiment(0, MIN_SYNTH_SIZE)
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_sentiment_split_sizes_balance_lengths():
    train, val, test = synth_sentiment(seed=0, size=200)
    assert (len(train), len(val), len(test)) == (160, 20, 20)
    labels = [lab for _, lab in train + val + test]
    assert labels.count(0) == labels.count(1) == 100
    for text, _ in train:
        n = len(text.split())
        assert 6 <= n <= 28


def test_sentiment_label_matches_negation_rule():
    train, val, test = synth_sentiment(seed=2, size=120)
    pos, neg = set(_POSITIVE), set(_NEGATIVE)
    for text, label in train + val + test:
        score = 0
        pending_not = False
        for tok in text.split():
            if tok == "not":
                pending_not = True
                continue
            if tok in pos or tok in neg:
                sign = 1 if tok in pos else -1
                if pending_not:
                    sign = -sign
                score += sign
            pending_not = False
        assert score != 0
        assert label == (1 if score > 0 else 0)


def test_sentiment_determinism():
    assert synth_sentiment(5, 50) == synth_sentiment(5, 50)
