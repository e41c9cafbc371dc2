"""Fuzzing of the CLI's numeric arguments.

The property: whatever value a numeric flag gets, ``stegolm`` exits 0, or
prints exactly one ``error: <StegolmError subclass>: ...`` line on stderr and
exits 1. Each run gives every flag an ordinary value but one, which is wild:
NaN, +-inf, zero, a negative or any moderate value for a float flag, zero or
a negative for an integer flag. Sizes stay small (a few hundred tokens, an
LSTM of 4 units trained for one epoch), so the module stays fast.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegolm import errors
from stegolm.cli import main

CORPUS = (
    "the cat sat on the mat .\n"
    "a dog ran in the park .\n"
    "the dog saw a cat today .\n"
    "@sam look http://t.co/abc123 !\n"
) * 12

SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1"])
FUZZ = settings(max_examples=30, deadline=None)


def floats(lo: float, hi: float):
    """(ordinary, wild) values of a float flag; wild is NaN, +-inf, 0, -1 or any
    value in [-1000, 1000]."""
    ordinary = st.floats(lo, hi).map(repr)
    return ordinary, st.one_of(SPECIAL, st.floats(-1e3, 1e3).map(repr))


def ints(lo: int, hi: int):
    """(ordinary, wild) values of an integer flag; wild is 0 or negative."""
    ordinary = st.integers(lo, hi).map(str)
    return ordinary, st.integers(-3, 0).map(str)


@st.composite
def flags(draw, specs: dict) -> str:
    """``--flag=value`` for every flag in ``specs``: all ordinary but one, which is wild."""
    wild = draw(st.sampled_from(sorted(specs)))
    return " ".join(f"{flag}={draw(specs[flag][1] if flag == wild else specs[flag][0])}"
                    for flag in sorted(specs))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Paths of a prepped corpus, an n-gram model and a 1-bit key."""
    root = tmp_path_factory.mktemp("fuzzcli")
    ws = {name: str(root / name) for name in
          ("corpus.txt", "tokens.txt", "vocab.tsv", "model.slm", "key.sk", "payload.bin", "out")}
    (root / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    (root / "payload.bin").write_bytes(b"fuzz")
    assert run_cli(f"prep --in {ws['corpus.txt']} --out-tokens {ws['tokens.txt']} "
                   f"--out-vocab {ws['vocab.tsv']}") == 0
    assert run_cli(f"train --backend ngram --order 2 --tokens {ws['tokens.txt']} "
                   f"--vocab {ws['vocab.tsv']} --out {ws['model.slm']}") == 0
    assert run_cli(f"keygen --vocab {ws['vocab.tsv']} --block-bits 1 --common 2 --seed 3 "
                   f"--out {ws['key.sk']}") == 0
    return ws


def run_cli(argv: str) -> int:
    """Run the CLI in-process and check the exit contract; returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv.split())
    if code != 0:
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1, (argv, code, lines)
        match = re.match(r"error: (\w+): ", lines[0])
        assert match, (argv, lines)
        assert issubclass(getattr(errors, match[1], type(None)), errors.StegolmError), lines
    return code


@FUZZ
@given(flags({"--temp": floats(0.1, 3), "--max-common-run": ints(1, 6),
              "--seed": ints(0, 2**32)}))
def test_encode_flags(ws, argv):
    run_cli(f"encode --vocab {ws['vocab.tsv']} --key {ws['key.sk']} --model {ws['model.slm']} "
            f"--in {ws['payload.bin']} --out {ws['out']} {argv}")


@FUZZ
@given(flags({"--add-k": floats(0.001, 2), "--order": ints(1, 5)}))
def test_train_ngram_flags(ws, argv):
    run_cli(f"train --backend ngram --tokens {ws['tokens.txt']} --vocab {ws['vocab.tsv']} "
            f"--out {ws['out']} {argv}")


@settings(max_examples=15, deadline=None)
@given(flags({"--lr": floats(0.1, 5), "--lr-decay": floats(1.1, 4),
              "--clip-norm": floats(0.01, 5), "--dropout": floats(0, 0.9)}))
def test_train_lstm_flags(ws, argv):
    run_cli(f"train --backend lstm --tokens {ws['tokens.txt']} --vocab {ws['vocab.tsv']} "
            f"--out {ws['out']} --units 4 --embed-dim 4 --unroll 4 --batch-size 2 "
            f"--epochs 1 {argv}")


@FUZZ
@given(flags({"--block-bits": ints(0, 16), "--common-fraction": floats(0, 0.99),
              "--mean-length": floats(0, 100)}))
def test_eval_capacity_flags(argv):
    run_cli(f"eval --capacity {argv}")


@FUZZ
@given(flags({"--block-bits": ints(0, 3), "--common": ints(0, 10)}))
def test_keygen_flags(ws, argv):
    run_cli(f"keygen --vocab {ws['vocab.tsv']} --out {ws['out']} --seed 1 {argv}")
