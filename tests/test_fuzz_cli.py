"""Fuzzing of the CLI's numeric arguments.

The property: whatever value a numeric flag gets, ``stegolm`` exits 0, or
prints exactly one ``error: <StegolmError subclass>: ...`` line on stderr and
exits 1. Each run gives every flag an ordinary value but one, which is wild:
NaN, +-inf, zero, a negative or any moderate value for a float flag, zero or
a negative for an integer flag. Sizes stay small (a few hundred tokens, an
LSTM of 4 units trained for one epoch), so the module stays fast.

``keygen``, ``train`` (both backends), ``encode``, ``prep`` and ``eval
--capacity`` also have the stronger property: each exits 0 exactly when the
objects its flags feed (``generate_key``; ``NgramConfig`` and ``NgramModel``;
``LstmHyperparams`` and ``train_lstm``; ``GenPolicy``; ``CorpusConfig``;
``capacity``) accept the parsed values, and writes its file only then; the
key, model, vocabulary and report files hold the values.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegolm import errors
from stegolm.cli import main
from stegolm.codec import GenPolicy
from stegolm.corpus import CorpusConfig, Vocabulary, build_vocab, read_token_file, tokenize
from stegolm.keying import MAX_BLOCK_BITS, generate_key
from stegolm.lm import (LstmHyperparams, NgramConfig, NgramModel, load_model, serialize_model,
                        train_lstm)
from stegolm.metrics import capacity

CORPUS = (
    "the cat sat on the mat .\n"
    "a dog ran in the park .\n"
    "the dog saw a cat today .\n"
    "@sam look http://t.co/abc123 !\n"
) * 12

SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1"])
#: Edges of a real flag: the specials above and the smallest subnormal.
REAL_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324])
FUZZ = settings(max_examples=30, deadline=None)
# A numpy RuntimeWarning is an extra stderr line outside the contract.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


@FUZZ
@given(block_bits=st.integers(-1, 5), common=st.integers(-1, 20),
       seed=st.one_of(st.sampled_from([0, 2**64 - 1, 2**64, -1]), st.integers(0, 2**64 - 1)))
def test_keygen_runs_iff_generate_key_accepts(ws, block_bits, common, seed):
    """``keygen`` exits 0 exactly when ``generate_key`` accepts the parsed flags,
    and then its key file holds them."""
    vocab = Vocabulary.load(ws["vocab.tsv"])
    try:
        generate_key(vocab, block_bits, common, seed)
    except errors.KeyGenError:
        accepted = False
    else:
        accepted = True
    out = Path(ws["out"])
    out.unlink(missing_ok=True)
    code = run_cli(f"keygen --vocab {ws['vocab.tsv']} --out {out} --block-bits={block_bits} "
                   f"--common={common} --seed={seed}")
    assert (code == 0) == accepted, (code, block_bits, common, seed)
    if accepted:
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[1:4] == [f"block_bits: {block_bits}",
                              f"vocab_hash: {vocab.content_hash()}", f"seed: {seed}"]
        assert len(lines[4].split("\t")) - 1 == common  # the common line
    else:
        assert not out.exists()


def accepts(build) -> bool:
    """Whether ``build()`` returns rather than raising a ``StegolmError``."""
    try:
        build()
    except errors.StegolmError:
        return False
    return True


@FUZZ
@given(data=st.data(), add_k=st.one_of(REAL_EDGES, st.floats(-1, 3)))
def test_train_ngram_runs_iff_ngram_config_and_model_accept(ws, data, add_k):
    """``train --backend ngram`` exits 0 exactly when ``NgramConfig`` and
    ``NgramModel`` accept the parsed ``--order`` and ``--add-k`` (an order is
    refused from the first with ``|V| ** (order - 1) >= 2**63``), and then its
    model file holds them."""
    vocab = Vocabulary.load(ws["vocab.tsv"])
    limit = next(n for n in itertools.count(1) if len(vocab) ** (n - 1) >= 2**63)
    order = data.draw(st.one_of(st.sampled_from([0, 1, limit - 1, limit]),
                                st.integers(-1, limit + 1)))
    accepted = accepts(lambda: NgramModel(vocab, NgramConfig(order, add_k), [([], [])] * order))
    out = Path(ws["out"])
    out.unlink(missing_ok=True)
    code = run_cli(f"train --backend ngram --tokens {ws['tokens.txt']} --vocab {ws['vocab.tsv']} "
                   f"--out {out} --order={order} --add-k={add_k!r}")
    assert (code == 0) == accepted, (code, order, add_k)
    if accepted:
        assert load_model(out, vocab).config == NgramConfig(order, add_k)
    else:
        assert not out.exists()


@FUZZ
@given(temp=st.one_of(REAL_EDGES, st.floats(-1, 1e300)),
       seed=st.one_of(st.sampled_from([0, 2**64 - 1, 2**64, -1]), st.integers(-3, 2**70)),
       max_common_run=st.integers(-1, 6))
def test_encode_runs_iff_gen_policy_accepts(ws, temp, seed, max_common_run):
    """``encode`` exits 0 exactly when ``GenPolicy`` accepts the parsed
    ``--temp``, ``--seed`` and ``--max-common-run``."""
    accepted = accepts(lambda: GenPolicy(temperature=temp, seed=seed,
                                         max_common_run=max_common_run))
    out = Path(ws["out"])
    out.unlink(missing_ok=True)
    code = run_cli(f"encode --vocab {ws['vocab.tsv']} --key {ws['key.sk']} "
                   f"--model {ws['model.slm']} --in {ws['payload.bin']} --out {out} "
                   f"--temp={temp!r} --seed={seed} --max-common-run={max_common_run}")
    assert (code == 0) == accepted, (code, temp, seed, max_common_run)
    assert out.exists() == accepted


@FUZZ
@given(max_vocab=st.one_of(st.none(), st.sampled_from([-1, 0, 1, 2, 3, 2**64]),
                           st.integers(-1, 20)),
       min_count=st.one_of(st.sampled_from([-1, 0, 1, 2**64]), st.integers(-1, 40)),
       switches=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_prep_runs_iff_corpus_config_accepts(ws, max_vocab, min_count, switches):
    """``prep`` exits 0 exactly when ``CorpusConfig`` accepts the parsed
    ``--max-vocab`` and ``--min-count`` (no ``--max-vocab`` is None), and then
    its vocabulary file is the library's vocabulary of the same text."""
    lowercase, replace, retweets = switches
    arguments = dict(lowercase=lowercase, replace_users_urls=replace, drop_retweets=retweets,
                     max_vocab=max_vocab, min_count=min_count)
    accepted = accepts(lambda: CorpusConfig(**arguments))
    out = Path(ws["out"])
    out.unlink(missing_ok=True)
    argv = (f"prep --in {ws['corpus.txt']} --out-vocab {out} --min-count={min_count} "
            + " ".join(f"--{'' if on else 'no-'}{flag}" for flag, on in
                       [("lowercase", lowercase), ("replace-users-urls", replace),
                        ("drop-retweets", retweets)]))
    if max_vocab is not None:
        argv += f" --max-vocab={max_vocab}"
    code = run_cli(argv)
    assert (code == 0) == accepted, (code, arguments)
    if accepted:
        config = CorpusConfig(**arguments)
        text = Path(ws["corpus.txt"]).read_text(encoding="utf-8")
        assert out.read_bytes() == build_vocab(tokenize(text, config), config).serialize()
    else:
        assert not out.exists()


@FUZZ
@given(block_bits=st.one_of(st.sampled_from([-1, 0, 1, MAX_BLOCK_BITS, MAX_BLOCK_BITS + 1,
                                             2**64]), st.integers(-1, MAX_BLOCK_BITS + 1)),
       common_fraction=st.one_of(REAL_EDGES, st.sampled_from([0.5, 1.0]), st.floats(-1, 2)),
       mean_length=st.one_of(st.none(), REAL_EDGES, st.just(1e308), st.floats(-1, 1e3)))
def test_eval_capacity_runs_iff_capacity_accepts(ws, block_bits, common_fraction, mean_length):
    """``eval --capacity`` exits 0 exactly when ``capacity`` accepts the parsed
    ``--block-bits``, ``--common-fraction`` and ``--mean-length`` (no
    ``--mean-length`` is None), and then its ``--json`` report is that
    capacity report."""
    accepted = accepts(lambda: capacity(block_bits, common_fraction, mean_length))
    out = Path(ws["out"])
    out.unlink(missing_ok=True)
    argv = (f"eval --capacity --json {out} --block-bits={block_bits} "
            f"--common-fraction={common_fraction!r}")
    if mean_length is not None:
        argv += f" --mean-length={mean_length!r}"
    code = run_cli(argv)
    assert (code == 0) == accepted, (code, block_bits, common_fraction, mean_length)
    if accepted:
        report = dataclasses.asdict(capacity(block_bits, common_fraction, mean_length))
        assert json.loads(out.read_text(encoding="utf-8")) == {"capacity": report}
    else:
        assert not out.exists()


def lstm_flags(tokens: int) -> dict:
    """``flag: (dest, ordinary, edge)`` of every ``train --backend lstm`` number.
    The size flags have no upper bound and a large one is that much memory or
    time, so their edges are the lower bound; ``--unroll`` and ``--batch-size``
    also get the corpus bound and 2**64 (``train_lstm`` refuses a product past
    ``tokens`` before it allocates), ``--seed`` the 64-bit bounds."""
    size = st.sampled_from([-1, 0, 1])
    window = st.sampled_from([-1, 0, 1, tokens, tokens + 1, 2**63, 2**64])

    def real(lo: float, hi: float, *more: float):
        return st.floats(lo, hi), st.one_of(REAL_EDGES, st.sampled_from(more))

    return {
        "--layers": ("layers", st.integers(1, 2), size),
        "--units": ("units", st.integers(1, 4), size),
        "--embed-dim": ("embed_dim", st.integers(1, 4), size),
        "--unroll": ("unroll_steps", st.integers(1, 8), window),
        "--batch-size": ("batch_size", st.integers(1, 4), window),
        "--lr": ("lr_init", *real(0.1, 5, 1e300)),
        "--lr-decay": ("lr_decay", *real(1.1, 4, 1.0)),
        "--clip-norm": ("clip_norm", st.one_of(st.just(0.0), st.floats(0.01, 5)),
                        st.one_of(REAL_EDGES, st.just(1e300))),
        "--dropout": ("dropout", *real(0, 0.9, 1.0, 0.9999)),
        "--epochs": ("epochs", st.integers(1, 2), size),
        "--seed": ("seed", st.integers(0, 2**32),
                   st.sampled_from([-1, 0, 2**64 - 1, 2**64])),
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_train_lstm_runs_iff_hyperparams_and_train_lstm_accept(ws, data):
    """``train --backend lstm`` exits 0 exactly when ``LstmHyperparams`` and
    ``train_lstm`` accept the parsed values (every flag is given, so the preset
    sets none), and then its model file is the library's model, whose header
    holds them. Up to two flags take an edge value, the rest ordinary ones."""
    vocab, tokens = Vocabulary.load(ws["vocab.tsv"]), read_token_file(ws["tokens.txt"])
    specs = lstm_flags(len(tokens))
    wild = data.draw(st.sets(st.sampled_from(sorted(specs)), max_size=2))
    values = {flag: data.draw(edge if flag in wild else ordinary, label=flag)
              for flag, (_, ordinary, edge) in sorted(specs.items())}
    given_values = {specs[flag][0]: value for flag, value in values.items()}
    epochs, seed = given_values.pop("epochs"), given_values.pop("seed")
    if given_values["clip_norm"] == 0:  # the one remap: --clip-norm 0 disables clipping
        given_values["clip_norm"] = None
    try:
        model = train_lstm(tokens, vocab, LstmHyperparams(**given_values), epochs=epochs,
                           seed=seed)
    except errors.StegolmError:
        model = None
    out = Path(ws["out"])
    out.unlink(missing_ok=True)
    code = run_cli(f"train --backend lstm --tokens {ws['tokens.txt']} --vocab {ws['vocab.tsv']} "
                   f"--out {out} " + " ".join(f"{flag}={value!r}" for flag, value in values.items()))
    assert (code == 0) == (model is not None), (code, values)
    if model is not None:
        assert out.read_bytes() == serialize_model(model)
        assert load_model(out, vocab).hp == LstmHyperparams(**given_values)
    else:
        assert not out.exists()
