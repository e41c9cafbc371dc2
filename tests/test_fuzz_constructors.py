"""Fuzzing of the constructors of the four types that have a file: ``Vocabulary``,
``StegoKey`` (built directly or by ``generate_key``), ``NgramModel`` and
``LstmModel``; and of the arguments that have none: ``GenPolicy``, ``Payload``,
``CorpusConfig``, ``train_lstm`` and ``capacity``.

The property: whatever the arguments, a constructor raises a ``StegolmError``
subclass, or the object it built saves a file that loads back and saves the
same bytes. Without a file, the object works end to end: a policy or payload
encodes and decodes back and acts as the command line's spelling of it would,
a corpus configuration builds a vocabulary that saves a loadable file, and a
capacity report writes the JSON ``eval --json`` writes. Arguments start from a
valid object's, with one of them changed: replaced by a Python or numpy scalar
of any kind, a string, a bool or a ragged list, or by a value at one of its
bounds or one past it. The ``@example`` rows are objects that once built and
then saved a file their own loader refused, worked as some other value, or
ended in a raw Python or numpy error.
"""

import dataclasses
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_tables
from stegolm.codec import Framing, GenPolicy, Mode, Payload, bytes_to_bits, decode, encode
from stegolm.corpus import CorpusConfig, Vocabulary, build_vocab, tokenize
from stegolm.errors import StegolmError
from stegolm.keying import StegoKey, deserialize_key, generate_key, serialize_key
from stegolm.lm import (
    EpochStats,
    LstmHyperparams,
    LstmModel,
    NgramConfig,
    NgramModel,
    deserialize_model,
    serialize_model,
    train_lstm,
    train_ngram,
)
from stegolm.lm.lstm import init_params
from stegolm.metrics import capacity

TOKENS = tokenize("a b c d .\nb c a e .\nd a f b .\n" * 4)
VOCAB = build_vocab(TOKENS)  # 9 tokens
KEY = generate_key(VOCAB, 2, 1, seed=3)
TWO_BINS = generate_key(VOCAB, 1, 1, seed=3).slot_array.tolist()
BIGRAM = train_ngram(TOKENS, VOCAB, NgramConfig(order=2))
NGRAM_TABLES = [(grams.tolist(), counts.tolist()) for grams, counts in json_tables(
    BIGRAM.to_payload())]
LSTM_HP = dict(units=2, embed_dim=2, unroll_steps=2, batch_size=2)
LSTM_PARAMS = init_params(len(VOCAB), LstmHyperparams(**LSTM_HP), 0)
EPOCH = dict(epoch=1, train_nll=2.5, val_nll=2.75, lr_after=4.0, decayed=False)
FUZZ = settings(max_examples=150, deadline=None)

NUMPY_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
               np.uint64, np.float32, np.float64)


def fits(kind, value) -> bool:
    if np.issubdtype(kind, np.integer):
        return np.iinfo(kind).min <= value <= np.iinfo(kind).max
    return True


def scalars(*values):
    """Each of ``values`` (integers) as a Python int, float and string and as every
    numpy scalar type that holds it; and bools, None, a fraction and a word."""
    spelt = [np.True_, np.False_, True, False, None, 2.5, np.float64(2.5), "x"]
    for value in values:
        spelt += [value, float(value), str(value)]
        spelt += [kind(value) for kind in NUMPY_TYPES if fits(kind, value)]
    return st.sampled_from(spelt)


ARRAY_KINDS = (np.int8, np.uint8, np.int64, np.uint64, np.float64, np.float32, np.bool_, np.str_,
               object)


def as_array(values, kind):
    """``values`` as a numpy array of ``kind``; out-of-range integers wrap around."""
    return np.array(values).astype(kind)


def ragged(rows: list) -> list:
    """``rows`` (a list of lists, at least one) with its last row one entry short."""
    return [*rows[:-1], rows[-1][:-1]] if rows else [[0], [1, 2]]


def replaced(items: list, at: int, value) -> list:
    items = list(items)
    items[at % len(items)] = value
    return items


def builds_or_refuses(build, save, load):
    """``build()`` raises a ``StegolmError``, or its object's file loads back to
    the same bytes."""
    try:
        built = build()
    except StegolmError:
        return
    data = save(built)
    assert save(load(data)) == data


@st.composite
def vocabulary_arguments(draw):
    tokens, counts = list(VOCAB.tokens), list(VOCAB.counts)
    at = draw(st.integers(0, len(tokens) - 1))
    change = draw(st.sampled_from(["count", "token", "count kind", "token kind"]))
    if change == "count":
        counts[at] = draw(scalars(-1, 0, 1, 12, 13, 2**63, 2**64))
    elif change == "token":
        tokens[at] = draw(st.one_of(st.text(max_size=3), scalars(0, 5), st.just(["a"])))
    elif change == "count kind":
        kind = draw(st.sampled_from([*NUMPY_TYPES, float, str, bool, np.bool_]))
        counts = [kind(c) for c in counts]
    else:
        tokens = [np.str_(t) for t in tokens]
    return tuple(tokens), tuple(counts)


@FUZZ
@given(vocabulary_arguments())
@example((("a", "<eos>", "<unk>"), (2.5, 0, 0)))
@example((("a", "<eos>", "<unk>"), (True, 0, 0)))
@example((("a", "<eos>", "<unk>"), (np.float64(2.0), 0, 0)))
@example((("a", "<eos>", "<unk>"), ("3", 0, 0)))
@example(((5, "<eos>", "<unk>"), (3, 0, 0)))
@example((("a", "<eos>", "<unk>"), (np.uint8(2), 0, 0)))  # -np.uint8(2) wraps around
def test_vocabulary_constructor(arguments):
    tokens, counts = arguments
    builds_or_refuses(lambda: Vocabulary(tokens, counts), Vocabulary.serialize,
                      Vocabulary.deserialize)


@st.composite
def key_arguments(draw):
    """``(block_bits, slot_array, seed)`` for ``StegoKey`` over ``VOCAB``."""
    block_bits, slots, seed = KEY.block_bits, KEY.slot_array.tolist(), KEY.seed
    change = draw(st.sampled_from(["block_bits", "slot", "slots", "seed"]))
    if change == "block_bits":
        block_bits = draw(scalars(-1, 0, 1, 2, 16, 17))
    elif change == "slot":
        slots = replaced(slots, draw(st.integers(0, len(slots))), draw(scalars(-3, -2, -1, 3, 4)))
    elif change == "slots":
        slots = draw(st.sampled_from([
            ragged([[s] for s in slots]), slots[:-1], [*slots, 0], [slots],
            *(as_array(slots, kind) for kind in ARRAY_KINDS)]))
    else:
        seed = draw(scalars(-1, 0, 2**63, 2**64 - 1, 2**64))
    return block_bits, slots, seed


def load_key(data: bytes) -> StegoKey:
    return deserialize_key(data, VOCAB)


@FUZZ
@given(key_arguments())
@example((2, [[0], [1, 2]], 3))
@example((2, KEY.slot_array.tolist(), 2.5))
@example((2, KEY.slot_array.tolist(), True))
@example((2, KEY.slot_array.tolist(), -1))
@example((2, KEY.slot_array.tolist(), 2**64))
@example((True, TWO_BINS, 3))
@example((2.0, KEY.slot_array.tolist(), 3))
def test_key_constructor(arguments):
    block_bits, slots, seed = arguments
    builds_or_refuses(lambda: StegoKey(block_bits, slots, seed, VOCAB), serialize_key, load_key)


@FUZZ
@given(st.tuples(scalars(-1, 0, 1, 2, 16, 17), scalars(-1, 0, 1, 4, 5),
                 scalars(-1, 0, 3, 2**64 - 1, 2**64)))
@example((2, 1, 2.5))
@example((2, 1, True))
def test_generate_key(arguments):
    block_bits, common_count, seed = arguments
    builds_or_refuses(lambda: generate_key(VOCAB, block_bits, common_count, seed),
                      serialize_key, load_key)


@st.composite
def ngram_arguments(draw):
    """``(order, add_k, tables)`` for ``NgramModel`` over ``VOCAB``."""
    order, add_k, tables = 2, 0.5, [(list(g), list(c)) for g, c in NGRAM_TABLES]
    m = draw(st.integers(0, 1))
    grams, counts = tables[m]
    change = draw(st.sampled_from(["order", "add_k", "table count", "index", "count",
                                   "grams", "counts"]))
    if change == "order":
        order = draw(scalars(0, 1, 2, 3))
    elif change == "add_k":
        add_k = draw(st.one_of(scalars(0, 1), st.sampled_from([math.nan, math.inf, 1e-300])))
    elif change == "table count":
        tables = draw(st.sampled_from([[], tables[:1], [*tables, tables[1]]]))
    elif change == "index":
        row = draw(st.integers(0, len(grams) - 1))
        grams[row] = replaced(grams[row], draw(st.integers(0, m)),
                              draw(scalars(-1, 0, len(VOCAB) - 1, len(VOCAB))))
    elif change == "count":
        counts = replaced(counts, draw(st.integers(0, len(counts) - 1)),
                          draw(scalars(0, 1, 2**53, 2**53 + 1, 2**63, 2**64)))
    elif change == "grams":
        grams = draw(st.sampled_from([ragged(grams), grams[:-1], grams[::-1], [grams], "0",
                                      *(as_array(grams, kind) for kind in
                                        ARRAY_KINDS)]))
    else:
        counts = draw(st.sampled_from([counts[:-1], [*counts, 1], [counts], 1,
                                       *(as_array(counts, kind) for kind in
                                         ARRAY_KINDS)]))
    if change in ("index", "count", "grams", "counts"):
        tables[m] = (grams, counts)
    return order, add_k, tables


def load_model(data: bytes):
    return deserialize_model(data, VOCAB)


@FUZZ
@given(ngram_arguments())
@example((3, 0.5, [([], [])]))
@example((1, 0.5, [([[0]], [1]), ([[0, 0]], [1])]))
def test_ngram_constructor(arguments):
    order, add_k, tables = arguments
    builds_or_refuses(lambda: NgramModel(VOCAB, NgramConfig(order, add_k), tables),
                      serialize_model, load_model)


@st.composite
def lstm_arguments(draw):
    """``(hyperparams, params, epochs)`` for ``LstmModel`` over ``VOCAB``, the
    hyperparameters and each epoch's ``EpochStats`` as keyword arguments."""
    hp, params, epochs = dict(LSTM_HP), dict(LSTM_PARAMS), [dict(EPOCH)]
    change = draw(st.sampled_from(["size", "rate", "array", "entry", "name", "epoch"]))
    if change == "size":
        name = draw(st.sampled_from(["layers", *LSTM_HP]))
        hp[name] = draw(scalars(0, 1, 2, 3))
    elif change == "rate":
        name = draw(st.sampled_from(["lr_init", "lr_decay", "clip_norm", "dropout"]))
        hp[name] = draw(st.one_of(scalars(0, 1, 2), st.sampled_from(
            [0.5, np.float32(0.5), np.float64(0.5), math.nan, math.inf])))
    elif change == "array":
        name = draw(st.sampled_from(sorted(params)))
        array = params[name]
        params[name] = draw(st.sampled_from([
            array.tolist(), array[..., :-1], array[None], np.asfortranarray(array),
            array.astype(">f8"), np.float64(0.5), "0.5", None,
            *(as_array(array, kind) for kind in ARRAY_KINDS)]))
    elif change == "entry":
        name = draw(st.sampled_from(sorted(params)))
        array = params[name].copy()
        array.flat[draw(st.integers(0, array.size - 1))] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-320, -0.0, 1.0]))
        params[name] = array
    elif change == "name":
        name = draw(st.sampled_from(sorted(params)))
        params[name + "x"] = params.pop(name)
    else:
        name = draw(st.sampled_from(sorted(EPOCH)))
        epochs[0][name] = draw(st.one_of(scalars(-1, 0, 1, 2**64), st.sampled_from(
            [math.nan, math.inf, np.float32(0.5), np.float64(0.5)])))
    return hp, params, epochs


@FUZZ
@given(lstm_arguments())
@example(({**LSTM_HP, "lr_init": np.float32(0.5)}, LSTM_PARAMS, [EPOCH]))
@example(({**LSTM_HP, "lr_decay": np.int64(3)}, LSTM_PARAMS, [EPOCH]))
@example(({**LSTM_HP, "dropout": "0.5"}, LSTM_PARAMS, [EPOCH]))
@example((LSTM_HP, {**LSTM_PARAMS, "bo": LSTM_PARAMS["bo"].tolist()}, [EPOCH]))
def test_lstm_constructor(arguments):
    hp, params, epochs = arguments
    builds_or_refuses(lambda: LstmModel(VOCAB, LstmHyperparams(**hp), params,
                                        [EpochStats(**epoch) for epoch in epochs]),
                      serialize_model, load_model)


def encodes_and_decodes(payload: Payload, policy: GenPolicy) -> tuple[str, ...]:
    """The tokens of ``payload`` under ``policy``, after checking that they
    decode back to it."""
    tokens = encode(payload, KEY, BIGRAM, policy).tokens
    # RAW too: every byte fills whole 2-bit blocks
    assert decode(tokens, KEY, payload.framing) == bytes_to_bits(payload.data)
    return tokens


def respelt_policy(policy: GenPolicy) -> GenPolicy:
    """The policy ``encode --mode --temp --seed --max-common-run`` builds from
    ``policy``'s values written out as flags."""
    return GenPolicy(Mode(policy.mode.value), float(str(policy.temperature)),
                     int(str(policy.seed)), int(str(policy.max_common_run)))


def respelt_payload(payload: Payload) -> Payload:
    """The payload ``encode --framing`` builds from the same bytes."""
    return Payload(payload.data, Framing(payload.framing.value))


PAYLOAD = Payload(b"\xa5\x0f", Framing.LENGTH_PREFIXED)
POLICY = GenPolicy(seed=3)
ENUM_STRINGS = ("greedy", "sample", "raw", "length")


@st.composite
def policy_arguments(draw):
    """``GenPolicy`` keyword arguments, one of them changed."""
    arguments = dict(mode=Mode.SAMPLE, temperature=1.0, seed=3, max_common_run=2)
    name = draw(st.sampled_from(sorted(arguments)))
    arguments[name] = draw({
        "mode": st.one_of(st.sampled_from([*Mode, *ENUM_STRINGS]), scalars(0)),
        "temperature": st.one_of(scalars(0, 1, 2), st.sampled_from(
            [0.5, np.float32(0.5), np.float64(0.5), math.nan, math.inf])),
        "seed": scalars(-1, 0, 3, 2**64),
        "max_common_run": scalars(0, 1, 2),
    }[name])
    return arguments


@FUZZ
@given(policy_arguments())
@example(dict(mode="greedy"))
@example(dict(mode="sample"))
@example(dict(temperature="1"))
@example(dict(seed=2.5))
@example(dict(seed=True))
def test_policy_constructor(arguments):
    try:
        policy = GenPolicy(**arguments)
        tokens = encodes_and_decodes(PAYLOAD, policy)
    except StegolmError:
        return
    assert encodes_and_decodes(PAYLOAD, respelt_policy(policy)) == tokens


@st.composite
def payload_arguments(draw):
    """``(data, framing)`` for ``Payload``, one of them changed."""
    data, framing = b"\xa5", Framing.LENGTH_PREFIXED
    if draw(st.booleans()):
        data = draw(st.one_of(st.binary(max_size=4), st.text(max_size=3), scalars(0, 165),
                              st.sampled_from([bytearray(b"\xa5"), [165], np.uint8(165)])))
    else:
        framing = draw(st.one_of(st.sampled_from([*Framing, *ENUM_STRINGS]), scalars(0)))
    return data, framing


@FUZZ
@given(payload_arguments())
@example((b"\xa5", "raw"))
@example((b"\xa5", "length"))
@example(("abc", Framing.RAW))
def test_payload_constructor(arguments):
    try:
        payload = Payload(*arguments)
        tokens = encodes_and_decodes(payload, POLICY)
    except StegolmError:
        return
    assert encodes_and_decodes(respelt_payload(payload), POLICY) == tokens


@st.composite
def corpus_config_arguments(draw):
    """``CorpusConfig`` keyword arguments, one of them changed."""
    if draw(st.booleans()):
        return dict(max_vocab=draw(st.one_of(st.none(), scalars(1, 2, 3, len(VOCAB)))))
    return dict(min_count=draw(scalars(-1, 0, 1, 12)))


@FUZZ
@given(corpus_config_arguments())
@example(dict(max_vocab=2.5))
@example(dict(min_count="1"))
def test_corpus_config_constructor(arguments):
    builds_or_refuses(lambda: build_vocab(TOKENS, CorpusConfig(**arguments)),
                      Vocabulary.serialize, Vocabulary.deserialize)


@FUZZ
@given(st.tuples(scalars(0, 1, 2), scalars(-1, 0, 1, 2**64)))
@example((1, 0.5))
@example(("1", 0))
@example((True, 0))
def test_train_lstm_arguments(arguments):
    epochs, seed = arguments
    builds_or_refuses(lambda: train_lstm(TOKENS, VOCAB, LstmHyperparams(**LSTM_HP),
                                         epochs, seed),
                      serialize_model, load_model)


@st.composite
def capacity_arguments(draw):
    """``(block_bits, common_fraction, mean_message_length)``, one of them changed."""
    arguments = [2, 0.25, None]
    at = draw(st.integers(0, 2))
    arguments[at] = draw([
        scalars(-1, 0, 1, 16, 17),
        st.one_of(scalars(0, 1), st.sampled_from([0.5, np.float32(0.5), math.nan])),
        st.one_of(scalars(-1, 0, 16), st.sampled_from([16.04, np.float32(0.5), math.nan,
                                                       math.inf])),
    ][at])
    return tuple(arguments)


@FUZZ
@given(capacity_arguments())
@example((2, "0", None))
@example((2, 0.0, "16"))
@example((2.0, 0.0, None))
def test_capacity_arguments(arguments):
    """A report is built, or refused; one built writes the JSON it reads back."""
    try:
        report = dataclasses.asdict(capacity(*arguments))
    except StegolmError:
        return
    assert json.loads(json.dumps(report)) == report
