"""Fuzzing of the three file parsers (vocabulary, key, model).

The property: whatever the bytes, a parser raises a ``StegolmError`` subclass
or returns an object whose ``encode`` of a short payload succeeds or raises a
``StegolmError``. Every file format is one to one: whatever loads saves to
the same bytes. Inputs are arbitrary bytes, truncations, bit flips and single
insertions into valid files, plus structured n-gram payloads with indices and
counts around the valid range or of the wrong JSON type, and payloads spelt
otherwise than saving spells them. The tables of every valid n-gram payload
read as the ``json`` reference reads them. Vocabulary and models are tiny so
the module stays fast.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_tables_equal
from stegolm.codec import Framing, GenPolicy, Mode, Payload, decode_payload, encode
from stegolm.corpus import Vocabulary, build_vocab, tokenize
from stegolm.errors import StegolmError
from stegolm.keying import deserialize_key, generate_key, serialize_key
from stegolm.lm import (
    LstmHyperparams,
    LstmModel,
    NgramConfig,
    deserialize_model,
    serialize_model,
    train_ngram,
)
from stegolm.lm.lstm import init_params

TOKENS = tokenize("a b c d .\nb c a e .\nd a f b .\n" * 4)
VOCAB = build_vocab(TOKENS)
KEY = generate_key(VOCAB, 2, 1, seed=3)
NGRAM = train_ngram(TOKENS, VOCAB, NgramConfig(order=2, add_k=0.1))
LSTM_HP = LstmHyperparams(units=3, embed_dim=2, unroll_steps=2, batch_size=2)
LSTM = LstmModel(VOCAB, LSTM_HP, init_params(len(VOCAB), LSTM_HP, 0))
PAYLOAD = Payload(b"\x5a", Framing.LENGTH_PREFIXED)
POLICY = GenPolicy(mode=Mode.SAMPLE, seed=1)
FUZZ = settings(max_examples=150, deadline=None)


def flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for position, bit in flips:
        out[position] ^= 1 << bit
    return bytes(out)


#: Bytes whose insertion may keep a file parsing: ``int`` reads a number with a
#: leading zero, a sign, a digit group, blanks around it or other Unicode digits.
INSERTS = [b"0", b"+", b" ", b"_", b"\t", b"\n", "\xa0".encode(), "\u0663".encode()]


def mangled(valid: bytes):
    """Arbitrary bytes, a truncation, a few bit flips or one insertion into a
    valid file."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 7)),
                     min_size=1, max_size=4)
    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        flips.map(lambda fs: flip(valid, fs)),
        st.tuples(st.integers(0, len(valid)), st.sampled_from(INSERTS)).map(
            lambda insert: valid[:insert[0]] + insert[1] + valid[insert[0]:]),
    )


def parse_or_refuse(parse, data):
    """The parsed object, or None when the parser raised a StegolmError."""
    try:
        return parse(data)
    except StegolmError:
        return None


def encode_or_refuse(model, key):
    """The stegotext of ``PAYLOAD``, or None when encoding raised a StegolmError."""
    try:
        return encode(PAYLOAD, key, model, POLICY)
    except StegolmError:
        return None


@FUZZ
@given(mangled(VOCAB.serialize()))
def test_vocabulary_parser(data):
    vocab = parse_or_refuse(Vocabulary.deserialize, data)
    if vocab is not None:
        assert vocab.serialize() == data
        try:
            key = generate_key(vocab, 1, 0, seed=0)
            model = train_ngram(list(vocab.tokens), vocab, NgramConfig(order=1))
        except StegolmError:
            return
        encode_or_refuse(model, key)


@FUZZ
@given(mangled(serialize_key(KEY)))
def test_key_parser(data):
    key = parse_or_refuse(lambda d: deserialize_key(d, VOCAB), data)
    if key is not None:
        assert serialize_key(key) == data
        encode_or_refuse(NGRAM, key)


@FUZZ
@given(st.one_of(mangled(serialize_model(NGRAM)), mangled(serialize_model(LSTM))))
def test_model_parser(data):
    model = parse_or_refuse(lambda d: deserialize_model(d, VOCAB), data)
    if model is not None:
        assert serialize_model(model) == data
        encode_or_refuse(model, KEY)


@st.composite
def ngram_documents(draw):
    """An n-gram payload document, its model file and whether the file must
    load: valid tables with at most one defect, so indices span [-2, |V|+2]
    and counts [-1, 5], a context may be one token off its table's order, the
    order may be written as a float, a successor index or count may be a
    float, bool, string or null, a count may exceed 2**53, add_k may be
    zero, NaN or infinite, a successor or a whole context may be listed
    twice, a context may be spelt otherwise than ``to_payload`` spells it
    (sign, space, leading zero, non-ASCII digits, not a string), a context
    may have no successors, two contexts or two successors may be out of
    ascending order and the JSON may be written without spaces."""
    size = len(VOCAB)
    index, count = st.integers(0, size - 1), st.integers(1, 5)
    order = draw(st.integers(1, 3))
    tables = [draw(st.dictionaries(st.lists(index, min_size=m, max_size=m).map(tuple),
                                   st.dictionaries(index, count, min_size=1, max_size=4),
                                   min_size=1, max_size=3))
              for m in range(order)]
    defect = draw(st.sampled_from([None, "context index", "successor index", "count",
                                   "context length", "float order", "non-integer value",
                                   "huge count", "add_k", "repeated successor",
                                   "repeated context", "context spelling",
                                   "empty successors", "context order", "successor order",
                                   "compact separators"]))
    m = draw(st.integers(0, order - 1))
    ctx, successors = draw(st.sampled_from(sorted(tables[m].items())))
    bad_index = draw(st.sampled_from([-2, -1, size, size + 1, size + 2]))
    if defect == "context index" and not ctx:
        defect = None  # the order-0 table's empty context has no index to damage
    if defect == "context index":
        tables[m][ctx[:-1] + (bad_index,)] = tables[m].pop(ctx)
    elif defect == "successor index":
        successors[bad_index] = draw(count)
    elif defect == "count":
        successors[min(successors)] = draw(st.sampled_from([-1, 0]))
    elif defect == "context length":
        tables[m][ctx[:-1] if ctx else (0,)] = tables[m].pop(ctx)
    doc = {
        "order": float(order) if defect == "float order" else order,
        "add_k": draw(st.sampled_from([0.0, float("nan"), float("inf")]))
        if defect == "add_k" else 0.1,
        "tables": [[[",".join(map(str, c)), [list(p) for p in sorted(nxt.items())]]
                    for c, nxt in sorted(t.items())] for t in tables],
    }
    entries = doc["tables"][m]
    at = draw(st.integers(0, len(entries) - 1))
    entry = entries[at]  # [context, successors]
    pair = entry[1][0]  # [index, count]
    if defect == "non-integer value":
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from([True, False, 1.0, 2.5, "1", None]))
    elif defect == "huge count":
        pair[1] = draw(st.sampled_from([2**53 + 1, 10**400]))
    elif defect == "repeated successor":
        entry[1].append([pair[0], draw(count)])
    elif defect == "repeated context":
        entries.append([entry[0], [[draw(index), draw(count)]]])
    elif defect == "context spelling":
        spelt = entry[0]
        entry[0] = draw(st.sampled_from(
            [None, 0, [], " ", "0"] if not spelt else
            ["+" + spelt, "0" + spelt, " " + spelt, spelt + " ", spelt + ",",
             spelt.translate(FULLWIDTH_DIGITS), spelt.split(",")]))
    elif defect == "empty successors":
        entry[1].clear()
    elif defect == "context order" and len(entries) > 1:
        entries[at - 1], entries[at] = entries[at], entries[at - 1]  # at = 0 swaps the ends
    elif defect == "successor order" and len(entry[1]) > 1:
        entry[1].reverse()
    elif defect in ("context order", "successor order"):
        defect = None  # a single context or successor has no order to break
    compact = defect == "compact separators"
    return doc, model_file(doc, separators=(",", ":") if compact else None), defect is None


FULLWIDTH_DIGITS = str.maketrans("0123456789", "０１２３４５６７８９")  # int() reads these too


def model_file(doc, separators=None) -> bytes:
    payload = json.dumps(doc, sort_keys=True, separators=separators).encode()
    return (f"STEGOLM v1\nbackend: ngram\nvocab_hash: {VOCAB.content_hash()}\n"
            f"config: {{}}\npayload_bytes: {len(payload)}\n").encode() + payload


@FUZZ
@given(ngram_documents())
def test_ngram_payload_checks(document):
    doc, data, valid = document
    model = parse_or_refuse(lambda d: deserialize_model(d, VOCAB), data)
    assert (model is not None) == valid
    if model is not None:
        assert serialize_model(model) == model_file(doc)
        assert_tables_equal(json.dumps(doc, sort_keys=True).encode())
        assert decode_payload(encode(PAYLOAD, KEY, model, POLICY).tokens, KEY) == PAYLOAD.data
