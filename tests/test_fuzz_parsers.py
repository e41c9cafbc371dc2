"""Fuzzing of the three file parsers (vocabulary, key, model).

The property: whatever the bytes, a parser raises a ``StegolmError`` subclass
or returns an object whose ``encode`` of a short payload succeeds or raises a
``StegolmError``. Inputs are arbitrary bytes, truncations and bit flips of
valid files, plus structured n-gram payloads with indices and counts around
the valid range or of the wrong JSON type. Vocabulary and models are tiny so
the module stays fast.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

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


def mangled(valid: bytes):
    """Arbitrary bytes, a truncation, or a few bit flips of a valid file."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 7)),
                     min_size=1, max_size=4)
    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        flips.map(lambda fs: flip(valid, fs)),
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
        assert deserialize_key(serialize_key(key), VOCAB) == key
        encode_or_refuse(NGRAM, key)


@FUZZ
@given(st.one_of(mangled(serialize_model(NGRAM)), mangled(serialize_model(LSTM))))
def test_model_parser(data):
    model = parse_or_refuse(lambda d: deserialize_model(d, VOCAB), data)
    if model is not None:
        encode_or_refuse(model, KEY)


@st.composite
def ngram_documents(draw):
    """An n-gram payload document and whether ``from_payload`` must accept it:
    valid tables with at most one defect, so indices span [-2, |V|+2] and
    counts [-1, 5], a context may be one token off its table's order, the
    order may be written as a float, a successor index or count may be a
    float, bool, string or null, a count may exceed 2**53, add_k may be
    zero, NaN or infinite, and a successor or a whole context may be listed
    twice."""
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
                                   "repeated context"]))
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
                    for c, nxt in t.items()] for t in tables],
    }
    entries = doc["tables"][m]
    entry = entries[draw(st.integers(0, len(entries) - 1))]  # [context, successors]
    pair = entry[1][0]  # [index, count]
    if defect == "non-integer value":
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from([True, False, 1.0, 2.5, "1", None]))
    elif defect == "huge count":
        pair[1] = draw(st.sampled_from([2**53 + 1, 10**400]))
    elif defect == "repeated successor":
        entry[1].append([pair[0], draw(count)])
    elif defect == "repeated context":
        entries.append([entry[0], [[draw(index), draw(count)]]])
    return doc, defect is None


@FUZZ
@given(ngram_documents())
def test_ngram_payload_checks(document):
    doc, valid = document
    payload = json.dumps(doc, sort_keys=True).encode()
    data = (f"STEGOLM v1\nbackend: ngram\nvocab_hash: {VOCAB.content_hash()}\n"
            f"config: {{}}\npayload_bytes: {len(payload)}\n").encode() + payload
    model = parse_or_refuse(lambda d: deserialize_model(d, VOCAB), data)
    assert (model is not None) == valid
    if model is not None:
        assert decode_payload(encode(PAYLOAD, KEY, model, POLICY).tokens, KEY) == PAYLOAD.data
