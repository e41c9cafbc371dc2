import json
from pathlib import Path

import numpy as np
import pytest

from stegolm.corpus import CorpusConfig, Vocabulary, build_vocab, tokenize
from stegolm.keying import BIN_RESERVED, StegoKey
from stegolm.lm.base import LanguageModel
from stegolm.lm.ngram import NgramConfig, _read_tables, train_ngram

DATA = Path(__file__).resolve().parent.parent / "src" / "stegolm" / "data"

# Hand-assigned 2-bit fixture key: four bins over a 14-word vocabulary, used
# everywhere a known bits<->tokens mapping is needed.
FIXTURE_BINS = {
    0: ("This", "am", "weather"),        # block 00
    1: ("was", "attaching", "today"),    # block 01
    2: ("I", "better", "an", "Great"),   # block 10
    3: ("great", "than", "NDA", "."),    # block 11
}

# Repeating one sentence makes its bigrams dominate, so greedy constrained
# selection walks exactly through it; the tail line covers the rest of the
# vocabulary once.
STEER_TEXT = "I am attaching an NDA .\n" * 40 + \
    "This was today better Great great than weather .\n"

RAW_CONFIG = CorpusConfig(lowercase=False, replace_users_urls=False)


class FixedModel(LanguageModel):
    """Context-free model returning one fixed distribution; test oracle aid."""

    backend = "fixed"

    def __init__(self, vocab, probs):
        super().__init__(vocab)
        self.probs = np.asarray(probs, dtype=np.float64)
        assert len(self.probs) == len(vocab)

    def initial_context(self):
        return ()

    def advance(self, ctx, token_index):
        self.check_index(token_index)
        return ()

    def next_distribution(self, ctx):
        return self.probs.copy()


def int_respellings(number: str) -> list[str]:
    """Other spellings of ``number`` that ``int`` reads as the same number: a
    digit group (from two digits on), Arabic-Indic digits, fullwidth digits and a
    leading no-break space. A file spelling a number so has a second spelling."""
    spellings = [number.translate({48 + d: 0x660 + d for d in range(10)}),
                 number.translate({48 + d: 0xFF10 + d for d in range(10)}), "\xa0" + number]
    if len(number) > 1:
        spellings.append(number[0] + "_" + number[1:])
    assert all(spelt != number and int(spelt) == int(number) for spelt in spellings)
    return spellings


def json_tables(payload: bytes) -> list[tuple[np.ndarray, np.ndarray]]:
    """The tables of an n-gram payload as ``(grams, counts)`` per table, read with
    ``json`` and a loop over every context and successor: the reference that
    ``stegolm.lm.ngram._read_tables`` must equal array for array."""
    tables = []
    for m, entries in enumerate(json.loads(payload)["tables"]):
        grams, counts = [], []
        for context, successors in entries:
            indices = [int(i) for i in context.split(",")] if m else []
            for successor, count in successors:
                grams.append([*indices, successor])
                counts.append(count)
        tables.append((np.array(grams, np.int64).reshape(-1, m + 1), np.array(counts, np.int64)))
    return tables


def assert_tables_equal(payload: bytes):
    """``_read_tables`` of ``payload``'s tables equals ``json_tables`` of it."""
    read = _read_tables(payload.partition(b', "tables": ')[2])
    expected = json_tables(payload)
    assert len(read) == len(expected)
    for (grams, counts), (json_grams, json_counts) in zip(read, expected):
        for array, reference in ((grams, json_grams), (counts, json_counts)):
            assert array.dtype == reference.dtype and array.shape == reference.shape
            assert np.array_equal(array, reference)


@pytest.fixture(scope="session")
def fixture_vocab() -> Vocabulary:
    return build_vocab(tokenize(STEER_TEXT, RAW_CONFIG), RAW_CONFIG)


@pytest.fixture(scope="session")
def fixture_key(fixture_vocab) -> StegoKey:
    slots = np.full(len(fixture_vocab), BIN_RESERVED)
    for value, surfaces in FIXTURE_BINS.items():
        slots[fixture_vocab.indices(surfaces)] = value
    return StegoKey(block_bits=2, slot_array=slots, seed=0, vocab=fixture_vocab)


@pytest.fixture(scope="session")
def steered_bigram(fixture_vocab):
    tokens = tokenize(STEER_TEXT, RAW_CONFIG)
    return train_ngram(tokens, fixture_vocab, NgramConfig(order=2, add_k=0.001))


@pytest.fixture(scope="session")
def desk_text() -> str:
    return (DATA / "desk_corpus.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def desk_config() -> CorpusConfig:
    return CorpusConfig(drop_retweets=True)


@pytest.fixture(scope="session")
def desk_tokens(desk_text, desk_config):
    return tokenize(desk_text, desk_config)


@pytest.fixture(scope="session")
def desk_vocab(desk_tokens, desk_config) -> Vocabulary:
    return build_vocab(desk_tokens, desk_config)


@pytest.fixture(scope="session")
def desk_trigram(desk_tokens, desk_vocab):
    """Trigram on the first 90 % of the desk corpus (the rest is held out)."""
    train = desk_tokens[:int(len(desk_tokens) * 0.9)]
    return train_ngram(train, desk_vocab, NgramConfig(order=3, add_k=0.05))


@pytest.fixture(scope="session")
def mini_tokens():
    """Small synthetic stream for fast codec/model tests."""
    rng = np.random.default_rng(11)
    words = [f"w{i:02d}" for i in range(40)]
    lines = []
    for _ in range(500):
        n = int(rng.integers(3, 9))
        lines.append(" ".join(rng.choice(words, size=n)) + " .")
    return tokenize("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def mini_vocab(mini_tokens) -> Vocabulary:
    return build_vocab(mini_tokens)


@pytest.fixture(scope="session")
def mini_bigram(mini_tokens, mini_vocab):
    return train_ngram(mini_tokens, mini_vocab, NgramConfig(order=2, add_k=0.1))
