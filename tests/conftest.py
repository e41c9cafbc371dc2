from pathlib import Path

import numpy as np
import pytest

from stegolm.corpus import CorpusConfig, Vocabulary, build_vocab, tokenize
from stegolm.keying import BIN_RESERVED, StegoKey
from stegolm.lm.base import LanguageModel
from stegolm.lm.ngram import NgramConfig, train_ngram

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
