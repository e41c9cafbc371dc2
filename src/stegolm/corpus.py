r"""Corpus ingestion: tokenization, normalization and vocabulary construction.

The tokenizer is deliberately self-contained (no third-party models) so that
sender and receiver always agree on the token stream:

* input is one message per line; each newline-terminated message is followed
  by an ``<eos>`` token, empty messages are skipped entirely
* a whitespace chunk (a run of characters that are not ``str.isspace()``)
  that starts with ``http://``, ``https://`` or ``www.`` (any case) becomes
  ``<url>`` and one that starts with ``@`` becomes ``<user>``, if more follows
  the prefix and ``replace_users_urls`` is on. Both rules see the whole chunk,
  before any punctuation is detached: in ``_TOKEN_RE``, ``(?<!\S)`` starts
  them only at a chunk's start and ``\S+`` runs to its end
* everything else splits into words (letters/digits, internal apostrophes
  allowed) and single punctuation characters
* with ``lowercase`` on, every token is lowercased
* with ``drop_retweets`` on, messages whose first token is ``rt`` (any case)
  are dropped wholesale

Vocabularies order tokens by descending count with lexicographic tie-breaks,
which makes every derived artifact (keys, models) reproducible byte for byte.
Out-of-vocabulary occurrences are folded into ``<unk>`` so counts always sum
to the corpus token total.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CorpusError, VocabFormatError, check_int

USER_TOKEN = "<user>"
URL_TOKEN = "<url>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

#: Sentinels that may never carry payload bits and never join the common set.
RESERVED_NONCARRIERS = (EOS_TOKEN, UNK_TOKEN)

VOCAB_HEADER = "STEGOVOCAB v1"

_WORD_OR_PUNCT = r"\w+(?:'\w+)*|[^\w\s]"
_WORD_OR_PUNCT_RE = re.compile(_WORD_OR_PUNCT)
#: ``findall`` groups: (url, user, word-or-punctuation).
_TOKEN_RE = re.compile(rf"(?<!\S)((?i:https?://|www\.)\S+)|(?<!\S)(@\S+)|({_WORD_OR_PUNCT})")


@dataclass(frozen=True)
class CorpusConfig:
    """Normalization switches applied during tokenization and vocab building."""

    lowercase: bool = True
    replace_users_urls: bool = True
    drop_retweets: bool = False
    max_vocab: int | None = None
    min_count: int = 0

    def __post_init__(self):
        if self.max_vocab is not None:  # at least 2: the sentinels are always kept
            check_int("max_vocab", self.max_vocab, 2)
        check_int("min_count", self.min_count, 0)


def check_token(surface: str) -> str:
    """Validate a token surface: non-empty, no whitespace. Returns it unchanged."""
    if not surface:
        raise CorpusError("empty token surface")
    if surface.split() != [surface]:  # the characters str.isspace() calls whitespace
        raise CorpusError(f"token contains whitespace: {surface!r}")
    return surface


def tokenize(raw_text: str, config: CorpusConfig = CorpusConfig()) -> list[str]:
    """Tokenize raw text (one message per line) into a flat token sequence.

    Newline-terminated messages are followed by ``<eos>``; text after the
    final newline is treated as an unterminated message and gets no ``<eos>``.
    """
    lower = str.lower if config.lowercase else str  # str(s) is s
    lines = raw_text.split("\n")
    out: list[str] = []
    for number, line in enumerate(lines, 1):
        if config.replace_users_urls:  # the sentinels themselves, never lowered copies
            tokens = [URL_TOKEN if url else USER_TOKEN if user else lower(word)
                      for url, user, word in _TOKEN_RE.findall(line)]
        else:
            tokens = list(map(lower, _WORD_OR_PUNCT_RE.findall(line)))
        if not tokens or (config.drop_retweets and tokens[0].lower() == "rt"):
            continue
        out.extend(tokens)
        if number < len(lines):
            out.append(EOS_TOKEN)
    return out


def _vocab_sort_key(item: tuple[str, int]) -> tuple[int, str]:
    surface, count = item
    return (-count, surface)


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token list with occurrence counts.

    Tokens are unique and sorted by descending count, ties broken
    lexicographically on the surface; the index of a token is its position
    in this ordering.
    """

    tokens: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.counts):
            raise VocabFormatError("tokens and counts differ in length")
        try:
            for surface in self.tokens:
                if not isinstance(surface, str):
                    raise CorpusError(f"token surface is not a string: {surface!r}")
                check_token(surface)
        except CorpusError as exc:
            raise VocabFormatError(str(exc)) from None
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabFormatError("duplicate token in vocabulary")
        for count in self.counts:  # integer kind checked, never coerced
            if isinstance(count, bool) or not isinstance(count, Integral):
                raise VocabFormatError(f"count is not an integer: {count!r}")
        if any(c < 0 for c in self.counts):
            raise VocabFormatError("negative count in vocabulary")
        # int: a numpy unsigned count would wrap around when negated
        ordered = sorted(zip(self.tokens, map(int, self.counts)), key=_vocab_sort_key)
        if tuple(t for t, _ in ordered) != self.tokens:
            raise VocabFormatError("vocabulary violates the (count desc, surface asc) ordering")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __repr__(self) -> str:
        return f"Vocabulary(size={len(self.tokens)}, total={sum(self.counts)})"

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, surface: str) -> bool:
        return surface in self._index

    def index_of(self, surface: str) -> int:
        try:
            return self._index[surface]
        except KeyError:
            raise CorpusError(f"token not in vocabulary: {surface!r}") from None

    def index_array(self, surfaces: Sequence[str]) -> np.ndarray:
        """Index of every surface, -1 for a surface outside the vocabulary: one
        int64 array filled in one pass, with no list between."""
        return np.fromiter(map(self._index.get, surfaces, repeat(-1)), np.int64, len(surfaces))

    def indices_or_unk(self, surfaces: Sequence[str]) -> np.ndarray:
        """``index_array`` with <unk>'s index for a surface outside the vocabulary
        (``CorpusError`` for one if the vocabulary has no <unk>)."""
        ids = self.index_array(surfaces)
        outside = ids < 0
        if outside.any():
            ids[outside] = self.index_of(UNK_TOKEN)  # raises: nothing to fold the surface into
        return ids

    def token(self, index: int) -> str:
        """Surface at ``index``, an integer (Python or numpy; never a bool or a
        float) in ``[0, |V|)``; otherwise ``CorpusError``."""
        if type(index) is not int and not isinstance(index, np.integer):
            raise CorpusError(f"token index must be an integer, not {index!r}")
        if not 0 <= index < len(self.tokens):
            raise CorpusError(f"token index out of range: {index}")
        return self.tokens[index]

    def count(self, surface: str) -> int:
        return self.counts[self.index_of(surface)]

    def serialize(self) -> bytes:
        lines = [VOCAB_HEADER]
        lines.extend(f"{t}\t{c}" for t, c in zip(self.tokens, self.counts))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def content_hash(self) -> str:
        """Hex digest of the canonical serialization; keys and models pin this."""
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hashlib.sha256(self.serialize()).hexdigest()
            object.__setattr__(self, "_hash", cached)
        return cached

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.serialize())

    @classmethod
    def deserialize(cls, data: bytes) -> "Vocabulary":
        """Inverse of ``serialize``, checked by it: ``data`` loads only if
        ``serialize`` of the loaded vocabulary gives back exactly ``data``."""
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise VocabFormatError(f"vocabulary file is not UTF-8: {exc}") from None
        if lines[0] != VOCAB_HEADER:
            raise VocabFormatError(f"missing {VOCAB_HEADER!r} header")
        # what follows the last newline is left out; the comparison refuses any
        rows = [line.partition("\t") for line in lines[1:-1]]
        try:
            counts = tuple(int(count) for _, _, count in rows)
        except ValueError as exc:
            raise VocabFormatError(f"expected 'token<TAB>count' lines: {exc}") from None
        vocab = cls(tuple(token for token, _, _ in rows), counts)
        if vocab.serialize() != data:
            raise VocabFormatError("vocabulary file is not spelt as serialize writes it")
        object.__setattr__(vocab, "_hash", hashlib.sha256(data).hexdigest())  # see content_hash
        return vocab

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls.deserialize(Path(path).read_bytes())


def build_vocab(tokens: Sequence[str], config: CorpusConfig = CorpusConfig()) -> Vocabulary:
    """Build a Vocabulary from a token stream.

    Tokens with count below ``min_count`` are dropped, then the list is
    truncated to ``max_vocab`` total entries (sentinels always kept); all
    dropped occurrences are credited to ``<unk>`` so counts sum to the
    stream length.
    """
    if not tokens:
        raise CorpusError("cannot build a vocabulary from an empty token stream")
    freq = Counter(tokens)
    for surface in freq:
        check_token(surface)
    eos_count = freq.pop(EOS_TOKEN, 0)
    unk_count = freq.pop(UNK_TOKEN, 0)

    items = [(t, c) for t, c in freq.items() if c >= config.min_count]
    dropped = sum(freq.values()) - sum(c for _, c in items)
    items.sort(key=_vocab_sort_key)
    if config.max_vocab is not None:
        keep = max(config.max_vocab - 2, 0)
        dropped += sum(c for _, c in items[keep:])
        items = items[:keep]

    items.append((EOS_TOKEN, eos_count))
    items.append((UNK_TOKEN, unk_count + dropped))
    items.sort(key=_vocab_sort_key)
    return Vocabulary(tuple(t for t, _ in items), tuple(c for _, c in items))


def read_text_file(path: str | Path) -> str:
    """Text of a UTF-8 corpus, token or stegotext file; ``CorpusError`` if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not UTF-8: {exc}") from None


def read_token_file(path: str | Path) -> list[str]:
    """Read a one-token-per-line file (the sidecar / prep output format)."""
    out = []
    for line in read_text_file(path).split("\n"):
        if line:
            out.append(check_token(line))
    return out


def write_token_file(path: str | Path, tokens: Iterable[str]) -> None:
    Path(path).write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")
