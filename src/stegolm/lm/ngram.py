"""Count-based n-gram backend with add-k smoothing.

Contexts shorter than ``order - 1`` (only possible at the very start of a
stream) fall back to the matching lower-order table, so an empty context
yields the smoothed unigram distribution.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..corpus import Vocabulary
from ..errors import ConfigError, ModelFormatError, TrainingError
from .base import LanguageModel


@dataclass(frozen=True)
class NgramConfig:
    order: int = 3
    add_k: float = 0.01

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError("order must be >= 1")
        if not 0 < self.add_k < math.inf:  # refuses NaN too
            raise ConfigError("add_k must be positive and finite")


class NgramModel(LanguageModel):
    backend = "ngram"

    def __init__(self, vocab: Vocabulary, config: NgramConfig,
                 tables: list[dict[tuple[int, ...], dict[int, int]]]):
        super().__init__(vocab)
        self.config = config
        # tables[m] maps a length-m context to {next_index: count}.
        self.tables = tables
        self._totals = [
            {ctx: sum(nxt.values()) for ctx, nxt in table.items()} for table in tables
        ]

    def initial_context(self) -> tuple[int, ...]:
        return ()

    def advance(self, ctx: tuple[int, ...], token_index: int) -> tuple[int, ...]:
        self.check_index(token_index)
        if self.config.order == 1:
            return ()
        return (ctx + (token_index,))[-(self.config.order - 1):]

    def next_distribution(self, ctx: tuple[int, ...]) -> np.ndarray:
        size = len(self.vocab)
        m = len(ctx)
        if m >= self.config.order:
            raise ValueError(f"context longer than order-1: {m} >= {self.config.order}")
        k = self.config.add_k
        total = self._totals[m].get(ctx, 0)
        denom = total + k * size
        dist = np.full(size, k / denom)
        for token_index, count in self.tables[m].get(ctx, {}).items():
            dist[token_index] += count / denom
        return dist

    def header_config(self) -> dict:
        """The ``config:`` header of a model file; the payload holds everything."""
        return {}

    def to_payload(self) -> bytes:
        serializable = []
        for table in self.tables:
            entries = []
            for ctx in sorted(table):
                successors = sorted(table[ctx].items())
                entries.append([",".join(map(str, ctx)), successors])
            serializable.append(entries)
        doc = {"order": self.config.order, "add_k": self.config.add_k, "tables": serializable}
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, vocab: Vocabulary, header: dict, payload: bytes) -> "NgramModel":
        """Inverse of ``to_payload``: table ``m`` holds length-``m`` contexts,
        every index lies in ``[0, |V|)``, every successor index and count is a
        JSON integer and every count lies in ``[1, 2**53]``."""
        try:
            doc = json.loads(payload.decode("utf-8"))
            if type(doc["order"]) is not int:
                raise ModelFormatError(f"ngram order is not an integer: {doc['order']!r}")
            config = NgramConfig(order=doc["order"], add_k=doc["add_k"])
            tables: list[dict[tuple[int, ...], dict[int, int]]] = []
            for m, entries in enumerate(doc["tables"]):
                table: dict[tuple[int, ...], dict[int, int]] = {}
                for ctx_str, successors in entries:
                    ctx = tuple(int(p) for p in ctx_str.split(",")) if ctx_str else ()
                    if len(ctx) != m:
                        raise ModelFormatError(f"context {ctx} in the length-{m} table")
                    table[ctx] = dict(successors)
                # index, count, index, count, ... over every [index, count] pair
                values = list(chain.from_iterable(chain.from_iterable(s for _, s in entries)))
                if not set(map(type, values)) <= {int}:  # rejects floats, bools, strings
                    raise ModelFormatError("ngram successor index or count is not an integer")
                counts = values[1::2]
                if counts and not 1 <= min(counts) <= max(counts) <= 2**53:
                    raise ModelFormatError("ngram count outside [1, 2**53]")
                indices = list(chain.from_iterable(table)) + values[0::2]
                if indices and not 0 <= min(indices) <= max(indices) < len(vocab):
                    raise ModelFormatError(f"ngram token index outside [0, {len(vocab)})")
                tables.append(table)
        except (AttributeError, KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"bad ngram payload: {exc}") from None
        if len(tables) != config.order:
            raise ModelFormatError("ngram payload order does not match its tables")
        return cls(vocab, config, tables)


def train_ngram(tokens: Sequence[str], vocab: Vocabulary,
                config: NgramConfig = NgramConfig()) -> NgramModel:
    """Count all n-grams of order 1..order over the stream (OOV mapped to <unk>)."""
    if not tokens:
        raise TrainingError("cannot train an n-gram model on an empty stream")
    ids = [vocab.index_or_unk(t) for t in tokens]
    raw: list[defaultdict] = [defaultdict(lambda: defaultdict(int)) for _ in range(config.order)]
    for i, target in enumerate(ids):
        for m in range(config.order):
            if i < m:
                break
            raw[m][tuple(ids[i - m:i])][target] += 1
    tables = [{ctx: dict(nxt) for ctx, nxt in table.items()} for table in raw]
    return NgramModel(vocab, config, tables)
