"""Count-based n-gram backend with add-k smoothing.

Contexts shorter than ``order - 1`` (only possible at the very start of a
stream) fall back to the matching lower-order table, so an empty context
yields the smoothed unigram distribution. Each order's counts live once, in a
compressed sparse row table: ``runs`` maps a seen context to ``(a, b, total)``,
its successors are ``successors[a:b]`` (ascending), with float64 ``counts[a:b]``.
"""

from __future__ import annotations

import json
import math
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
        if type(self.order) is not int or self.order < 1:  # refuses floats and bools too
            raise ConfigError(f"order must be an integer >= 1, not {self.order!r}")
        if not 0 < self.add_k < math.inf:  # refuses NaN too
            raise ConfigError("add_k must be positive and finite")


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Positions where the sorted ``rows`` change: 0, and every row unlike the one before."""
    return np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)][:len(rows)])


class NgramModel(LanguageModel):
    backend = "ngram"

    def __init__(self, vocab: Vocabulary, config: NgramConfig,
                 tables: Sequence[tuple[np.ndarray, np.ndarray]]):
        """``tables[m]`` is ``(grams, counts)``: length-``m + 1`` n-grams of indices in
        ``[0, |V|)`` (context, then successor) as rows in any order, and their counts;
        the counts of equal rows add up."""
        super().__init__(vocab)
        self.config = config
        self._tables = []
        keys = np.min_scalar_type(len(vocab))  # holds every index; radix-sorted up to 16 bits
        for m, (grams, counts) in enumerate(tables):
            grams = np.asarray(grams, np.int64).reshape(-1, m + 1)
            order = np.lexsort(grams.T[::-1].astype(keys))  # first column first
            grams, counts = grams[order], np.asarray(counts, np.int64)[order]
            distinct = _run_starts(grams)
            grams, counts = grams[distinct], np.add.reduceat(counts, distinct)
            starts = _run_starts(grams[:, :m])
            totals = np.add.reduceat(counts.astype(object), starts).tolist()  # no int64 wrap
            bounds = zip(starts.tolist(), [*starts[1:].tolist(), len(grams)], totals)
            runs = dict(zip(map(tuple, grams[starts, :m].tolist()), bounds))
            self._tables.append((runs, grams[:, -1].copy(), counts.astype(np.float64)))

    def initial_context(self) -> tuple[int, ...]:
        return ()

    def advance(self, ctx: tuple[int, ...], token_index: int) -> tuple[int, ...]:
        self.check_index(token_index)
        if self.config.order == 1:
            return ()
        return (ctx + (token_index,))[-(self.config.order - 1):]

    def next_distribution(self, ctx: tuple[int, ...]) -> np.ndarray:
        k, size, m = self.config.add_k, len(self.vocab), len(ctx)
        if m >= self.config.order:
            raise ValueError(f"context longer than order-1: {m} >= {self.config.order}")
        runs, successors, counts = self._tables[m]
        a, b, total = runs.get(ctx, (0, 0, 0))
        denom = total + k * size
        dist = np.full(size, k / denom)
        dist[successors[a:b]] += counts[a:b] / denom
        return dist

    def header_config(self) -> dict:
        """The ``config:`` header of a model file; the payload holds everything."""
        return {}

    def to_payload(self) -> bytes:
        tables = []
        for runs, successors, counts in self._tables:  # runs holds its contexts in sorted order
            pairs = list(zip(successors.tolist(), counts.astype(np.int64).tolist()))
            tables.append([[",".join(map(str, c)), pairs[a:b]] for c, (a, b, _) in runs.items()])
        doc = {"order": self.config.order, "add_k": self.config.add_k, "tables": tables}
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, vocab: Vocabulary, header: dict, payload: bytes) -> "NgramModel":
        """Inverse of ``to_payload``, contexts in any order: table ``m`` holds
        length-``m`` contexts, each listed once with each successor once, every
        index lies in ``[0, |V|)``, every successor index and count is a JSON
        integer and every count lies in ``[1, 2**53]`` (so float64 holds it exactly)."""
        try:
            doc = json.loads(payload.decode("utf-8"))
            config = NgramConfig(order=doc["order"], add_k=doc["add_k"])
            # popped, so the parsed tables are freed before the model is built
            tables = [_read_table(m, t, len(vocab)) for m, t in enumerate(doc.pop("tables"))]
            if len(tables) != config.order:
                raise ModelFormatError("ngram payload order does not match its tables")
            model = cls(vocab, config, tables)
            if [len(t[1]) for t in model._tables] != [len(g) for g, _ in tables]:
                raise ModelFormatError("a successor is listed twice in one context")
            return model
        except (AttributeError, KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"bad ngram payload: {exc}") from None


def _read_table(m: int, entries: list, size: int) -> tuple[np.ndarray, list[int]]:
    """Table ``m`` of an n-gram payload as ``(grams, counts)``, checked as in ``from_payload``."""
    contexts = [tuple(map(int, c.split(","))) if c else () for c, _ in entries]
    if set(map(len, contexts)) - {m} or len(set(contexts)) < len(contexts):
        raise ModelFormatError(f"a context repeats or is not of length {m}")
    pairs = list(chain.from_iterable(s for _, s in entries))
    values = list(chain.from_iterable(pairs))  # index, count, index, count, ...
    if set(map(len, pairs)) - {2} or not set(map(type, values)) <= {int}:  # no bools
        raise ModelFormatError("ngram successor is not an [index, count] integer pair")
    counts = values[1::2]  # checked before any int64 conversion
    if counts and not 1 <= min(counts) <= max(counts) <= 2**53:
        raise ModelFormatError("ngram count outside [1, 2**53]")
    indices = list(chain.from_iterable(contexts)) + values[0::2]
    if indices and not 0 <= min(indices) <= max(indices) < size:
        raise ModelFormatError(f"ngram token index outside [0, {size})")
    grams = np.repeat(np.array(contexts, np.int64).reshape(len(contexts), m),
                      [len(s) for _, s in entries], axis=0)
    return np.column_stack([grams, values[0::2]]), counts


def train_ngram(tokens: Sequence[str], vocab: Vocabulary,
                config: NgramConfig = NgramConfig()) -> NgramModel:
    """Count all n-grams of order 1..order over the stream (OOV mapped to <unk>)."""
    if not tokens:
        raise TrainingError("cannot train an n-gram model on an empty stream")
    n = config.order
    ids = np.fromiter(map(vocab.index_or_unk, tokens), np.int64, len(tokens))
    # windows[i] holds the n ids that end at token i, padded on the left with -1
    windows = np.lib.stride_tricks.sliding_window_view(np.r_[np.full(n - 1, -1), ids], n)
    grams = [windows[m:, n - 1 - m:] for m in range(n)]  # every (m + 1)-gram, once per occurrence
    return NgramModel(vocab, config, [(g, np.broadcast_to(1, len(g))) for g in grams])
