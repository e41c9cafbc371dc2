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
import re
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

    def next_distributions(self, ctx: tuple[int, ...], ids) -> tuple[np.ndarray, tuple]:
        """The rows ``next_distribution`` builds, with the same operations, for all
        full-length contexts of the block at once; a shorter context (only at the
        start of a stream) is built alone."""
        k, size, keep = self.config.add_k, len(self.vocab), self.config.order - 1
        seq = [*ctx, *map(self.check_index, ids)]
        contexts = [tuple(seq[max(0, t - keep):t]) for t in range(len(ctx), len(seq))]
        runs, successors, counts = self._tables[keep]
        a, b, total = np.array([runs.get(c, (0, 0, 0)) for c in contexts],
                               np.float64).reshape(-1, 3).T
        denom = total + k * size
        probs = np.repeat((k / denom)[:, None], size, axis=1)
        # one flat gather of every row's successors[a:b] and counts[a:b]
        lengths = (b - a).astype(np.int64)
        rows = np.repeat(np.arange(len(contexts)), lengths)
        first = np.cumsum(lengths) - lengths  # where each row's entries start in the gather
        flat = np.arange(len(rows)) + np.repeat(a.astype(np.int64) - first, lengths)
        probs[rows, successors[flat]] += counts[flat] / denom[rows]
        for t, c in enumerate(contexts[:keep]):
            if len(c) < keep:
                probs[t] = self.next_distribution(c)
        return probs, tuple(seq[max(0, len(seq) - keep):])

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
        """Inverse of ``header_config``/``to_payload``, contexts in any order: the
        config is ``{}``, table ``m`` holds length-``m`` contexts, each a string
        spelt as ``to_payload`` spells it and listed once, with at least one
        successor and each successor once, every index lies in ``[0, |V|)``,
        every successor index and count is a JSON integer and every count lies
        in ``[1, 2**53]`` (so float64 holds it exactly)."""
        if header != {}:
            raise ModelFormatError("an ngram model's config line must be {}")
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
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad ngram payload: {exc}") from None


def _read_table(m: int, entries: list, size: int) -> tuple[np.ndarray, list[int]]:
    """Table ``m`` of an n-gram payload as ``(grams, counts)``, checked as in ``from_payload``."""
    spelt = [c for c, _ in entries]  # as to_payload spells them: m plain indices, comma-separated
    fullmatch = re.compile(",".join(["(?:0|[1-9][0-9]*)"] * m)).fullmatch
    if (not set(map(type, spelt)) <= {str} or not all(map(fullmatch, spelt))
            or len(set(spelt)) < len(spelt)):
        raise ModelFormatError(f"a context repeats or is not {m} indices spelt as in to_payload")
    if not all(s for _, s in entries):
        raise ModelFormatError("a context has no successors")
    # m indices per context, read in one pass (none when m = 0 or the table is empty)
    flat = list(map(int, filter(None, ",".join(spelt).split(","))))
    pairs = list(chain.from_iterable(s for _, s in entries))
    values = list(chain.from_iterable(pairs))  # index, count, index, count, ...
    if set(map(len, pairs)) - {2} or not set(map(type, values)) <= {int}:  # no bools
        raise ModelFormatError("ngram successor is not an [index, count] integer pair")
    counts = values[1::2]  # checked before any int64 conversion
    if counts and not 1 <= min(counts) <= max(counts) <= 2**53:
        raise ModelFormatError("ngram count outside [1, 2**53]")
    indices = flat + values[0::2]
    if indices and not 0 <= min(indices) <= max(indices) < size:
        raise ModelFormatError(f"ngram token index outside [0, {size})")
    grams = np.repeat(np.array(flat, np.int64).reshape(len(spelt), m),
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
