"""Count-based n-gram backend with add-k smoothing.

Contexts shorter than ``order - 1`` (only possible at the very start of a
stream) fall back to the matching lower-order table, so an empty context
yields the smoothed unigram distribution. Each order's counts live once, in a
compressed sparse row table: ``runs`` maps a seen context to ``(a, b, total)``,
its successors are ``successors[a:b]`` (ascending), with float64 ``counts[a:b]``.

A payload is ``json.dumps(doc, sort_keys=True)`` of ``{"add_k", "order", "tables"}``.
Only its head goes through ``json``: each table is written with one ``%`` format,
and one ``np.fromstring`` pass reads all of them.
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
        if not isinstance(self.add_k, float) or not 0 < self.add_k < math.inf:  # refuses NaN too
            raise ConfigError(f"add_k must be a positive finite float, not {self.add_k!r}")


#: The brackets that open a table and a ``[context, successors]`` row become mark
#: numbers, above every count (2**53) and below the 2**63 - 1 that ``np.fromstring``
#: reads a digit run past int64 as; every other non-digit becomes a blank.
_TABLE, _ROW = 2**62, 2**62 + 1
_MARKS = ((b'[["', b" %d %d " % (_TABLE, _ROW)), (b'["', b" %d " % _ROW),
          (b"[]", b" %d " % _TABLE))
_BLANK_NON_DIGITS = bytes(c if 48 <= c <= 57 else 32 for c in range(256))


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Positions where the sorted ``rows`` change: 0, and every row unlike the one before."""
    return np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)][:len(rows)])


class NgramModel(LanguageModel):
    backend = "ngram"

    def __init__(self, vocab: Vocabulary, config: NgramConfig,
                 tables: Sequence[tuple[np.ndarray, np.ndarray]]):
        """``tables[m]`` is ``(grams, counts)``: length-``m + 1`` n-grams of indices in
        ``[0, |V|)`` (context, then successor) as rows in any order, and one count
        per row; the counts of equal rows add up. Every count must be at least 1 and
        the counts of equal rows must add up to at most 2**53, so float64 holds each
        sum exactly; otherwise ``ConfigError``."""
        super().__init__(vocab)
        self.config = config
        self._tables = []
        size = len(vocab)
        keys = np.min_scalar_type(size)  # holds every index; radix-sorted up to 16 bits
        for m, (grams, counts) in enumerate(tables):
            try:  # OverflowError: an index or count past int64
                grams = np.asarray(grams, np.int64).reshape(-1, m + 1)
                counts = np.asarray(counts, np.int64).reshape(len(grams))
            except (OverflowError, ValueError) as exc:
                raise ConfigError(f"ngram table {m}: {exc}") from None
            order = np.lexsort(grams.T[::-1].astype(keys))  # first column first
            grams, counts = grams[order], counts[order]
            distinct = _run_starts(grams)
            grams, summed = grams[distinct], np.add.reduceat(counts, distinct)
            if not 0 <= grams.min(initial=0) <= grams.max(initial=0) < size:
                raise ConfigError(f"ngram token index outside [0, {size})")
            # With every count at least 1, an int64 sum can wrap around only if the
            # table's counts add up past 2**63; a float64 sum never wraps.
            wrapped = (len(counts) * int(counts.max(initial=0)) >= 2**63 and
                       np.add.reduceat(counts, distinct, dtype=np.float64).max() > 2**53)
            if counts.min(initial=1) < 1 or summed.max(initial=1) > 2**53 or wrapped:
                raise ConfigError("ngram count below 1, or equal rows add up past 2**53")
            counts = summed
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
        """``json.dumps(doc, sort_keys=True)`` of ``{"add_k", "order", "tables"}``,
        written directly: table ``m`` lists ``[context, [[successor, count], ...]]``,
        each context ``m`` indices joined by commas, contexts and successors in
        ascending order. Each table is one ``%`` format of one argument array."""
        tables = []
        for m, (runs, successors, counts) in enumerate(self._tables):
            # runs lists the contexts in ascending order, and their successors follow
            # one another in successors
            contexts = np.fromiter(chain.from_iterable(runs), np.int64, len(runs) * m)
            starts = np.fromiter((a for a, _, _ in runs.values()), np.int64, len(runs))
            lengths = np.diff(starts, append=len(successors))
            # row r's arguments: its m context indices, then successor and count per pair
            args = np.empty(len(contexts) + 2 * len(successors), np.int64)
            first = np.arange(len(runs)) * m + 2 * starts  # where row r's arguments start
            args[first[:, None] + np.arange(m)] = contexts.reshape(len(runs), m)
            row = np.repeat(np.arange(len(runs)), lengths)  # of each successor
            pair = (row + 1) * m + 2 * np.arange(len(successors))  # where its arguments are
            args[pair], args[pair + 1] = successors, counts
            context = '"' + ",".join(["%d"] * m) + '"'
            pieces = {n: f'[{context}, [{", ".join(["[%d, %d]"] * n)}]]'
                      for n in set(lengths.tolist())}  # one per row length
            fmt = "[" + ", ".join(map(pieces.__getitem__, lengths.tolist())) + "]"
            tables.append(fmt % tuple(args.tolist()))
        return (f'{{"add_k": {json.dumps(self.config.add_k)}, "order": {self.config.order}, '
                f'"tables": [{", ".join(tables)}]}}').encode("utf-8")

    @classmethod
    def from_payload(cls, vocab: Vocabulary, header: dict, payload: bytes) -> "NgramModel":
        """Inverse of ``header_config``/``to_payload``: ``json`` reads the head up to
        ``, "tables": ``, ``_read_tables`` the rest, and the constructor checks
        every index and count (``ConfigError`` becomes ``ModelFormatError``). Bytes
        that ``to_payload`` would not write may load as some other model here;
        ``deserialize_model`` refuses them."""
        head, tables_key, body = payload.partition(b', "tables": ')
        try:
            if not tables_key:
                raise ValueError('no "tables"')
            doc = json.loads(head + b"}")
            config = NgramConfig(order=doc["order"], add_k=doc["add_k"])
            tables = _read_tables(body)
            if len(tables) != config.order:
                raise ValueError("ngram payload order does not match its tables")
            return cls(vocab, config, tables)
        except (IndexError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad ngram payload: {exc}") from None


def _read_tables(body: bytes) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``"tables"`` value of a payload as ``(grams, counts)`` per table, in
    payload order. Every number is read in one pass: the brackets that open a
    table or a row become marks (``_MARKS``), every other non-digit a blank, and
    one ``np.fromstring`` reads what is left. Table ``m``'s rows then give their
    ``m`` context indices and ``successor, count`` pairs. Nothing is checked here:
    misplaced numbers raise ``IndexError`` or ``ValueError`` or read as other
    arrays."""
    for mark, number in _MARKS:
        body = body.replace(mark, number)
    numbers = np.fromstring(body.translate(_BLANK_NON_DIGITS), np.int64, sep=" ")
    tables = []
    for m, table in enumerate(np.split(numbers, np.flatnonzero(numbers == _TABLE))[1:]):
        table = table[1:]  # after its mark
        rows = np.flatnonzero(table == _ROW)
        context = rows[:, None] + np.arange(1, m + 1)  # where each row's context indices are
        in_pair = np.ones(len(table), bool)
        in_pair[rows] = in_pair[context] = False
        pairs = table[in_pair].reshape(-1, 2)  # successor, count
        per_row = (np.diff(np.r_[rows, len(table)]) - 1 - m) // 2
        grams = np.column_stack([np.repeat(table[context], per_row, axis=0), pairs[:, 0]])
        tables.append((grams, pairs[:, 1]))
    return tables


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
