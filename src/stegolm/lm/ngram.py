"""Count-based n-gram backend with add-k smoothing.

Contexts shorter than ``order - 1`` (only possible at the very start of a
stream) fall back to the matching lower-order table, so an empty context
yields the smoothed unigram distribution. Each order's counts live once, in a
compressed sparse row table of the arrays the constructor checks: context ``r``
is ``keys[r]``, its indices packed as one int64 in base ``|V|`` (first index
most significant), its successors are ``successors[a:b]`` (ascending), with
int64 ``counts[a:b]``, from ``a = bounds[r]`` to ``b = bounds[r + 1]``, and its
``totals[r]`` is their exact sum rounded once to float64. The contexts ascend,
so their keys do; the constructor refuses ``|V| ** (order - 1) >= 2**63``, so
every key fits. The order check finds where each n-gram first differs from the
one before, and a difference inside the context starts a new one. ``runs``
maps a key to ``(a, b, total)`` for ``next_distribution``; ``next_distributions``
packs every full-length context of a block in numpy and finds them all with one
``keys.searchsorted``; ``to_payload`` unpacks the keys and writes from the arrays.

A payload is ``json.dumps(doc, sort_keys=True)`` of ``{"add_k", "order", "tables"}``.
Only its head goes through ``json``: each table is written with one ``%`` format,
and one ``np.fromstring`` pass reads all of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import Vocabulary
from ..errors import ConfigError, ModelFormatError, TrainingError, check_int
from .base import LanguageModel


@dataclass(frozen=True)
class NgramConfig:
    order: int = 3
    add_k: float = 0.01

    def __post_init__(self):
        check_int("order", self.order, 1)
        if not isinstance(self.add_k, float) or not 0 < self.add_k < math.inf:  # refuses NaN too
            raise ConfigError(f"add_k must be a positive finite float, not {self.add_k!r}")


#: The brackets that open a table and a ``[context, successors]`` row become mark
#: numbers, above every count (2**53) and below the 2**63 - 1 that ``np.fromstring``
#: reads a digit run past int64 as; every other non-digit becomes a blank.
_TABLE, _ROW = 2**62, 2**62 + 1
_MARKS = ((b'[["', b" %d %d " % (_TABLE, _ROW)), (b'["', b" %d " % _ROW),
          (b"[]", b" %d " % _TABLE))
_BLANK_NON_DIGITS = bytes(c if 48 <= c <= 57 else 32 for c in range(256))


class NgramModel(LanguageModel):
    backend = "ngram"

    def __init__(self, vocab: Vocabulary, config: NgramConfig,
                 tables: Sequence[tuple[np.ndarray, np.ndarray]]):
        """``tables[m]`` is ``(grams, counts)`` as a payload lists them and ``train_ngram``
        counts them: distinct length-``m + 1`` n-grams of integer indices in ``[0, |V|)``
        (context, then successor) as rows in ascending order, and one integer count in
        ``[1, 2**53]`` per row, so float64 holds it exactly; and one table per order;
        otherwise ``ConfigError``."""
        super().__init__(vocab)
        self.config = config
        if len(tables) != config.order:
            raise ConfigError(f"{len(tables)} ngram tables for order {config.order}")
        size = len(vocab)
        if size ** min(config.order - 1, 64) >= 2**63:  # min: no huge power for a huge order
            raise ConfigError(f"|V| ** (order - 1) = {size} ** {config.order - 1} is not "
                              f"below 2**63, so a context does not fit one int64 key")
        self._tables = []
        for m, (grams, counts) in enumerate(tables):
            try:  # ValueError: a ragged list, or not one count per row
                grams, counts = np.asarray(grams), np.asarray(counts)
                if grams.size and not {grams.dtype.kind, counts.dtype.kind} <= {"i", "u"}:
                    raise ValueError("indices and counts must be integers")  # never coerced
                grams = grams.astype(np.int64, copy=False).reshape(-1, m + 1)
                counts = counts.astype(np.int64).reshape(len(grams))
            except ValueError as exc:
                raise ConfigError(f"ngram table {m}: {exc}") from None
            if not 0 <= grams.min(initial=0) <= grams.max(initial=0) < size:
                raise ConfigError(f"ngram token index outside [0, {size})")
            if counts.min(initial=1) < 1 or counts.max(initial=1) > 2**53:
                raise ConfigError("ngram count outside [1, 2**53]")
            step = np.diff(grams, axis=0)  # rows ascend: each step's first nonzero is > 0
            column = (step != 0).argmax(axis=1)  # where each row first differs
            if (step[np.arange(len(step)), column] <= 0).any():
                raise ConfigError(f"ngram table {m}: rows repeated or not in ascending order")
            starts = np.flatnonzero(np.r_[True, column < m][:len(grams)])  # a new context
            del step, column  # not held while runs is built
            keys = _pack(grams[starts, :m], size)
            # exact Python-int sums (no int64 wrap), each rounded once
            totals = np.add.reduceat(counts.astype(object), starts).astype(np.float64)
            bounds = np.r_[starts, len(grams)]
            runs = dict(zip(keys.tolist(), zip(starts.tolist(), bounds[1:].tolist(),
                                               totals.tolist())))
            self._tables.append((runs, keys, bounds, totals, grams[:, -1].copy(), counts))

    def initial_context(self) -> tuple[int, ...]:
        return ()

    def advance(self, ctx: tuple[int, ...], token_index: int) -> tuple[int, ...]:
        token_index = self.check_index(token_index)
        if self.config.order == 1:
            return ()
        return (ctx + (token_index,))[-(self.config.order - 1):]

    def next_distribution(self, ctx: tuple[int, ...]) -> np.ndarray:
        k, size, m = self.config.add_k, len(self.vocab), len(ctx)
        if m >= self.config.order:
            raise ValueError(f"context longer than order-1: {m} >= {self.config.order}")
        key = 0
        for index in ctx:  # an entry out of range would alias another context's key
            if type(index) is not int or not 0 <= index < size:
                index = self.check_index(index)
            key = key * size + index
        runs, _, _, _, successors, counts = self._tables[m]
        a, b, total = runs.get(key, (0, 0, 0))
        denom = total + k * size
        dist = np.full(size, k / denom)
        dist[successors[a:b]] += counts[a:b] / denom
        return dist

    def next_distributions(self, ctx: tuple[int, ...], ids) -> tuple[np.ndarray, tuple]:
        """The rows ``next_distribution`` builds, with the same operations, for all
        full-length contexts of the block at once: their keys are packed together
        and found by one ``searchsorted``. A shorter context (only at the start of
        a stream) is built alone."""
        k, size, keep = self.config.add_k, len(self.vocab), self.config.order - 1
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":  # never truncated
            raise ValueError(f"token indices must be integers, not {ids.dtype}")
        outside = (ids < 0) | (ids >= size)
        if outside.any():
            self.check_index(ids[outside.argmax()].item())  # raises its ValueError
        # ``keep`` zeros before the stream give every position a full window; the
        # short ones are rebuilt below
        padded = np.concatenate((np.zeros(keep, np.int64), np.array(ctx, np.int64),
                                 ids.astype(np.int64)))
        seq = padded[keep:]
        packed = _pack(padded[np.arange(len(ctx), len(seq))[:, None] + np.arange(keep)], size)
        _, keys, bounds, totals, successors, counts = self._tables[keep]
        found = keys.searchsorted(packed)
        hit = found < len(keys)
        hit[hit] = keys[found[hit]] == packed[hit]
        row = found[hit]
        a, b, total = np.zeros((3, len(ids)))  # a miss reads (0, 0, 0)
        a[hit], b[hit], total[hit] = bounds[row], bounds[row + 1], totals[row]
        denom = total + k * size
        probs = np.repeat((k / denom)[:, None], size, axis=1)
        # one flat gather of every row's successors[a:b] and counts[a:b]
        lengths = (b - a).astype(np.int64)
        rows = np.repeat(np.arange(len(ids)), lengths)
        first = np.cumsum(lengths) - lengths  # where each row's entries start in the gather
        flat = np.arange(len(rows)) + np.repeat(a.astype(np.int64) - first, lengths)
        probs[rows, successors[flat]] += counts[flat] / denom[rows]
        for t in range(len(ctx), min(keep, len(seq))):
            probs[t - len(ctx)] = self.next_distribution(tuple(seq[:t].tolist()))
        return probs, tuple(seq[max(0, len(seq) - keep):].tolist())

    def header_config(self) -> dict:
        """The ``config:`` header of a model file; the payload holds everything."""
        return {}

    def to_payload(self) -> bytes:
        """``json.dumps(doc, sort_keys=True)`` of ``{"add_k", "order", "tables"}``,
        written directly: table ``m`` lists ``[context, [[successor, count], ...]]``,
        each context ``m`` indices joined by commas, contexts and successors in
        ascending order. Each table is one ``%`` format of one argument array."""
        tables, size = [], len(self.vocab)
        for m, (_, keys, bounds, _, successors, counts) in enumerate(self._tables):
            starts, lengths = bounds[:-1], np.diff(bounds)
            contexts = keys[:, None] // size ** np.arange(m - 1, -1, -1) % size  # unpacked
            # row r's arguments: its m context indices, then successor and count per pair
            args = np.empty(contexts.size + 2 * len(successors), np.int64)
            first = np.arange(len(starts)) * m + 2 * starts  # where row r's arguments start
            args[first[:, None] + np.arange(m)] = contexts
            row = np.repeat(np.arange(len(starts)), lengths)  # of each successor
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
        ``, "tables": ``, ``_read_tables`` the rest, and the constructor checks the
        tables' count and form (``ConfigError`` becomes ``ModelFormatError``). Bytes
        that ``to_payload`` would not write may load as some other model here;
        ``deserialize_model`` refuses them."""
        head, _, body = payload.partition(b', "tables": ')
        try:
            doc = json.loads(head + b"}")
            config = NgramConfig(order=doc["order"], add_k=doc["add_k"])
            return cls(vocab, config, _read_tables(body))
        except (IndexError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad ngram payload: {exc}") from None


def _pack(rows: np.ndarray, size: int) -> np.ndarray:
    """Each row of indices in ``[0, size)`` as one int64 in base ``size``, its first
    index most significant, so ascending rows give ascending keys."""
    keys = np.zeros(len(rows), np.int64)
    for column in rows.T:
        keys = keys * size + column
    return keys


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
    ids = np.asarray(vocab.indices_or_unk(tokens), dtype=np.int64)
    # windows[i] holds the n ids that end at token i, padded on the left with -1
    windows = np.lib.stride_tricks.sliding_window_view(np.r_[np.full(n - 1, -1), ids], n)
    keys = np.min_scalar_type(len(vocab))  # holds every index; radix-sorted up to 16 bits
    tables = []
    for m in range(n):
        grams = windows[m:, n - 1 - m:]  # every (m + 1)-gram, once per occurrence
        grams = grams[np.lexsort(grams.T[::-1].astype(keys))]  # first column first
        changed = np.any(grams[1:] != grams[:-1], axis=1)  # each row unlike the one before
        distinct = np.flatnonzero(np.r_[True, changed][:len(grams)])  # none if len(ids) <= m
        tables.append((grams[distinct], np.diff(distinct, append=len(grams))))
    del grams, changed, distinct  # not held while the model is built
    return NgramModel(vocab, config, tables)
