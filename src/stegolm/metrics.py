"""Quality and efficiency measurements: perplexity and channel capacity.

Plain perplexity is exp of the mean per-word negative log-probability under
the model. The steganographic variant replaces each word probability with its
average over all possible bit blocks: every block's bin (plus the common set)
masks and renormalizes the distribution, and the word's masked probabilities
are averaged over the ``2**block_bits`` equally likely blocks. Bins, common
set and the reserved sentinels (in no bin and not common) are read off the
key's slot array (``StegoKey.lookup_array``); sentinels are skipped and
counted instead of contributing ``-inf``. Scoring takes the stream in blocks of
``BLOCK`` positions: one ``next_distributions`` call and one ``_stego_factor``
(every row's per-bin masses in one ``bincount``) per block, then each position's
factor is read for the word that was read only; the full stego distribution is
never built.

A single-bin key with no common tokens constrains nothing, so its stego
perplexity is by definition the plain perplexity (the masks are vacuous).

Capacity is bookkeeping: ``block_bits`` bits ride on every carrier token, so
a stream whose common-token fraction is p carries ``(1-p) * block_bits`` bits
per word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Vocabulary
from .errors import CorpusError, VocabMismatchError, check_int, check_real
from .keying import BIN_COMMON, BIN_RESERVED, MAX_BLOCK_BITS, StegoKey
from .lm.base import LanguageModel


@dataclass(frozen=True)
class PerplexityReport:
    token_count: int
    mean_nll: float
    perplexity: float
    skipped_sentinels: int = 0
    infinite_positions: tuple[int, ...] = ()

    def to_text(self) -> str:
        lines = [
            f"token_count: {self.token_count}",
            f"mean_nll: {self.mean_nll:.6f} nats/word",
            f"perplexity: {self.perplexity:.4f}",
        ]
        if self.skipped_sentinels:
            lines.append(f"skipped_sentinels: {self.skipped_sentinels}")
        if self.infinite_positions:
            lines.append(
                "zero_probability_positions: "
                + ",".join(map(str, self.infinite_positions))
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CapacityReport:
    block_bits: int
    common_fraction: float
    bits_per_word: float
    bits_per_message: float | None = None
    token_count: int | None = None
    carrier_count: int | None = None
    common_count: int | None = None

    def to_text(self) -> str:
        lines = [
            f"block_bits: {self.block_bits}",
            f"common_fraction: {self.common_fraction:.4f}",
            f"capacity: {self.bits_per_word:.3f} bits/word",
        ]
        if self.bits_per_message is not None:
            lines.append(f"bits_per_message: {self.bits_per_message:.2f}")
        if self.token_count is not None:
            lines.append(f"token_count: {self.token_count}")
            lines.append(f"carrier_count: {self.carrier_count}")
            lines.append(f"common_count: {self.common_count}")
        return "\n".join(lines)


def _stream_ids(vocab: Vocabulary, tokens: Sequence[str]) -> list[int]:
    if not tokens:
        raise CorpusError("cannot evaluate an empty token stream")
    return vocab.indices_or_unk(tokens)


#: Positions ``_score`` takes from one ``next_distributions`` call: a block
#: shares one output-layer product or n-gram gather and one stego mask.
BLOCK = 128


def _score(model: LanguageModel, ids: list[int], skip: np.ndarray,
           key: StegoKey | None) -> PerplexityReport:
    """exp of the mean -ln ``_word_probs`` over the stream, taken in blocks of
    ``BLOCK`` positions; positions where ``skip`` is set advance the context
    unscored."""
    ctx = model.initial_context()
    total = 0.0
    infinite: list[int] = []
    unscored = skip.tolist()
    for start in range(0, len(ids), BLOCK):
        block = ids[start:start + BLOCK]
        probs, ctx = model.next_distributions(ctx, block)
        for position, prob in enumerate(_word_probs(probs, block, key).tolist(), start):
            if unscored[position]:
                continue
            if prob > 0:
                total += -math.log(prob)
            else:
                infinite.append(position)
    skipped = int(skip.sum())
    scored = len(ids) - skipped
    if scored == 0:
        raise CorpusError("no scorable tokens in the stream (all reserved sentinels)")
    if infinite:
        return PerplexityReport(scored, math.inf, math.inf, skipped, tuple(infinite))
    mean = total / scored
    return PerplexityReport(scored, mean, math.exp(mean), skipped)


def perplexity(model: LanguageModel, tokens: Sequence[str]) -> PerplexityReport:
    """exp of the mean negative log-probability over the stream."""
    ids = _stream_ids(model.vocab, tokens)
    return _score(model, ids, np.zeros(len(ids), dtype=bool), None)


def is_vacuous(key: StegoKey) -> bool:
    """True for the degenerate single-bin, no-common key: it constrains nothing."""
    return key.block_bits == 0 and not key.common


def _stego_factor(probs: np.ndarray, key: StegoKey) -> tuple[np.ndarray, np.ndarray]:
    """``(factor, rows)`` with ``stego_distribution(probs, key)`` equal to
    ``probs * factor[..., rows]``: token ``w``'s column of ``factor`` is
    ``rows[w]``. A carrier's factor is its bin's inverse mask mass, a common
    token's the sum of them all, each over ``num_bins``; a reserved sentinel's is
    0, and a vacuous key's is 1 for every token."""
    lead = probs.shape[:-1]
    if is_vacuous(key):
        return np.ones((*lead, 1)), np.zeros(probs.shape[-1], np.intp)
    rows = key.lookup_array() - BIN_COMMON  # common -> 0, reserved -> 1, bin b -> b + 2
    width = key.num_bins + 2
    # One bincount for every distribution: distribution r's slots are offset by
    # r * width, and each slot adds its entries in vocabulary order.
    offsets = np.arange(math.prod(lead))[:, None] * width
    masses = np.bincount((offsets + rows).ravel(), weights=probs.ravel(),
                         minlength=offsets.size * width).reshape(*lead, width)
    mask_mass = masses[..., 2:] + masses[..., :1]
    inv = np.divide(1.0, mask_mass, out=np.zeros_like(mask_mass), where=mask_mass > 0)
    factor = np.concatenate((inv.sum(axis=-1, keepdims=True), np.zeros((*lead, 1)), inv),
                            axis=-1) / key.num_bins
    return factor, rows


def stego_distribution(probs: np.ndarray, key: StegoKey) -> np.ndarray:
    """Block-averaged probabilities of each distribution along the last axis of
    ``probs``: mean over bins of the masked, renormalized distribution. Reserved
    sentinels get 0; a vacuous key returns ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    factor, rows = _stego_factor(probs, key)
    return probs * factor[..., rows]


def _word_probs(probs: np.ndarray, words: list[int], key: StegoKey | None) -> np.ndarray:
    """``probs[t, words[t]]`` for each row ``t``, or with a key
    ``stego_distribution(probs, key)[t, words[t]]``: the same product, taken for
    the read word only."""
    t = np.arange(len(words))
    picked = probs[t, words]
    if key is None:
        return picked
    factor, rows = _stego_factor(probs, key)
    return picked * factor[t, rows[words]]


def stego_word_prob(model: LanguageModel, ctx, key: StegoKey, word_index: int) -> float:
    """Average over all bit blocks of the word's masked probability."""
    if model.vocab_hash != key.vocab_hash:
        raise VocabMismatchError("model and key were built from different vocabularies")
    model.check_index(word_index)
    probs = model.next_distribution(ctx)
    factor, rows = _stego_factor(probs, key)
    return float(probs[word_index] * factor[rows[word_index]])


def stego_perplexity(model: LanguageModel, key: StegoKey,
                     tokens: Sequence[str]) -> PerplexityReport:
    """Perplexity with the block-averaged word probability in place of the
    model probability; reserved sentinels are skipped and counted."""
    if model.vocab_hash != key.vocab_hash:
        raise VocabMismatchError("model and key were built from different vocabularies")
    ids = _stream_ids(model.vocab, tokens)
    reserved = (key.lookup_array()[ids] == BIN_RESERVED) & (not is_vacuous(key))
    return _score(model, ids, reserved, key)


def _per_message(bits_per_word: float, mean_message_length: float | None) -> float | None:
    """Bits per message of ``mean_message_length`` words, if a length is given."""
    if mean_message_length is None:
        return None
    return bits_per_word * check_real("mean message length", mean_message_length, 0)


def capacity(block_bits: int, common_fraction: float,
             mean_message_length: float | None = None) -> CapacityReport:
    """Exact arithmetic: (1 - common_fraction) * block_bits bits per word."""
    check_int("block_bits", block_bits, 0, MAX_BLOCK_BITS + 1)
    check_real("common_fraction", common_fraction, 0, 1)
    bits_per_word = (1.0 - common_fraction) * block_bits
    return CapacityReport(block_bits, common_fraction, bits_per_word,
                          _per_message(bits_per_word, mean_message_length))


def capacity_empirical(tokens: Sequence[str], key: StegoKey,
                       mean_message_length: float | None = None) -> CapacityReport:
    """Observed capacity of a stegotext stream: carriers carry block_bits each."""
    if not tokens:
        raise CorpusError("cannot measure capacity of an empty stream")
    common_count = int((key.slots(tokens) == BIN_COMMON).sum())
    carrier_count = len(tokens) - common_count
    total = len(tokens)
    fraction = common_count / total
    bits_per_word = key.block_bits * carrier_count / total
    return CapacityReport(
        key.block_bits, fraction, bits_per_word,
        _per_message(bits_per_word, mean_message_length),
        token_count=total, carrier_count=carrier_count, common_count=common_count,
    )
