"""Backend-agnostic language-model interface.

A model owns a Vocabulary and answers two questions: given an opaque context,
what is the next-token distribution, and what is the context after consuming
one more token. Contexts are immutable values; ``advance`` returns a new one.
"""

from __future__ import annotations

import abc

import numpy as np

from ..corpus import Vocabulary
from ..errors import ModelOutputError


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; entries non-negative and summing to 1.

    NaN or +inf anywhere makes the maximum non-finite, so checking the
    maximum is enough (``ModelOutputError``); a -inf score gets probability 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ModelOutputError("softmax of an empty score vector")
    top = scores.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ModelOutputError(f"scores are NaN or overflow (largest {top.max()})")
    exp = np.exp(scores - top)
    return exp / exp.sum(axis=-1, keepdims=True)


class LanguageModel(abc.ABC):
    """Next-token distribution provider with an opaque evolving context."""

    backend = "abstract"

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    @property
    def vocab_hash(self) -> str:
        return self.vocab.content_hash()

    def check_index(self, token_index: int) -> int:
        if not 0 <= token_index < len(self.vocab):
            raise ValueError(
                f"token index {token_index} out of range for |V|={len(self.vocab)}"
            )
        return token_index

    @abc.abstractmethod
    def initial_context(self):
        """Context before any token has been consumed."""

    @abc.abstractmethod
    def advance(self, ctx, token_index: int):
        """New context after consuming ``token_index``; ``ctx`` is untouched."""

    @abc.abstractmethod
    def next_distribution(self, ctx) -> np.ndarray:
        """Probability vector over the vocabulary; sums to 1, no negatives."""
