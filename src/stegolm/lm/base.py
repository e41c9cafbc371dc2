"""Backend-agnostic language-model interface.

A model owns a Vocabulary and answers two questions: given an opaque context,
what is the next-token distribution, and what is the context after consuming
one more token. Contexts are immutable values; ``advance`` returns a new one.
``next_distributions`` answers the first question for every position of a
known token stream at once, as teacher-forced scoring needs.
"""

from __future__ import annotations

import abc

import numpy as np

from ..corpus import Vocabulary
from ..errors import ModelOutputError


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis; entries non-negative and summing to 1.

    NaN or +inf anywhere makes the maximum non-finite, so checking the
    maximum is enough (``ModelOutputError``); a -inf score gets probability 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[-1] == 0:
        raise ModelOutputError("softmax of an empty score vector")
    top = np.maximum.reduce(scores, axis=-1, keepdims=True)
    if not np.logical_and.reduce(np.isfinite(top), axis=None):
        raise ModelOutputError(f"scores are NaN or overflow (largest {top.max()})")
    exp = np.subtract(scores, top)
    np.exp(exp, out=exp)
    exp /= np.add.reduce(exp, axis=-1, keepdims=True)
    return exp


class LanguageModel(abc.ABC):
    """Next-token distribution provider with an opaque evolving context."""

    backend = "abstract"

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    @property
    def vocab_hash(self) -> str:
        return self.vocab.content_hash()

    def check_index(self, token_index: int) -> int:
        """``token_index`` as a Python int if it is an integer (Python or numpy;
        never a bool or a float) in ``[0, |V|)``; otherwise ``ValueError``."""
        if type(token_index) is not int:
            if not isinstance(token_index, np.integer):
                raise ValueError(f"token index must be an integer, not {token_index!r}")
            token_index = int(token_index)  # numpy uint8 arithmetic on it could wrap
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

    def next_distributions(self, ctx, ids) -> tuple[np.ndarray, object]:
        """``(probs, ctx_after)``: row ``t`` of ``probs`` is ``next_distribution``
        of ``ctx`` after it consumes ``ids[:t]``; ``ctx_after`` has consumed all
        of ``ids``. Backends override this loop with one model call per block."""
        probs = np.empty((len(ids), len(self.vocab)))
        for t, token_index in enumerate(ids):
            probs[t] = self.next_distribution(ctx)
            ctx = self.advance(ctx, token_index)
        return probs, ctx
