"""Next-token probability backends: add-k n-gram and from-scratch LSTM."""

from .base import LanguageModel, softmax
from .lstm import (
    EpochStats,
    LstmHyperparams,
    LstmModel,
    PRESETS,
    train_lstm,
)
from .ngram import NgramConfig, NgramModel, train_ngram
from .store import deserialize_model, load_model, save_model, serialize_model

__all__ = [
    "EpochStats",
    "LanguageModel",
    "LstmHyperparams",
    "LstmModel",
    "NgramConfig",
    "NgramModel",
    "PRESETS",
    "deserialize_model",
    "load_model",
    "save_model",
    "serialize_model",
    "softmax",
    "train_lstm",
    "train_ngram",
]
