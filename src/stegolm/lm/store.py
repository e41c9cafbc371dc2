"""STEGOLM v1 model container.

Layout (UTF-8 header lines, then a raw binary payload):

    STEGOLM v1
    backend: <ngram|lstm>
    vocab_hash: <hex sha256 of the vocabulary file>
    config: <one-line JSON: hyperparameters, plus training history for lstm>
    payload_bytes: <N>
    <N raw payload bytes, the end of the file>

Config and payload are backend-defined: the class that ``BACKENDS`` names for
the tag writes them (``header_config``, ``to_payload``) and reads them back
(``from_payload``). Loading requires the vocabulary the model was trained
against; a hash mismatch is an error. A file loads only if saving the loaded
model writes exactly its bytes, so each model has one file.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..corpus import Vocabulary
from ..errors import ModelFormatError, VocabMismatchError
from .base import LanguageModel
from .lstm import LstmModel
from .ngram import NgramModel

MODEL_HEADER = b"STEGOLM v1"

#: The header lines after ``MODEL_HEADER``, in the order ``serialize_model`` writes them.
HEADER_FIELDS = ("backend", "vocab_hash", "config", "payload_bytes")

#: Backend tag of the model file -> the class that writes and reads it.
BACKENDS = {cls.backend: cls for cls in (NgramModel, LstmModel)}


def serialize_model(model: LanguageModel) -> bytes:
    if model.backend not in BACKENDS:
        raise ModelFormatError(f"unknown model type: {type(model).__name__}")
    config = model.header_config()
    payload = model.to_payload()
    values = (model.backend, model.vocab_hash, json.dumps(config, sort_keys=True), len(payload))
    header = "".join(f"{name}: {value}\n" for name, value in zip(HEADER_FIELDS, values))
    return MODEL_HEADER + b"\n" + header.encode("utf-8") + payload


def deserialize_model(data: bytes, vocab: Vocabulary) -> LanguageModel:
    """Inverse of ``serialize_model``, checked by it: ``data`` loads only if
    ``serialize_model`` of the loaded model gives back exactly ``data``. The
    header line order, the vocabulary hash and the payload length are checked
    first, so each failure keeps its own error."""
    head = data.split(b"\n", 5)  # five header lines, then the payload
    if head[0] != MODEL_HEADER:
        raise ModelFormatError(f"missing {MODEL_HEADER.decode()!r} header")
    if len(head) < 6:
        raise ModelFormatError("truncated model header")
    try:
        lines = [line.decode("utf-8") for line in head[1:5]]
    except UnicodeDecodeError:
        raise ModelFormatError("model header is not UTF-8") from None
    fields = [line.partition(": ") for line in lines]
    if [field[:2] for field in fields] != [(name, ": ") for name in HEADER_FIELDS]:
        raise ModelFormatError(f"model header lines must be {', '.join(HEADER_FIELDS)}, in order")
    backend, vocab_hash, config_line, payload_line = (value for _, _, value in fields)
    try:
        payload_bytes = int(payload_line)
        config = json.loads(config_line)
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deeply
        raise ModelFormatError(f"bad model header: {exc}") from None
    if vocab_hash != vocab.content_hash():
        raise VocabMismatchError("model was trained against a different vocabulary")
    payload = head[5]
    if len(payload) != payload_bytes:
        raise ModelFormatError(f"model payload is {len(payload)} bytes, declared {payload_bytes}")
    if backend not in BACKENDS:
        raise ModelFormatError(f"unknown backend tag: {backend!r}")
    model = BACKENDS[backend].from_payload(vocab, config, payload)
    if serialize_model(model) != data:
        raise ModelFormatError("model file is not spelt as serialize_model writes it")
    return model


def save_model(model: LanguageModel, path: str | Path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path: str | Path, vocab: Vocabulary) -> LanguageModel:
    return deserialize_model(Path(path).read_bytes(), vocab)
