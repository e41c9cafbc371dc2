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
against; a hash mismatch is an error.
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

#: Backend tag of the model file -> the class that writes and reads it.
BACKENDS = {cls.backend: cls for cls in (NgramModel, LstmModel)}


def serialize_model(model: LanguageModel) -> bytes:
    if model.backend not in BACKENDS:
        raise ModelFormatError(f"unknown model type: {type(model).__name__}")
    config = model.header_config()
    payload = model.to_payload()
    header = (
        f"backend: {model.backend}\n"
        f"vocab_hash: {model.vocab_hash}\n"
        f"config: {json.dumps(config, sort_keys=True)}\n"
        f"payload_bytes: {len(payload)}\n"
    ).encode("utf-8")
    return MODEL_HEADER + b"\n" + header + payload


def deserialize_model(data: bytes, vocab: Vocabulary) -> LanguageModel:
    fields: dict[str, str] = {}
    offset = 0
    for lineno in range(5):
        end = data.find(b"\n", offset)
        if end < 0:
            raise ModelFormatError("truncated model header")
        line = data[offset:end]
        offset = end + 1
        if lineno == 0:
            if line != MODEL_HEADER:
                raise ModelFormatError(f"missing {MODEL_HEADER.decode()!r} header")
            continue
        try:
            key, _, value = line.decode("utf-8").partition(": ")
        except UnicodeDecodeError:
            raise ModelFormatError(f"model header line {lineno + 1} is not UTF-8") from None
        fields[key] = value
    try:
        payload_bytes = int(fields["payload_bytes"])
        backend = fields["backend"]
        vocab_hash = fields["vocab_hash"]
        config = json.loads(fields["config"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad model header: {exc}") from None
    if vocab_hash != vocab.content_hash():
        raise VocabMismatchError("model was trained against a different vocabulary")
    payload = data[offset:]
    if len(payload) != payload_bytes:
        raise ModelFormatError(f"model payload is {len(payload)} bytes, declared {payload_bytes}")
    if backend not in BACKENDS:
        raise ModelFormatError(f"unknown backend tag: {backend!r}")
    return BACKENDS[backend].from_payload(vocab, config, payload)


def save_model(model: LanguageModel, path: str | Path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path: str | Path, vocab: Vocabulary) -> LanguageModel:
    return deserialize_model(Path(path).read_bytes(), vocab)
