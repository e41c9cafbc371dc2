"""Embedding and extraction: payload bits -> constrained text -> payload bits.

Encoding walks the payload one bit block at a time and asks the language
model for the next token with the distribution masked to the block's bin
(plus the common set, when the key has one), both read off the key's slot
array. Common tokens are emitted for fluency but consume no bits; a run of
them is capped at ``GenPolicy.max_common_run`` and never repeats a token
within the run, which guarantees termination under greedy selection. Every
emitted token, common or carrier, advances the model context. Generation
starts from the model's initial state after consuming ``<eos>``.

Decoding needs no language model: drop common tokens, write each carrier's
slot (its bin index) as bits. With RAW framing the payload boundary is
implicit (trailing bits that do not fill a block are never encoded); with
LENGTH framing a 32-bit big-endian bit count is prepended and the tail is
zero-padded to a block boundary, so the exact byte payload is recoverable.
Tokens become slots in one pass (``StegoKey.slots``), the carriers' slots
become the bit string in a few array operations, and ``decode_payload`` turns
the framed bits into bytes in one integer conversion (``bits_to_bytes``).

Bit order is fixed: most significant bit first within each byte, and the
leftmost bit of a block is its most significant when indexing bins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .corpus import EOS_TOKEN, URL_TOKEN, USER_TOKEN
from .errors import (ConfigError, DecodeError, EncodeError, VocabMismatchError, check_int,
                     check_real)
from .keying import BIN_COMMON, BitBlock, StegoKey
from .lm.base import LanguageModel


class Framing(enum.Enum):
    RAW = "raw"
    LENGTH_PREFIXED = "length"


class Mode(enum.Enum):
    GREEDY = "greedy"
    SAMPLE = "sample"


@dataclass(frozen=True)
class Payload:
    """Secret bytes plus the framing rule used to delimit them."""

    data: bytes
    framing: Framing = Framing.RAW

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            raise ConfigError(f"payload data must be bytes, not {type(self.data).__name__}")
        if not isinstance(self.framing, Framing):
            raise ConfigError(f"framing must be a Framing, not {self.framing!r}")


@dataclass(frozen=True)
class GenPolicy:
    """How the next token is chosen among the allowed ones."""

    mode: Mode = Mode.SAMPLE
    temperature: float = 1.0
    seed: int = 0
    max_common_run: int = 5

    def __post_init__(self):
        if not isinstance(self.mode, Mode):
            raise ConfigError(f"mode must be a Mode, not {self.mode!r}")
        check_real("temperature", self.temperature, 0, low_open=True)
        check_int("seed", self.seed, 0)
        check_int("max_common_run", self.max_common_run, 1)


@dataclass(frozen=True)
class Stegotext:
    """Generated token sequence and how many of its tokens carry bits."""

    tokens: tuple[str, ...]
    carrier_count: int


LENGTH_HEADER_BITS = 32
_NO_SPACE_BEFORE = set(".,!?;:")


def bytes_to_bits(data: bytes) -> str:
    """MSB-first bit string of a byte sequence, in one integer conversion."""
    if not data:
        return ""  # format(0, "00b") would be "0"
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")


def bits_to_bytes(bits: str) -> bytes:
    """Inverse of bytes_to_bits; the length must be a multiple of 8. One base-2
    conversion, linear in the length (CPython's int-string digit limit spares
    power-of-two bases)."""
    if len(bits) % 8:
        raise ValueError(f"bit string length {len(bits)} is not a multiple of 8")
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def payload_to_bits(payload: Payload, block_bits: int) -> str:
    """Frame the payload as the exact bit string handed to the block splitter."""
    bits = bytes_to_bits(payload.data)
    if payload.framing is Framing.RAW:
        return bits
    header = format(len(bits), f"0{LENGTH_HEADER_BITS}b")
    framed = header + bits
    if block_bits > 0 and len(framed) % block_bits:
        framed += "0" * (block_bits - len(framed) % block_bits)
    return framed


def split_blocks(bits: str, block_bits: int) -> list[BitBlock]:
    """Cut a bit string into blocks, dropping any trailing remainder. Equal
    blocks share one ``BitBlock`` (it is immutable), built and checked once."""
    if block_bits < 1:
        raise EncodeError("block_bits must be at least 1 to split payload bits")
    full = len(bits) // block_bits
    pieces = [bits[i * block_bits:(i + 1) * block_bits] for i in range(full)]
    blocks = {piece: BitBlock.from_bits(piece) for piece in set(pieces)}
    return [blocks[piece] for piece in pieces]


def _pick(probs: np.ndarray, allowed: np.ndarray, policy: GenPolicy,
          rng: np.random.Generator | None) -> int:
    """The one selection kernel: the token of ``allowed`` that ``policy`` picks.
    Tempering divides by the largest probability first, so the weights keep a 1
    and cannot all underflow to zero at low temperatures."""
    mass = probs[allowed]
    top = np.maximum.reduce(mass, initial=0.0)
    if not top > 0:
        raise EncodeError("no probability mass on the allowed tokens")
    if policy.mode is Mode.GREEDY:
        return int(allowed[int(np.argmax(mass))])
    if rng is None:
        rng = np.random.default_rng(policy.seed)
    mass /= top  # a gather, so a new array: tempered and normalised in place
    mass **= 1.0 / policy.temperature
    mass /= np.add.reduce(mass)
    # Generator.choice(len(allowed), p=mass) without its argument checks:
    # the same steps, so the same stream and the same index.
    cdf = np.add.accumulate(mass, out=mass)
    cdf /= cdf[-1]
    return int(allowed[cdf.searchsorted(rng.random(), side="right")])


def constrained_select(
    model: LanguageModel,
    ctx,
    key: StegoKey,
    block: BitBlock,
    policy: GenPolicy,
    *,
    rng: np.random.Generator | None = None,
    include_common: bool = True,
    banned: frozenset[int] | set[int] = frozenset(),
) -> int:
    """Pick the next token index from the block's bin (plus the common set,
    less the common tokens in ``banned``), allowed tokens in index order.
    GREEDY takes the argmax of the masked distribution, ties to the lowest
    token index; SAMPLE draws from the masked distribution renormalized at
    ``policy.temperature``.
    """
    if block.width != key.block_bits:
        raise EncodeError(
            f"block width {block.width} does not match key block_bits {key.block_bits}"
        )
    slots = key.lookup_array()
    allowed = key.allowed(block.value, include_common)
    if include_common and banned:
        drop = np.fromiter(banned, dtype=np.int64, count=len(banned))
        drop = drop[slots[drop] == BIN_COMMON]  # a banned bin token stays allowed
        keep = np.ones(len(allowed), dtype=bool)
        keep[allowed.searchsorted(drop)] = False
        allowed = allowed[keep]
    probs = model.next_distribution(ctx)
    if len(probs) != len(slots):
        raise VocabMismatchError(
            f"model emits {len(probs)} probabilities for |V|={len(slots)}"
        )
    return _pick(probs, allowed, policy, rng)


def _start_context(model: LanguageModel):
    ctx = model.initial_context()
    return model.advance(ctx, model.vocab.index_of(EOS_TOKEN))


def encode_bits(
    bits: str,
    key: StegoKey,
    model: LanguageModel,
    policy: GenPolicy = GenPolicy(),
) -> Stegotext:
    """Embed a raw bit string (trailing bits short of a block are dropped)."""
    if key.block_bits < 1:
        raise EncodeError("a single-bin key carries no bits; nothing can be embedded")
    if model.vocab_hash != key.vocab_hash:
        raise VocabMismatchError("model and key were built from different vocabularies")
    blocks = split_blocks(bits, key.block_bits)
    if not blocks:
        raise EncodeError(
            f"payload of {len(bits)} bits is shorter than one {key.block_bits}-bit block"
        )
    slots = key.lookup_array()
    rng = np.random.default_rng(policy.seed)
    ctx = _start_context(model)
    tokens: list[str] = []
    for block in blocks:  # each block ends on exactly one carrier
        banned: set[int] = set()  # the common tokens of this block's run
        while True:
            idx = constrained_select(
                model, ctx, key, block, policy,
                rng=rng, include_common=len(banned) < policy.max_common_run, banned=banned,
            )
            ctx = model.advance(ctx, idx)
            tokens.append(key.vocab.token(idx))
            if slots[idx] != BIN_COMMON:
                break
            banned.add(idx)
    return Stegotext(tuple(tokens), len(blocks))


def encode(
    payload: Payload,
    key: StegoKey,
    model: LanguageModel,
    policy: GenPolicy = GenPolicy(),
) -> Stegotext:
    """Embed a byte payload under the payload's framing rule."""
    return encode_bits(payload_to_bits(payload, key.block_bits), key, model, policy)


def decode(tokens, key: StegoKey, framing: Framing = Framing.RAW) -> str:
    """Recover the embedded bit string from a token sequence (no model needed)."""
    if not isinstance(framing, Framing):
        raise ConfigError(f"framing must be a Framing, not {framing!r}")
    slots = key.slots(tokens)
    carriers = slots[slots >= 0]
    shifts = np.arange(key.block_bits - 1, -1, -1)
    digits = ((carriers[:, None] >> shifts) & 1).astype(np.uint8) + ord("0")
    bits = digits.tobytes().decode("ascii")
    if framing is Framing.RAW:
        return bits
    if len(bits) < LENGTH_HEADER_BITS:
        raise DecodeError(
            f"only {len(bits)} bits decoded; the {LENGTH_HEADER_BITS}-bit length header is incomplete"
        )
    declared = int(bits[:LENGTH_HEADER_BITS], 2)
    if LENGTH_HEADER_BITS + declared > len(bits):
        raise DecodeError(
            f"header declares {declared} payload bits but only "
            f"{len(bits) - LENGTH_HEADER_BITS} are present"
        )
    return bits[LENGTH_HEADER_BITS:LENGTH_HEADER_BITS + declared]


def decode_payload(tokens, key: StegoKey) -> bytes:
    """Recover the exact byte payload of a LENGTH-framed encoding."""
    bits = decode(tokens, key, Framing.LENGTH_PREFIXED)
    if len(bits) % 8:
        raise DecodeError(f"declared payload of {len(bits)} bits is not byte-aligned")
    return bits_to_bytes(bits)


def render(tokens, *, capitalize: bool = False) -> str:
    """Join tokens into a surface string.

    Punctuation in ``.,!?;:`` attaches to the previous word; ``<user>`` and
    ``<url>`` become numbered mocks (``@user001``, ``http://example.com/1``);
    ``<eos>`` is a boundary marker and renders as nothing. ``capitalize``
    upper-cases the first letter of each sentence, mocks left as written.
    Purely presentational: decoding consumes the token sequence, not this
    string.
    """
    words: list[str] = []
    mocks: set[int] = set()  # positions in ``words`` of the numbered mocks
    users = urls = 0
    attachable = False  # punctuation never glues onto a substituted mention/URL
    for surface in tokens:
        if surface == EOS_TOKEN:
            continue
        if surface in _NO_SPACE_BEFORE and words and attachable:
            words[-1] += surface
        elif surface == USER_TOKEN:
            users += 1
            mocks.add(len(words))
            words.append(f"@user{users:03d}")
        elif surface == URL_TOKEN:
            urls += 1
            mocks.add(len(words))
            words.append(f"http://example.com/{urls}")
        else:
            words.append(surface)
        attachable = surface not in (USER_TOKEN, URL_TOKEN)
    if capitalize:
        sentence_start = True
        for i, word in enumerate(words):
            if sentence_start and word[0].isalpha() and i not in mocks:
                words[i] = word[0].upper() + word[1:]
                sentence_start = False
            if word[-1] in ".!?":
                sentence_start = True
    return " ".join(words)
