"""Shared-key generation: a seeded random partition of the vocabulary.

A key splits the carrier vocabulary (everything except ``<eos>`` and
``<unk>``) into ``2**block_bits`` bins, one bin per possible bit block, plus
an optional set of *common* tokens that belong to no bin and carry no bits.
Common tokens are always the most frequent tokens of the vocabulary; they are
removed from the carrier pool entirely so decoding stays unambiguous.

Both parties regenerate the identical key from (vocabulary, block_bits,
common_count, seed): the carrier pool is shuffled by a Fisher-Yates pass
driven by a splitmix64 generator (fixed for the life of the ``STEGOKEY v1``
format, independent of Python/numpy versions) and dealt round-robin into the
bins, so bin sizes never differ by more than one.

``block_bits = 0`` yields the degenerate single-bin key: generation is then
unconstrained and the key carries no payload (``codec.encode`` rejects it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import EOS_TOKEN, RESERVED_NONCARRIERS, UNK_TOKEN, Vocabulary
from .errors import (DecodeError, KeyFormatError, KeyGenError, KeyInvariantError,
                     VocabMismatchError, check_int)

KEY_HEADER = "STEGOKEY v1"
MAX_BLOCK_BITS = 16


@dataclass(frozen=True)
class BitBlock:
    """A group of ``width`` payload bits; leftmost bit is most significant."""

    value: int
    width: int

    def __post_init__(self):
        check_int("width", self.width, 0)
        check_int("value", self.value, 0, 1 << self.width)

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    @classmethod
    def from_bits(cls, bits: str) -> "BitBlock":
        return cls(int(bits, 2) if bits else 0, len(bits))


#: Slot of a common token in ``StegoKey.lookup_array``: in no bin, carries no bits.
BIN_COMMON = -2
#: Slot of a reserved sentinel: in no bin and not common, so it never appears
#: in a stegotext. Carrier tokens have their bin index (>= 0) as slot.
BIN_RESERVED = -1


def _shuffle(items: list, seed: int) -> None:
    """Fisher-Yates shuffle of ``items`` in place, driven by a splitmix64 stream
    from ``seed``; the stream is part of the key format."""
    mask = (1 << 64) - 1
    state = seed & mask
    for i in range(len(items) - 1, 0, -1):
        limit = (1 << 64) - ((1 << 64) % (i + 1))  # rejection sampling keeps j unbiased
        z = limit
        while z >= limit:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
        j = z % (i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True, eq=False)
class StegoKey:
    """Bit-block -> token-bin mapping shared by sender and receiver. Its only
    record of assignment is ``slot_array`` (kept as a read-only int64 copy):
    the slot of every vocabulary index, see ``lookup_array``."""

    block_bits: int
    slot_array: np.ndarray
    seed: int
    vocab: Vocabulary

    def __post_init__(self):
        check_int("block_bits", self.block_bits, 0, MAX_BLOCK_BITS + 1, KeyInvariantError)
        check_int("seed", self.seed, 0, 1 << 64, KeyInvariantError)
        try:  # ValueError: a ragged list
            slots = np.asarray(self.slot_array)
        except ValueError as exc:
            raise KeyInvariantError(f"slot array: {exc}") from None
        vocab, num_bins = self.vocab, self.num_bins
        if slots.shape != (len(vocab),) or slots.dtype.kind not in "iu":  # never coerced
            raise KeyInvariantError(f"slot array of shape {slots.shape} and {slots.dtype} values "
                                    f"for |V|={len(vocab)}: not one integer per token")
        if ((slots < BIN_COMMON) | (slots >= num_bins)).any():
            raise KeyInvariantError(f"slot values must lie in [{BIN_COMMON}, {num_bins})")
        slots = slots.astype(np.int64)  # in range, so no uint64 value wraps
        slots.flags.writeable = False
        object.__setattr__(self, "slot_array", slots)
        object.__setattr__(self, "_allowed", {})
        eos, unk = vocab.indices((EOS_TOKEN, UNK_TOKEN))
        # <eos> may join the common set (lets generation end messages); <unk> never.
        if (unk >= 0 and slots[unk] != BIN_RESERVED) or (eos >= 0 and slots[eos] >= 0):
            raise KeyInvariantError(f"{UNK_TOKEN} must be reserved, {EOS_TOKEN} in no bin")
        uncovered = set(np.flatnonzero(slots == BIN_RESERVED).tolist()) - {eos, unk}
        if uncovered:
            raise KeyInvariantError(f"{len(uncovered)} carrier tokens missing from every bin, "
                                    f"e.g. {vocab.token(min(uncovered))!r}")
        sizes = np.bincount(slots[slots >= 0], minlength=num_bins)
        if sizes.min() < 1 or sizes.max() - sizes.min() > 1:
            raise KeyInvariantError(f"bins empty or differing by more than one: {sizes.tolist()}")

    def __eq__(self, other):
        if not isinstance(other, StegoKey):
            return NotImplemented
        return ((self.block_bits, self.seed, self.vocab)
                == (other.block_bits, other.seed, other.vocab)
                and np.array_equal(self.slot_array, other.slot_array))

    @property
    def vocab_hash(self) -> str:
        """Content hash of the bound vocabulary, written into the key file."""
        return self.vocab.content_hash()

    @property
    def num_bins(self) -> int:
        return 1 << self.block_bits

    @cached_property
    def bins(self) -> tuple[tuple[int, ...], ...]:
        """Ascending indices of every bin's tokens: one stable argsort of the
        slot array orders them common, reserved, then bin 0, 1, ..."""
        order = np.argsort(self.slot_array, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.slot_array - BIN_COMMON,
                                     minlength=self.num_bins + 2)).tolist()
        return tuple(tuple(order[a:b]) for a, b in zip(ends[1:], ends[2:]))

    @cached_property
    def common(self) -> tuple[int, ...]:
        """Ascending indices of the common tokens."""
        return tuple(np.flatnonzero(self.slot_array == BIN_COMMON).tolist())

    def lookup_array(self) -> np.ndarray:
        """Read-only slot of every vocabulary index: the stored ``slot_array``."""
        return self.slot_array

    def allowed(self, bin_index: int, include_common: bool) -> np.ndarray:
        """Read-only ascending indices of the bin's tokens, plus the common set
        when ``include_common``; read off ``lookup_array`` once per pair."""
        cached = self._allowed.get((bin_index, include_common))
        if cached is None:
            mask = self.slot_array == bin_index
            if include_common:
                mask |= self.slot_array == BIN_COMMON
            cached = np.flatnonzero(mask)
            cached.flags.writeable = False
            self._allowed[bin_index, include_common] = cached
        return cached

    def slots(self, tokens: Sequence[str]) -> np.ndarray:
        """Slot of every token of a stegotext: a bin index or ``BIN_COMMON``.

        The one classifier of received tokens. Raises ``DecodeError`` with the
        position of the first token that is outside the vocabulary or reserved.
        """
        ids = self.vocab.index_array(tokens)
        slots = np.where(ids >= 0, self.slot_array[ids], BIN_RESERVED)
        bad = np.flatnonzero(slots == BIN_RESERVED)
        if bad.size:
            position = int(bad[0])
            surface = tokens[position]
            if surface not in self.vocab:
                raise DecodeError(f"token not in key vocabulary: {surface!r}", position)
            raise DecodeError(f"token carries no bin: {surface!r}", position)
        return slots

    def carrier_count(self) -> int:
        return int(np.count_nonzero(self.slot_array >= 0))


def generate_key(
    vocab: Vocabulary,
    block_bits: int,
    common_count: int,
    seed: int,
    *,
    include_eos_common: bool = False,
) -> StegoKey:
    """Deterministically derive a key from (vocab, block_bits, common_count, seed).

    The common set is the ``common_count`` most frequent non-sentinel tokens;
    ``include_eos_common`` additionally adds ``<eos>`` so generated messages
    may end naturally.
    """
    check_int("block_bits", block_bits, 0, MAX_BLOCK_BITS + 1, KeyGenError)
    check_int("common_count", common_count, 0, error=KeyGenError)
    check_int("seed", seed, 0, 1 << 64, KeyGenError)
    num_bins = 1 << block_bits
    eligible = [i for i, t in enumerate(vocab.tokens) if t not in RESERVED_NONCARRIERS]
    common, carriers = eligible[:common_count], eligible[common_count:]
    if len(carriers) < num_bins:
        raise KeyGenError(f"only {len(carriers)} carrier tokens left for {num_bins} bins")
    if include_eos_common and EOS_TOKEN in vocab:
        common.append(vocab.index_of(EOS_TOKEN))
    _shuffle(carriers, seed)
    slots = np.full(len(vocab), BIN_RESERVED, dtype=np.int64)
    slots[carriers] = np.arange(len(carriers)) % num_bins  # dealt round-robin
    slots[common] = BIN_COMMON
    return StegoKey(block_bits, slots, seed, vocab)


def serialize_key(key: StegoKey) -> bytes:
    token = key.vocab.tokens.__getitem__  # every index of a key is in range
    lines = [
        KEY_HEADER,
        f"block_bits: {key.block_bits}",
        f"vocab_hash: {key.vocab_hash}",
        f"seed: {key.seed}",
        *("\t".join([prefix, *map(token, members)])
          for prefix, members in zip(_line_prefixes(key.block_bits), [key.common, *key.bins])),
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _line_prefixes(block_bits: int) -> list[str]:
    """``common:``, then ``bin <label>:`` per bin; the label is the block's bits
    ("0" for one bin)."""
    return ["common:", *(f"bin {b:0{block_bits}b}:" for b in range(1 << block_bits))]


def _field(line: str, prefix: str) -> str:
    """What follows ``prefix`` on ``line``, exactly as written."""
    if not line.startswith(prefix):
        raise KeyFormatError(f"expected {prefix!r} line, found {line!r}")
    return line[len(prefix):]


def deserialize_key(data: bytes, vocab: Vocabulary) -> StegoKey:
    """Parse a key file against its vocabulary; ``data`` loads only if
    ``serialize_key`` of the loaded key gives back exactly ``data``."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise KeyFormatError(f"key file is not UTF-8: {exc}") from None
    lines.pop()  # what follows the last newline; the comparison refuses any
    if len(lines) < 6:
        raise KeyFormatError("key file too short")
    if lines[0] != KEY_HEADER:
        raise KeyFormatError(f"missing {KEY_HEADER!r} header")
    try:
        block_bits = int(_field(lines[1], "block_bits: "))
        vocab_hash = _field(lines[2], "vocab_hash: ")
        seed = int(_field(lines[3], "seed: "))
    except ValueError as exc:
        raise KeyFormatError(f"bad header field: {exc}") from None
    if vocab_hash != vocab.content_hash():
        raise VocabMismatchError("key was generated from a different vocabulary")
    check_int("block_bits", block_bits, 0, MAX_BLOCK_BITS + 1, KeyFormatError)
    check_int("seed", seed, 0, 1 << 64, KeyFormatError)
    num_bins = 1 << block_bits
    if len(lines) - 5 != num_bins:
        raise KeyFormatError(f"expected {num_bins} bin lines for block_bits={block_bits}, "
                             f"found {len(lines) - 5}")
    # The common line, then the bin lines in slot order. A line without its label
    # or first tab would read as an empty bin or an uncovered token, so check each.
    rows = [line.split("\t") for line in lines[4:]]
    for (label, *_), prefix in zip(rows, _line_prefixes(block_bits)):
        if label != prefix:
            raise KeyFormatError(f"expected a {prefix!r} line, found {label!r}")
    surfaces = [surface for row in rows for surface in row[1:]]
    ids = vocab.index_array(surfaces)
    if ids.size and ids.min() < 0:
        raise KeyFormatError(f"key token not in vocabulary: {surfaces[int(np.argmin(ids))]!r}")
    repeated = np.flatnonzero(np.bincount(ids, minlength=len(vocab)) > 1)
    if repeated.size:
        raise KeyInvariantError(f"token assigned twice: {vocab.token(int(repeated[0]))!r}")
    slots = np.full(len(vocab), BIN_RESERVED, dtype=np.int64)
    slots[ids] = np.repeat([BIN_COMMON, *range(num_bins)], [len(row) - 1 for row in rows])
    key = StegoKey(block_bits, slots, seed, vocab)
    if serialize_key(key) != data:
        raise KeyFormatError("key file is not spelt as serialize_key writes it")
    return key


def save_key(key: StegoKey, path: str | Path) -> None:
    Path(path).write_bytes(serialize_key(key))


def load_key(path: str | Path, vocab: Vocabulary) -> StegoKey:
    return deserialize_key(Path(path).read_bytes(), vocab)
