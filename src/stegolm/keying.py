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
from .errors import DecodeError, KeyFormatError, KeyGenError, KeyInvariantError, VocabMismatchError

KEY_HEADER = "STEGOKEY v1"
MAX_BLOCK_BITS = 16


@dataclass(frozen=True)
class BitBlock:
    """A group of ``width`` payload bits; leftmost bit is most significant."""

    value: int
    width: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("bit block width must be non-negative")
        if not 0 <= self.value < (1 << self.width) and not (self.width == 0 and self.value == 0):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

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


class _SplitMix64:
    """Tiny deterministic generator; its stream is part of the key format."""

    def __init__(self, seed: int):
        self._state = seed & 0xFFFFFFFFFFFFFFFF

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        # Rejection sampling keeps the draw unbiased.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
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
        if not 0 <= self.block_bits <= MAX_BLOCK_BITS:
            raise KeyInvariantError(f"block_bits must be in [0, {MAX_BLOCK_BITS}]")
        slots = np.array(self.slot_array, dtype=np.int64)
        slots.flags.writeable = False
        object.__setattr__(self, "slot_array", slots)
        object.__setattr__(self, "_allowed", {})
        vocab, num_bins = self.vocab, self.num_bins
        if slots.shape != (len(vocab),):
            raise KeyInvariantError(f"slot array of shape {slots.shape} for |V|={len(vocab)}")
        if ((slots < BIN_COMMON) | (slots >= num_bins)).any():
            raise KeyInvariantError(f"slot values must lie in [{BIN_COMMON}, {num_bins})")
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
        ids = np.asarray(self.vocab.indices(tokens), dtype=np.int64)
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
    if not 0 <= block_bits <= MAX_BLOCK_BITS:
        raise KeyGenError(f"block_bits must be in [0, {MAX_BLOCK_BITS}], got {block_bits}")
    if common_count < 0:
        raise KeyGenError("common_count must be non-negative")
    if not 0 <= seed < 1 << 64:
        raise KeyGenError(f"seed must be in [0, 2**64), got {seed}")
    num_bins = 1 << block_bits
    eligible = [i for i, t in enumerate(vocab.tokens) if t not in RESERVED_NONCARRIERS]
    common, carriers = eligible[:common_count], eligible[common_count:]
    if len(carriers) < num_bins:
        raise KeyGenError(f"only {len(carriers)} carrier tokens left for {num_bins} bins")
    if include_eos_common and EOS_TOKEN in vocab:
        common.append(vocab.index_of(EOS_TOKEN))
    _SplitMix64(seed).shuffle(carriers)
    slots = np.full(len(vocab), BIN_RESERVED, dtype=np.int64)
    slots[carriers] = np.arange(len(carriers)) % num_bins  # dealt round-robin
    slots[common] = BIN_COMMON
    return StegoKey(block_bits, slots, seed, vocab)


def serialize_key(key: StegoKey) -> bytes:
    lines = [
        KEY_HEADER,
        f"block_bits: {key.block_bits}",
        f"vocab_hash: {key.vocab_hash}",
        f"seed: {key.seed}",
        *(prefix + "".join(f"\t{key.vocab.token(i)}" for i in members)
          for prefix, members in zip(_line_prefixes(key.block_bits), [key.common, *key.bins])),
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _line_prefixes(block_bits: int) -> list[str]:
    """``common:``, then ``bin <label>:`` per bin; the label is the block's bits
    ("0" for one bin)."""
    return ["common:", *(f"bin {b:0{block_bits}b}:" for b in range(1 << block_bits))]


def _parse_header_line(line: str, prefix: str) -> str:
    if not line.startswith(prefix):
        raise KeyFormatError(f"expected {prefix!r} line, found {line!r}")
    return line[len(prefix):].strip()


def deserialize_key(data: bytes, vocab: Vocabulary) -> StegoKey:
    """Parse and validate a key file against the vocabulary it was built from."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise KeyFormatError(f"key file is not UTF-8: {exc}") from None
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 6:
        raise KeyFormatError("key file too short")
    if lines[0] != KEY_HEADER:
        raise KeyFormatError(f"missing {KEY_HEADER!r} header")
    try:
        block_bits = int(_parse_header_line(lines[1], "block_bits:"))
        vocab_hash = _parse_header_line(lines[2], "vocab_hash:")
        seed = int(_parse_header_line(lines[3], "seed:"))
    except ValueError as exc:
        raise KeyFormatError(f"bad header field: {exc}") from None
    if vocab_hash != vocab.content_hash():
        raise VocabMismatchError("key was generated from a different vocabulary")
    if not 0 <= block_bits <= MAX_BLOCK_BITS:
        raise KeyFormatError(f"block_bits must be in [0, {MAX_BLOCK_BITS}], got {block_bits}")
    if not 0 <= seed < 1 << 64:
        raise KeyFormatError(f"seed must be in [0, 2**64), got {seed}")
    num_bins = 1 << block_bits
    if len(lines) - 5 != num_bins:
        raise KeyFormatError(f"expected {num_bins} bin lines for block_bits={block_bits}, "
                             f"found {len(lines) - 5}")
    # One pass over the common line and the bin lines, in slot order.
    rests = map(_parse_header_line, lines[4:], _line_prefixes(block_bits))
    members = [rest.split("\t") if rest else [] for rest in rests]
    surfaces = [surface for line in members for surface in line]
    ids = np.array(vocab.indices(surfaces), dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise KeyFormatError(f"key token not in vocabulary: {surfaces[int(np.argmin(ids))]!r}")
    repeated = np.flatnonzero(np.bincount(ids, minlength=len(vocab)) > 1)
    if repeated.size:
        raise KeyInvariantError(f"token assigned twice: {vocab.token(int(repeated[0]))!r}")
    # Lines come in ascending slot order, so (slot, index) ascends through the
    # file exactly when every line lists its tokens in ascending index order.
    line_slots = np.repeat([BIN_COMMON, *range(num_bins)], [len(line) for line in members])
    if (np.diff(line_slots * len(vocab) + ids) < 0).any():
        raise KeyFormatError("key line tokens are not in ascending vocabulary order")
    slots = np.full(len(vocab), BIN_RESERVED, dtype=np.int64)
    slots[ids] = line_slots
    return StegoKey(block_bits, slots, seed, vocab)


def save_key(key: StegoKey, path: str | Path) -> None:
    Path(path).write_bytes(serialize_key(key))


def load_key(path: str | Path, vocab: Vocabulary) -> StegoKey:
    return deserialize_key(Path(path).read_bytes(), vocab)
