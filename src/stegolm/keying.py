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


@dataclass(frozen=True)
class StegoKey:
    """Bit-block -> token-bin mapping shared by sender and receiver."""

    block_bits: int
    bins: tuple[tuple[int, ...], ...]
    common: tuple[int, ...]
    seed: int
    vocab: Vocabulary

    def __post_init__(self):
        slots = np.asarray(self._build_slots(), dtype=np.int64)
        slots.flags.writeable = False
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_allowed", {})

    def _build_slots(self) -> list[int]:
        vocab, size = self.vocab, len(self.vocab)
        if len(self.bins) != 1 << self.block_bits:
            raise KeyInvariantError(
                f"expected {1 << self.block_bits} bins, found {len(self.bins)}"
            )
        slots = [BIN_RESERVED] * size
        reserved = _reserved_indices(vocab)
        # <eos> may join the common set (lets generation end messages); <unk> never.
        unk_index = vocab.index_of(UNK_TOKEN) if UNK_TOKEN in vocab else None
        for slot, members in [(BIN_COMMON, self.common), *enumerate(self.bins)]:
            for idx in members:
                if not 0 <= idx < size:
                    raise KeyInvariantError(f"token index out of range: {idx}")
                if idx == unk_index or (idx in reserved and slot != BIN_COMMON):
                    where = "the common set" if slot == BIN_COMMON else f"bin {slot}"
                    raise KeyInvariantError(f"reserved sentinel in {where}: {vocab.token(idx)!r}")
                if slots[idx] != BIN_RESERVED:
                    raise KeyInvariantError(f"token assigned twice: {vocab.token(idx)!r}")
                slots[idx] = slot
        uncovered = [i for i, b in enumerate(slots) if b == BIN_RESERVED and i not in reserved]
        if uncovered:
            raise KeyInvariantError(
                f"{len(uncovered)} carrier tokens missing from every bin, e.g. "
                f"{vocab.token(uncovered[0])!r}"
            )
        sizes = [len(members) for members in self.bins]
        if max(sizes) - min(sizes) > 1:
            raise KeyInvariantError(f"bin sizes differ by more than one: {sizes}")
        return slots

    @property
    def vocab_hash(self) -> str:
        """Content hash of the bound vocabulary, written into the key file."""
        return self.vocab.content_hash()

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def lookup_array(self) -> np.ndarray:
        """Read-only slot of every vocabulary index: its bin index for a carrier,
        ``BIN_COMMON`` or ``BIN_RESERVED``. The key's only record of assignment."""
        return self._slots

    def allowed(self, bin_index: int, include_common: bool) -> np.ndarray:
        """Read-only ascending indices of the bin's tokens, plus the common set
        when ``include_common``; read off ``lookup_array`` once per pair."""
        cached = self._allowed.get((bin_index, include_common))
        if cached is None:
            mask = self._slots == bin_index
            if include_common:
                mask |= self._slots == BIN_COMMON
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
        slots = np.where(ids >= 0, self._slots[ids], BIN_RESERVED)
        bad = np.flatnonzero(slots == BIN_RESERVED)
        if bad.size:
            position = int(bad[0])
            surface = tokens[position]
            if surface not in self.vocab:
                raise DecodeError(f"token not in key vocabulary: {surface!r}", position)
            raise DecodeError(f"token carries no bin: {surface!r}", position)
        return slots

    def carrier_count(self) -> int:
        return sum(len(members) for members in self.bins)


def _reserved_indices(vocab: Vocabulary) -> set[int]:
    """Indices of the sentinels that never carry bits (``RESERVED_NONCARRIERS``)."""
    return set(vocab.indices(RESERVED_NONCARRIERS)) - {-1}


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
    num_bins = 1 << block_bits
    if common_count + num_bins > len(vocab):
        raise KeyGenError(
            f"common_count={common_count} plus {num_bins} bins exceeds |V|={len(vocab)}"
        )
    reserved = _reserved_indices(vocab)
    eligible = [i for i in range(len(vocab)) if i not in reserved]
    if common_count > len(eligible):
        raise KeyGenError("not enough non-sentinel tokens for the requested common set")
    common = list(eligible[:common_count])
    if include_eos_common and EOS_TOKEN in vocab:
        common.append(vocab.index_of(EOS_TOKEN))
    carriers = eligible[common_count:]
    if len(carriers) < num_bins:
        raise KeyGenError(
            f"only {len(carriers)} carrier tokens left for {num_bins} bins"
        )
    _SplitMix64(seed).shuffle(carriers)
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    for position, idx in enumerate(carriers):
        bins[position % num_bins].append(idx)
    return StegoKey(
        block_bits=block_bits,
        bins=tuple(tuple(sorted(members)) for members in bins),
        common=tuple(sorted(common)),
        seed=seed,
        vocab=vocab,
    )


def serialize_key(key: StegoKey) -> bytes:
    lines = [
        KEY_HEADER,
        f"block_bits: {key.block_bits}",
        f"vocab_hash: {key.vocab_hash}",
        f"seed: {key.seed}",
        "common:" + "".join(f"\t{key.vocab.token(i)}" for i in key.common),
    ]
    for bin_index, members in enumerate(key.bins):
        lines.append(_bin_prefix(bin_index, key.block_bits)
                     + "".join(f"\t{key.vocab.token(i)}" for i in members))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _bin_prefix(bin_index: int, block_bits: int) -> str:
    """``bin <label>:`` line prefix; the label is the block's bits ("0" for one bin)."""
    label = format(bin_index, f"0{block_bits}b") if block_bits else "0"
    return f"bin {label}:"


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

    def surfaces_to_indices(line: str, prefix: str) -> tuple[int, ...]:
        rest = _parse_header_line(line, prefix)
        surfaces = rest.split("\t") if rest else []
        indices = vocab.indices(surfaces)
        if -1 in indices:
            raise KeyFormatError(f"key token not in vocabulary: {surfaces[indices.index(-1)]!r}")
        return tuple(indices)

    common = surfaces_to_indices(lines[4], "common:")
    if not 0 <= block_bits <= MAX_BLOCK_BITS:
        raise KeyFormatError(f"block_bits must be in [0, {MAX_BLOCK_BITS}], got {block_bits}")
    bin_lines = lines[5:]
    if len(bin_lines) != 1 << block_bits:
        raise KeyFormatError(
            f"expected {1 << block_bits} bin lines for block_bits={block_bits}, "
            f"found {len(bin_lines)}"
        )
    bins = [surfaces_to_indices(line, _bin_prefix(bin_index, block_bits))
            for bin_index, line in enumerate(bin_lines)]
    return StegoKey(
        block_bits=block_bits,
        bins=tuple(bins),
        common=common,
        seed=seed,
        vocab=vocab,
    )


def save_key(key: StegoKey, path: str | Path) -> None:
    Path(path).write_bytes(serialize_key(key))


def load_key(path: str | Path, vocab: Vocabulary) -> StegoKey:
    return deserialize_key(Path(path).read_bytes(), vocab)
