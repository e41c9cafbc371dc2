import numpy as np
import pytest

from conftest import int_respellings
from stegolm.corpus import EOS_TOKEN, UNK_TOKEN, Vocabulary, build_vocab
from stegolm.errors import (
    ConfigError,
    DecodeError,
    KeyFormatError,
    KeyGenError,
    KeyInvariantError,
    VocabMismatchError,
)
from stegolm.keying import (
    BIN_COMMON,
    BIN_RESERVED,
    BitBlock,
    StegoKey,
    deserialize_key,
    generate_key,
    serialize_key,
)


def small_vocab(n_carriers: int) -> Vocabulary:
    # build_vocab adds <eos>/<unk>; counts descend so ordering is stable
    tokens = []
    for i in range(n_carriers):
        tokens.extend([f"t{i:02d}"] * (n_carriers - i))
    return build_vocab(tokens)


class TestBitBlock:
    def test_bits_msb_first(self):
        assert BitBlock(2, 2).bits == "10"
        assert BitBlock.from_bits("10").value == 2

    def test_zero_width(self):
        assert BitBlock(0, 0).bits == ""

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitBlock(4, 2)

    @pytest.mark.parametrize("value, width", [(2.5, 2), (1, 2.0), (True, 1), (1, True),
                                              (np.int64(1), 2), (-1, 2), (0, -1)])
    def test_non_integers_and_negatives_refused(self, value, width):
        with pytest.raises(ConfigError):
            BitBlock(value, width)


class TestGenerateKey:
    def test_even_partition(self):
        vocab = small_vocab(8)
        key = generate_key(vocab, 2, 0, seed=3)
        assert [len(b) for b in key.bins] == [2, 2, 2, 2]
        covered = sorted(i for members in key.bins for i in members)
        carriers = [i for i, t in enumerate(vocab.tokens) if t not in (EOS_TOKEN, UNK_TOKEN)]
        assert covered == carriers

    def test_round_robin_sizes_when_not_divisible(self):
        key = generate_key(small_vocab(9), 2, 0, seed=0)
        assert sorted(len(b) for b in key.bins) == [2, 2, 2, 3]

    def test_deterministic_in_all_inputs(self):
        vocab = small_vocab(12)
        a = generate_key(vocab, 2, 3, seed=99)
        b = generate_key(vocab, 2, 3, seed=99)
        assert a == b
        assert generate_key(vocab, 2, 3, seed=100) != a

    def test_common_is_most_frequent_non_sentinels(self):
        vocab = small_vocab(10)
        key = generate_key(vocab, 1, 3, seed=1)
        expected = [t for t in vocab.tokens if t not in (EOS_TOKEN, UNK_TOKEN)][:3]
        assert [vocab.token(i) for i in key.common] == sorted(
            expected, key=vocab.index_of
        )

    def test_common_eos_option(self):
        vocab = small_vocab(8)
        key = generate_key(vocab, 1, 2, seed=1, include_eos_common=True)
        assert vocab.index_of(EOS_TOKEN) in set(key.common)
        assert key.slots([EOS_TOKEN]).tolist() == [BIN_COMMON]

    def test_block_bits_zero_gives_single_bin(self):
        vocab = small_vocab(5)
        key = generate_key(vocab, 0, 0, seed=1)
        assert key.num_bins == 1
        assert key.carrier_count() == 5

    def test_parameter_validation(self):
        vocab = small_vocab(6)
        with pytest.raises(KeyGenError):
            generate_key(vocab, -1, 0, seed=0)
        with pytest.raises(KeyGenError):
            generate_key(vocab, 17, 0, seed=0)
        with pytest.raises(KeyGenError):
            generate_key(vocab, 3, 0, seed=0)  # 8 bins > 6 carriers
        with pytest.raises(KeyGenError):
            generate_key(vocab, 1, 99, seed=0)
        for seed in (-1, 2**64):
            with pytest.raises(KeyGenError):
                generate_key(vocab, 1, 0, seed=seed)
        assert generate_key(vocab, 1, 0, seed=2**64 - 1).seed == 2**64 - 1


class TestBinOfToken:
    def test_fixture_mapping(self, fixture_key):
        tokens = ["attaching", "I", "am", "NDA"]
        blocks = [BitBlock(int(s), 2).bits for s in fixture_key.slots(tokens)]
        assert blocks == ["01", "10", "00", "11"]

    def test_common_marker(self):
        key = generate_key(small_vocab(9), 1, 2, seed=5)
        common = [key.vocab.token(i) for i in key.common]
        assert key.slots(common).tolist() == [BIN_COMMON] * 2

    def test_inverse_of_bin_membership(self):
        key = generate_key(small_vocab(13), 2, 2, seed=8)
        lookup = key.lookup_array()
        for value, members in enumerate(key.bins):
            assert all(lookup[idx] == value for idx in members)
        assert lookup[key.vocab.index_of(EOS_TOKEN)] == BIN_RESERVED

    def test_sentinels_rejected(self, fixture_key):
        with pytest.raises(DecodeError):
            fixture_key.slots([EOS_TOKEN])
        with pytest.raises(DecodeError):
            fixture_key.slots([UNK_TOKEN])


class TestSlots:
    def test_slot_array_agrees_with_bins_and_common(self):
        key = generate_key(small_vocab(13), 2, 2, seed=8, include_eos_common=True)
        lookup = key.lookup_array()
        for value, members in enumerate(key.bins):
            assert all(lookup[idx] == value for idx in members)
        assert all(lookup[idx] == BIN_COMMON for idx in key.common)
        assert lookup[key.vocab.index_of(UNK_TOKEN)] == BIN_RESERVED
        assert lookup[key.vocab.index_of(EOS_TOKEN)] == BIN_COMMON
        with pytest.raises(ValueError):
            lookup[0] = 0

    def test_allowed_sets_are_cached_read_only_and_per_key(self):
        vocab = small_vocab(13)
        key = generate_key(vocab, 2, 3, seed=8, include_eos_common=True)
        twin = generate_key(vocab, 2, 3, seed=8, include_eos_common=True)
        assert twin == key
        for value, members in enumerate(key.bins):
            for include_common in (False, True):
                allowed = key.allowed(value, include_common)
                want = set(members) | (set(key.common) if include_common else set())
                assert allowed.tolist() == sorted(want)
                assert key.allowed(value, include_common) is allowed
                with pytest.raises(ValueError):
                    allowed[0] = 0
                other = twin.allowed(value, include_common)
                assert not np.shares_memory(other, allowed)
                assert np.array_equal(other, allowed) and not other.flags.writeable

    def test_classifies_stegotext_tokens(self, fixture_key):
        assert fixture_key.slots(["I", "am", "NDA", "was"]).tolist() == [2, 0, 3, 1]
        assert fixture_key.slots([]).tolist() == []

    @pytest.mark.parametrize("bad", ["zzz", EOS_TOKEN, UNK_TOKEN])
    def test_first_unknown_or_reserved_token_is_reported(self, fixture_key, bad):
        with pytest.raises(DecodeError) as err:
            fixture_key.slots(["I", "am", bad, "zzz"])
        assert err.value.position == 2
        assert repr(bad) in str(err.value)


class TestKeyInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_keys_partition_carriers(self, seed):
        rng = np.random.default_rng(seed)
        vocab = small_vocab(int(rng.integers(8, 40)))
        block_bits = int(rng.integers(0, 4))
        room = len(vocab) - 2 - (1 << block_bits)
        common = int(rng.integers(0, max(room, 0) + 1))
        key = generate_key(vocab, block_bits, common, seed=seed)
        seen = set(key.common)
        for members in key.bins:
            for idx in members:
                assert idx not in seen
                seen.add(idx)
        carriers = {
            i for i, t in enumerate(vocab.tokens) if t not in (EOS_TOKEN, UNK_TOKEN)
        }
        assert seen == carriers
        sizes = [len(b) for b in key.bins]
        assert max(sizes) - min(sizes) <= 1

    def test_overlapping_bins_rejected(self, fixture_vocab, fixture_key):
        # A slot array gives every token one slot, so an overlap can only be
        # written in a key file: a token in two bins, twice in one bin, or in
        # a bin and the common set.
        lines = serialize_key(fixture_key).decode().splitlines()
        token = fixture_vocab.token(fixture_key.bins[1][0])
        for row in (5, 6, 4):
            damaged = list(lines)
            damaged[row] += f"\t{token}"
            with pytest.raises(KeyInvariantError, match="assigned twice"):
                deserialize_key(("\n".join(damaged) + "\n").encode(), fixture_vocab)

    def test_missing_carrier_rejected(self, fixture_vocab, fixture_key):
        slots = fixture_key.lookup_array().copy()
        slots[fixture_key.bins[3][-1]] = BIN_RESERVED
        with pytest.raises(KeyInvariantError, match="missing"):
            StegoKey(2, slots, 0, fixture_vocab)

    def test_lopsided_bins_rejected(self):
        vocab = small_vocab(8)
        slots = generate_key(vocab, 1, 0, seed=0).lookup_array().copy()
        slots[slots == 1] = 0
        with pytest.raises(KeyInvariantError, match="differ"):
            StegoKey(1, slots, 0, vocab)
        # Sizes within one of each other, but a block whose bin is empty
        # could never be encoded (generate_key refuses fewer carriers than bins).
        carriers = np.flatnonzero(slots >= 0)
        slots[carriers] = np.arange(carriers.size) % 16
        with pytest.raises(KeyInvariantError, match="empty"):
            StegoKey(4, slots, 0, vocab)

    def test_index_outside_vocabulary_rejected(self, fixture_vocab, fixture_key):
        # A slot for index |V| means an array one entry too long.
        slots = np.append(fixture_key.lookup_array(), 0)
        with pytest.raises(KeyInvariantError, match="shape"):
            StegoKey(2, slots, 0, fixture_vocab)
        with pytest.raises(KeyInvariantError, match="shape"):
            StegoKey(2, slots[:-2], 0, fixture_vocab)

    def test_slot_value_out_of_range_rejected(self, fixture_vocab, fixture_key):
        for value in (BIN_COMMON - 1, 4):
            slots = fixture_key.lookup_array().copy()
            slots[fixture_key.bins[0][0]] = value
            with pytest.raises(KeyInvariantError, match="slot values"):
                StegoKey(2, slots, 0, fixture_vocab)
        with pytest.raises(KeyInvariantError, match="block_bits"):
            StegoKey(17, fixture_key.lookup_array(), 0, fixture_vocab)

    def test_non_integer_slots_rejected(self):
        vocab = small_vocab(6)
        assert len(vocab) == 8
        key = generate_key(vocab, 1, 0, seed=4)
        slots = key.lookup_array()
        # np.int64 would truncate the first two and parse the third into this key
        for bad in (np.where(slots >= 0, slots + 0.4, slots), slots.astype(float),
                    slots.astype(str)):
            with pytest.raises(KeyInvariantError, match="integer"):
                StegoKey(1, bad, key.seed, vocab)
        # a uint64 array holds the reserved slot as 2**64 - 1: out of range, not -1
        with pytest.raises(KeyInvariantError, match="slot values"):
            StegoKey(1, slots.astype(np.uint64), key.seed, vocab)
        assert StegoKey(1, slots.astype(np.int8), key.seed, vocab) == key

    def test_sentinels_stay_reserved(self, fixture_vocab, fixture_key):
        eos, unk = fixture_vocab.indices([EOS_TOKEN, UNK_TOKEN])
        for idx, slot in ((unk, BIN_COMMON), (unk, 0), (eos, 0)):
            slots = fixture_key.lookup_array().copy()
            slots[idx] = slot
            with pytest.raises(KeyInvariantError, match="reserved"):
                StegoKey(2, slots, 0, fixture_vocab)
        slots = fixture_key.lookup_array().copy()
        slots[eos] = BIN_COMMON
        assert StegoKey(2, slots, 0, fixture_vocab).common == (eos,)

    def test_slot_array_is_a_read_only_copy(self, fixture_vocab, fixture_key):
        slots = fixture_key.lookup_array().copy()
        key = StegoKey(2, slots, 0, fixture_vocab)
        slots[:] = BIN_RESERVED
        assert key == fixture_key and key.lookup_array() is key.slot_array
        assert not key.slot_array.flags.writeable
        assert key != StegoKey(2, key.slot_array, 1, fixture_vocab)


class TestSerialization:
    def test_roundtrip_equality_and_bytes(self):
        vocab = small_vocab(11)
        key = generate_key(vocab, 2, 3, seed=21)
        data = serialize_key(key)
        again = deserialize_key(data, vocab)
        assert again == key
        assert serialize_key(again) == data

    def test_roundtrip_with_eos_in_common(self):
        vocab = small_vocab(9)
        key = generate_key(vocab, 1, 2, seed=3, include_eos_common=True)
        data = serialize_key(key)
        assert f"\t{EOS_TOKEN}" in data.decode()
        assert serialize_key(deserialize_key(data, vocab)) == data

    def test_file_layout(self):
        vocab = small_vocab(6)
        key = generate_key(vocab, 1, 1, seed=4)
        lines = serialize_key(key).decode().splitlines()
        assert lines[0] == "STEGOKEY v1"
        assert lines[1] == "block_bits: 1"
        assert lines[2].startswith("vocab_hash: ")
        assert lines[3] == "seed: 4"
        assert lines[4].startswith("common:")
        assert lines[5].startswith("bin 0:\t")
        assert lines[6].startswith("bin 1:\t")

    def test_binary_bin_labels(self):
        vocab = small_vocab(9)
        key = generate_key(vocab, 2, 0, seed=4)
        text = serialize_key(key).decode()
        for label in ("bin 00:", "bin 01:", "bin 10:", "bin 11:"):
            assert label in text

    def test_duplicated_token_rejected_on_load(self):
        vocab = small_vocab(6)
        key = generate_key(vocab, 1, 0, seed=4)
        text = serialize_key(key).decode()
        dup = key.vocab.token(key.bins[0][0])
        lines = text.splitlines()
        lines[6] += f"\t{dup}"
        with pytest.raises(KeyInvariantError):
            deserialize_key(("\n".join(lines) + "\n").encode(), vocab)

    def test_unsorted_line_rejected_on_load(self):
        vocab = small_vocab(6)
        lines = serialize_key(generate_key(vocab, 1, 0, seed=4)).decode().splitlines()
        prefix, first, second, *rest = lines[5].split("\t")
        lines[5] = "\t".join([prefix, second, first, *rest])
        with pytest.raises(KeyFormatError, match="spelt"):
            deserialize_key(("\n".join(lines) + "\n").encode(), vocab)

    def test_wrong_vocab_rejected(self):
        vocab = small_vocab(6)
        other = small_vocab(7)
        key = generate_key(vocab, 1, 0, seed=4)
        with pytest.raises(VocabMismatchError):
            deserialize_key(serialize_key(key), other)

    def test_non_utf8_key_rejected(self, mini_vocab):
        key = generate_key(mini_vocab, 1, 0, seed=4)
        with pytest.raises(KeyFormatError):
            deserialize_key(serialize_key(key) + b"\xff\xfe", mini_vocab)

    def test_only_the_canonical_spelling_loads(self, mini_vocab):
        data = serialize_key(generate_key(mini_vocab, 1, 0, seed=4))
        for old, new in [(b"block_bits: 1", b"block_bits: +1"),
                         (b"block_bits: 1", b"block_bits: 01"),
                         (b"block_bits: 1", b"block_bits:  1"), (b"seed: 4", b"seed: 0004"),
                         (b"seed: 4", b"seed: 4 "), (b"common:", b"common:\t"),
                         (b"bin 0:\t", b"bin 0: \t"), (b"bin 0:\t", b"bin 0:\t\t"),
                         (b"bin 0:\t", b"bin 0:")]:
            assert old in data
            with pytest.raises(KeyFormatError):
                deserialize_key(data.replace(old, new), mini_vocab)
        with pytest.raises(KeyFormatError, match="bin lines"):
            deserialize_key(data[:-1], mini_vocab)
        data = serialize_key(generate_key(mini_vocab, 1, 0, seed=10))
        for field, number in [("block_bits: ", "1"), ("seed: ", "10")]:
            assert (field + number).encode() in data
            for spelt in int_respellings(number):
                with pytest.raises(KeyFormatError, match="spelt"):
                    deserialize_key(data.replace((field + number).encode(),
                                                 (field + spelt).encode()), mini_vocab)

    def test_malformed_header_rejected(self, mini_vocab):
        with pytest.raises(KeyFormatError):
            deserialize_key(b"STEGOKEY v2\n", mini_vocab)
        with pytest.raises(KeyFormatError):
            deserialize_key(b"STEGOKEY v1\nblock_bits: x\n\n\n\n\n", mini_vocab)
        data = serialize_key(generate_key(mini_vocab, 1, 0, seed=4))
        top = deserialize_key(data.replace(b"seed: 4", b"seed: %d" % (2**64 - 1)), mini_vocab)
        assert top.seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(KeyFormatError, match="seed"):
                deserialize_key(data.replace(b"seed: 4", b"seed: %d" % seed), mini_vocab)
