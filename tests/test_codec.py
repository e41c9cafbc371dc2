import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FixedModel
from stegolm import codec
from stegolm.codec import (
    Framing,
    GenPolicy,
    Mode,
    Payload,
    bits_to_bytes,
    bytes_to_bits,
    constrained_select,
    decode,
    decode_payload,
    encode,
    encode_bits,
    payload_to_bits,
    render,
    split_blocks,
)
from stegolm.corpus import EOS_TOKEN, USER_TOKEN, build_vocab
from stegolm.errors import ConfigError, DecodeError, EncodeError, VocabMismatchError
from stegolm.keying import BitBlock, generate_key
from stegolm.lm import LstmHyperparams, train_lstm

GREEDY = GenPolicy(mode=Mode.GREEDY)
#: One token of each bin of the fixture key (block_bits 2), by block.
FIXTURE_CARRIER = {"00": "am", "01": "was", "10": "I", "11": "NDA"}


def carriers(bits: str) -> list[str]:
    """Fixture-key tokens that decode to ``bits`` (an even number of them)."""
    return [FIXTURE_CARRIER[bits[i:i + 2]] for i in range(0, len(bits), 2)]


@pytest.fixture(scope="module")
def tiny_lstm(mini_tokens, mini_vocab):
    hp = LstmHyperparams(layers=1, units=8, embed_dim=4, unroll_steps=8, batch_size=4)
    return train_lstm(mini_tokens[:500], mini_vocab, hp, epochs=1, seed=1)


class TestBitBlocks:
    def test_three_blocks_of_two(self):
        blocks = split_blocks("100001", 2)
        assert [b.bits for b in blocks] == ["10", "00", "01"]

    def test_raw_drops_remainder(self):
        blocks = split_blocks("10000", 2)
        assert [b.bits for b in blocks] == ["10", "00"]

    def test_byte_msb_first(self):
        blocks = split_blocks(payload_to_bits(Payload(b"\xa5", Framing.RAW), 4), 4)
        assert [b.bits for b in blocks] == ["1010", "0101"]

    def test_length_framing_prepends_bit_count(self):
        bits = payload_to_bits(Payload(b"\xff", Framing.LENGTH_PREFIXED), 3)
        assert bits.startswith(format(8, "032b"))
        assert len(bits) % 3 == 0
        assert bits[32:40] == "11111111"
        assert set(bits[40:]) <= {"0"}

    def test_bytes_bits_roundtrip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_bits_to_bytes_rejects_ragged(self):
        with pytest.raises(ValueError):
            bits_to_bytes("1010101")


class TestConstrainedSelect:
    def test_result_always_in_bin_or_common(self, mini_bigram, mini_vocab):
        key = generate_key(mini_vocab, 2, 4, seed=5)
        rng = np.random.default_rng(0)
        ctx = mini_bigram.initial_context()
        for trial in range(200):
            block = BitBlock(trial % 4, key.block_bits)
            policy = GenPolicy(mode=Mode.SAMPLE if trial % 2 else Mode.GREEDY, seed=trial)
            idx = constrained_select(mini_bigram, ctx, key, block, policy, rng=rng)
            assert idx in set(key.bins[block.value]) | set(key.common)
            ctx = mini_bigram.advance(ctx, idx)

    def test_greedy_tie_breaks_to_lowest_index(self):
        # equal counts make the vocabulary order lexicographic, and a uniform
        # model makes every allowed token tie
        vocab = build_vocab(["pear", "apple", "mango", "kiwi", "plum", "fig"])
        key = generate_key(vocab, 1, 0, seed=2)
        model = FixedModel(vocab, np.full(len(vocab), 1 / len(vocab)))
        for value in (0, 1):
            block = BitBlock(value, key.block_bits)
            picked = constrained_select(model, (), key, block, GREEDY)
            assert picked == min(key.bins[value])

    def test_greedy_picks_known_argmax(self, steered_bigram, fixture_key, fixture_vocab):
        ctx = steered_bigram.advance(
            steered_bigram.initial_context(), fixture_vocab.index_of("I"))
        block = BitBlock(int(fixture_key.slots(["am"])[0]), fixture_key.block_bits)
        picked = constrained_select(steered_bigram, ctx, fixture_key, block, GREEDY)
        assert fixture_vocab.token(picked) == "am"

    def test_banned_common_excluded(self, mini_bigram, mini_vocab):
        key = generate_key(mini_vocab, 1, 3, seed=5)
        block = BitBlock(0, key.block_bits)
        probs = np.full(len(mini_vocab), 1e-9)
        probs[list(key.common)] = 0.3
        probs /= probs.sum()
        model = FixedModel(mini_vocab, probs)
        first = constrained_select(model, (), key, block, GREEDY)
        assert first in set(key.common)
        second = constrained_select(model, (), key, block, GREEDY, banned={first})
        assert second in set(key.common) and second != first

    @pytest.mark.parametrize("entry", [-528, True, 1.0, 10**6])
    def test_banned_entries_checked_as_token_indices(self, desk_vocab, entry):
        # Read as array indices, -528 (|V| = 529), True and 1.0 would each ban
        # token 1 and 10**6 would raise IndexError; each is no token index.
        key = generate_key(desk_vocab, 2, 10, seed=7)
        assert len(desk_vocab) == 529 and 1 in key.common
        model = FixedModel(desk_vocab, np.full(len(desk_vocab), 1 / len(desk_vocab)))
        for include_common in (True, False):
            with pytest.raises(ValueError, match="token index"):
                constrained_select(model, (), key, BitBlock(0, 2), GREEDY,
                                   include_common=include_common, banned={entry})

    def test_numpy_integer_banned_entry_is_an_index(self, desk_vocab):
        key = generate_key(desk_vocab, 2, 10, seed=7)
        probs = np.full(len(desk_vocab), 0.1 / len(desk_vocab))
        probs[1] += 0.9
        model = FixedModel(desk_vocab, probs)
        block = BitBlock(0, 2)
        assert constrained_select(model, (), key, block, GREEDY) == 1
        banned = constrained_select(model, (), key, block, GREEDY, banned={1})
        assert banned != 1
        assert constrained_select(model, (), key, block, GREEDY, banned={np.int64(1)}) == banned

    def test_allowed_set_is_sorted_bin_plus_unbanned_common(self, mini_vocab, monkeypatch):
        # The order of the allowed set decides which token a seeded SAMPLE
        # draw picks, so it is pinned element for element.
        seen = []

        def capture(probs, allowed, policy, rng):
            seen.append(np.array(allowed))
            return int(allowed[0])

        monkeypatch.setattr(codec, "_pick", capture)
        model = FixedModel(mini_vocab, np.full(len(mini_vocab), 1 / len(mini_vocab)))
        rng = np.random.default_rng(3)
        for trial in range(120):
            block_bits = trial % 5
            key = generate_key(mini_vocab, block_bits, int(rng.choice([0, 3])), seed=trial,
                               include_eos_common=bool(trial % 2))
            value = int(rng.integers(1 << block_bits))
            bin_members = set(key.bins[value])
            pool = sorted(set(key.common) | {key.bins[value][0]})
            banned = {int(i) for i in rng.choice(pool, size=rng.integers(len(pool) + 1),
                                                 replace=False)}
            include_common = bool(rng.integers(2))
            constrained_select(model, (), key, BitBlock(value, block_bits), GREEDY,
                               include_common=include_common, banned=banned)
            want = bin_members | (set(key.common) - banned if include_common else set())
            assert seen[-1].tolist() == sorted(want), (trial, banned, include_common)
            assert seen[-1].dtype.kind == "i"

    def test_zero_mass_guarded(self, mini_vocab):
        key = generate_key(mini_vocab, 1, 0, seed=1)
        probs = np.zeros(len(mini_vocab))
        probs[key.bins[1][0]] = 1.0
        model = FixedModel(mini_vocab, probs)
        block0 = BitBlock(0, key.block_bits)
        with pytest.raises(EncodeError):
            constrained_select(model, (), key, block0, GREEDY)


class TestEncode:
    def test_reproduces_known_sentence(self, steered_bigram, fixture_key):
        out = encode_bits("1000011011", fixture_key, steered_bigram, GREEDY)
        assert out.tokens == ("I", "am", "attaching", "an", "NDA")
        assert out.carrier_count == 5

    def test_rejects_empty_raw_payload(self, fixture_key, steered_bigram):
        with pytest.raises(EncodeError):
            encode(Payload(b"", Framing.RAW), fixture_key, steered_bigram, GREEDY)
        with pytest.raises(EncodeError):
            encode_bits("1", fixture_key, steered_bigram, GREEDY)

    def test_rejects_single_bin_key(self, mini_vocab, mini_bigram):
        key = generate_key(mini_vocab, 0, 0, seed=1)
        with pytest.raises(EncodeError):
            encode(Payload(b"hi"), key, mini_bigram)

    def test_rejects_model_key_vocab_mismatch(self, mini_bigram, fixture_vocab):
        key = generate_key(fixture_vocab, 1, 0, seed=1)
        with pytest.raises(VocabMismatchError):
            encode(Payload(b"hi"), key, mini_bigram)

    def test_bin_sequence_matches_blocks(self, mini_bigram, mini_vocab):
        rng = np.random.default_rng(9)
        for trial in range(30):
            block_bits = int(rng.integers(1, 4))
            common = int(rng.choice([0, 6]))
            key = generate_key(mini_vocab, block_bits, common, seed=trial)
            payload = Payload(rng.bytes(int(rng.integers(1, 20))), Framing.RAW)
            policy = GenPolicy(mode=Mode.SAMPLE if trial % 2 else Mode.GREEDY, seed=trial)
            out = encode(payload, key, mini_bigram, policy)
            blocks = split_blocks(payload_to_bits(payload, block_bits), block_bits)
            observed = [slot for slot in key.slots(out.tokens) if slot >= 0]
            assert observed == [b.value for b in blocks]
            assert out.carrier_count == len(blocks)

    def test_every_token_advances_context_and_common_runs_bounded(self, mini_vocab):
        key = generate_key(mini_vocab, 1, 10, seed=3)
        probs = np.full(len(mini_vocab), 1e-9)
        probs[list(key.common)] = 0.1
        probs /= probs.sum()
        model = FixedModel(mini_vocab, probs)
        policy = GenPolicy(mode=Mode.GREEDY, max_common_run=4)
        out = encode_bits("1010", key, model, policy)
        run = 0
        for surface in out.tokens:
            if mini_vocab.index_of(surface) in set(key.common):
                run += 1
                assert run <= 4
            else:
                run = 0
        assert out.carrier_count == 4

    def test_greedy_is_deterministic(self, mini_bigram, mini_vocab):
        key = generate_key(mini_vocab, 2, 5, seed=11)
        payload = Payload(b"determinism", Framing.RAW)
        a = encode(payload, key, mini_bigram, GREEDY)
        b = encode(payload, key, mini_bigram, GREEDY)
        assert a == b

    def test_sampling_reproducible_by_seed(self, mini_bigram, mini_vocab):
        key = generate_key(mini_vocab, 2, 5, seed=11)
        payload = Payload(b"seeded", Framing.RAW)
        pol = GenPolicy(mode=Mode.SAMPLE, seed=77)
        assert encode(payload, key, mini_bigram, pol) == encode(payload, key, mini_bigram, pol)
        other = GenPolicy(mode=Mode.SAMPLE, seed=78)
        assert encode(payload, key, mini_bigram, pol) != encode(payload, key, mini_bigram, other)


class TestDecode:
    def test_known_sentence_bits(self, fixture_key):
        assert decode(["I", "am", "attaching", "an", "NDA"], fixture_key) == "1000011011"

    def test_empty_sequence(self, fixture_key):
        assert decode([], fixture_key) == ""

    def test_unknown_token_reports_position(self, fixture_key):
        with pytest.raises(DecodeError) as err:
            decode(["I", "zzz"], fixture_key)
        assert err.value.position == 1

    def test_sentinel_reports_position(self, fixture_key):
        with pytest.raises(DecodeError) as err:
            decode(["I", "am", EOS_TOKEN], fixture_key)
        assert err.value.position == 2

    def test_common_tokens_are_transparent(self, mini_bigram, mini_vocab):
        rng = np.random.default_rng(21)
        key = generate_key(mini_vocab, 2, 6, seed=2)
        payload = Payload(rng.bytes(12), Framing.RAW)
        out = encode(payload, key, mini_bigram, GenPolicy(mode=Mode.SAMPLE, seed=5))
        reference = decode(out.tokens, key)
        common_surfaces = [mini_vocab.token(i) for i in key.common]
        for _ in range(25):
            tokens = list(out.tokens)
            for _ in range(int(rng.integers(1, 8))):
                pos = int(rng.integers(0, len(tokens) + 1))
                tokens.insert(pos, common_surfaces[int(rng.integers(len(common_surfaces)))])
            assert decode(tokens, key) == reference
        stripped = [
            t for t in out.tokens if mini_vocab.index_of(t) not in set(key.common)
        ]
        assert decode(stripped, key) == reference

    def test_decode_is_model_independent(self, mini_vocab, mini_bigram, tiny_lstm):
        key = generate_key(mini_vocab, 2, 0, seed=3)
        payload = Payload(b"\x0f\xf0", Framing.RAW)
        bits = bytes_to_bits(payload.data)
        for model in (mini_bigram, tiny_lstm):
            out = encode(payload, key, model, GenPolicy(mode=Mode.SAMPLE, seed=4))
            assert decode(out.tokens, key) == bits

    def test_length_header_truncation_errors(self, fixture_key):
        # 5 carriers = 10 bits: not enough for the 32-bit header
        with pytest.raises(DecodeError):
            decode_payload(["I", "am", "attaching", "an", "NDA"], fixture_key)

    @pytest.mark.parametrize("tokens, message, position", [
        (carriers("1000011011"),
         "only 10 bits decoded; the 32-bit length header is incomplete", None),
        (carriers(format(16, "032b") + "101010"),
         "header declares 16 payload bits but only 6 are present", None),
        (carriers(format(2, "032b") + "11"), "declared payload of 2 bits is not byte-aligned", None),
        (["I", "zzz"], "token not in key vocabulary: 'zzz' (token position 1)", 1),
        (["I", "am", EOS_TOKEN], "token carries no bin: '<eos>' (token position 2)", 2),
    ], ids=["header-incomplete", "header-past-end", "not-byte-aligned", "oov", "reserved"])
    def test_decode_payload_error_messages(self, fixture_key, tokens, message, position):
        with pytest.raises(DecodeError) as err:
            decode_payload(tokens, fixture_key)
        assert str(err.value) == message
        assert err.value.position == position

    @given(data=st.binary(max_size=64), zeros=st.integers(0, 4), block_bits=st.integers(1, 8),
           common=st.sampled_from([0, 10]), seed=st.integers(0, 2**20))
    @settings(max_examples=100, deadline=None)
    def test_decode_payload_matches_per_byte_reference(self, desk_vocab, data, zeros,
                                                       block_bits, common, seed):
        data = (b"\x00" * zeros + data)[:64]
        key = generate_key(desk_vocab, block_bits, common, seed=seed)
        model = FixedModel(desk_vocab, np.full(len(desk_vocab), 1 / len(desk_vocab)))
        tokens = encode(Payload(data, Framing.LENGTH_PREFIXED), key, model,
                        GenPolicy(seed=seed)).tokens
        bits = decode(tokens, key)
        body = bits[32:32 + int(bits[:32], 2)]
        reference = bytes(int(body[i:i + 8], 2) for i in range(0, len(body), 8))
        assert reference == data
        assert decode_payload(tokens, key) == reference

    def test_eos_in_common_set_roundtrips(self, mini_vocab):
        # a message-boundary-hungry model: <eos> may be emitted as a common
        # token, carries no bits, and renders as nothing
        key = generate_key(mini_vocab, 1, 2, seed=4, include_eos_common=True)
        probs = np.full(len(mini_vocab), 1e-6)
        probs[mini_vocab.index_of(EOS_TOKEN)] = 0.5
        probs /= probs.sum()
        model = FixedModel(mini_vocab, probs)
        out = encode(Payload(b"\xc3", Framing.LENGTH_PREFIXED), key, model,
                     GenPolicy(mode=Mode.SAMPLE, seed=12))
        assert EOS_TOKEN in out.tokens
        assert EOS_TOKEN not in render(out.tokens)
        assert decode_payload(out.tokens, key) == b"\xc3"


class TestRoundTrip:
    @given(
        data=st.binary(min_size=1, max_size=24),
        block_bits=st.integers(1, 3),
        common=st.sampled_from([0, 5]),
        framing=st.sampled_from([Framing.RAW, Framing.LENGTH_PREFIXED]),
        mode=st.sampled_from([Mode.GREEDY, Mode.SAMPLE]),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_decode_inverts_encode(self, mini_bigram, mini_vocab, data,
                                   block_bits, common, framing, mode, seed):
        key = generate_key(mini_vocab, block_bits, common, seed=seed)
        payload = Payload(data, framing)
        policy = GenPolicy(mode=mode, seed=seed)
        out = encode(payload, key, mini_bigram, policy)
        if framing is Framing.LENGTH_PREFIXED:
            assert decode_payload(out.tokens, key) == data
        else:
            bits = bytes_to_bits(payload.data)
            prefix_len = (len(bits) // block_bits) * block_bits
            assert decode(out.tokens, key) == bits[:prefix_len]

    @pytest.mark.parametrize("mode", [Mode.GREEDY, Mode.SAMPLE])
    @pytest.mark.parametrize("common", [0, 10])
    @pytest.mark.parametrize("block_bits", [1, 2, 3])
    def test_length_framed_payload_over_lstm(self, tiny_lstm, mini_vocab, block_bits, common,
                                             mode):
        rng = np.random.default_rng([block_bits, common])
        data = rng.bytes(int(rng.integers(1, 33)))
        key = generate_key(mini_vocab, block_bits, common, seed=int(rng.integers(1 << 30)))
        policy = GenPolicy(mode=mode, seed=int(rng.integers(1 << 30)))
        out = encode(Payload(data, Framing.LENGTH_PREFIXED), key, tiny_lstm, policy)
        assert decode_payload(out.tokens, key) == data


class TestLowTemperature:
    def test_encode_at_temperature_0_002(self, desk_trigram, desk_vocab):
        # 1/T = 500: weights not scaled by their maximum underflow to all zeros
        policy = GenPolicy(mode=Mode.SAMPLE, temperature=0.002, seed=3)
        key = generate_key(desk_vocab, 2, 10, seed=9)
        out = encode(Payload(b"cold", Framing.LENGTH_PREFIXED), key, desk_trigram, policy)
        assert decode_payload(out.tokens, key) == b"cold"


class TestDraw:
    """SAMPLE draws by inverse CDF; it must give ``Generator.choice``'s index."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 600), zero_fraction=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
           temperature=st.one_of(st.just(1.0), st.floats(0.002, 5)),
           seed=st.integers(0, 2**32 - 1))
    def test_same_index_as_generator_choice(self, n, zero_fraction, temperature, seed):
        data = np.random.default_rng(seed)
        probs = data.random(2 * n) * (data.random(2 * n) >= zero_fraction)
        allowed = np.sort(data.choice(2 * n, size=n, replace=False))
        if not probs[allowed].any():  # a single non-zero weight
            probs[allowed[data.integers(n)]] = data.random() + 1e-300
        policy = GenPolicy(mode=Mode.SAMPLE, temperature=temperature)
        mass = probs[allowed]
        weights = (mass / mass.max()) ** (1.0 / temperature)
        weights /= weights.sum()
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(25):
            want = int(allowed[theirs.choice(n, p=weights)])
            assert codec._pick(probs, allowed, policy, ours) == want

    @settings(max_examples=300, deadline=None)
    @given(mass=st.builds(lambda n, value: [value] * n, st.integers(1, 600),
                          st.one_of(st.sampled_from([1 / 529, 1.0, 5e-324]),
                                    st.floats(5e-324, 1.0))),
           temperature=st.one_of(st.just(1.0), st.floats(0.002, 5)),
           seed=st.integers(0, 2**32 - 1))
    # first and last masses equal the largest, a middle one does not: not uniform
    @example(mass=[1.0, 0.5, 1.0], temperature=1.0, seed=1)
    @example(mass=[1.0, 5e-324, 1.0], temperature=0.5, seed=1)
    @example(mass=[1 / 529] * 300 + [0.5 / 529] + [1 / 529] * 299, temperature=1.0, seed=2)
    def test_equal_masses_same_index_as_generator_choice(self, mass, temperature, seed):
        """Equal allowed masses take the kept uniform CDF; the index and the
        RNG stream stay ``Generator.choice``'s over 25 draws in a row."""
        n = len(mass)
        data = np.random.default_rng(seed)
        probs = data.random(2 * n)  # the tokens outside ``allowed`` differ
        allowed = np.sort(data.choice(2 * n, size=n, replace=False))
        probs[allowed] = mass
        policy = GenPolicy(mode=Mode.SAMPLE, temperature=temperature)
        weights = (np.array(mass) / max(mass)) ** (1.0 / temperature)
        weights /= weights.sum()
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(25):
            want = int(allowed[theirs.choice(n, p=weights)])
            assert codec._pick(probs, allowed, policy, ours) == want

    def test_nan_mass_is_an_encode_error(self, mini_vocab):
        probs = np.full(len(mini_vocab), np.nan)
        policy = GenPolicy(mode=Mode.SAMPLE)
        with pytest.raises(EncodeError):
            codec._pick(probs, np.arange(len(mini_vocab)), policy, np.random.default_rng(0))


class TestRender:
    def test_punctuation_reattaches(self):
        assert render(["i", "am", "attaching", "an", "nda", "."]) == "i am attaching an nda."

    def test_deterministic_mocks(self):
        out = render([USER_TOKEN, "and", USER_TOKEN, "met", "<url>"])
        assert out == "@user001 and @user002 met http://example.com/1"

    def test_capitalization(self):
        out = render(["i", "am", "here", ".", "you", "too", "?"], capitalize=True)
        assert out == "I am here. You too?"

    def test_eos_renders_as_nothing(self):
        assert render(["hi", EOS_TOKEN, "there"]) == "hi there"

    def test_rendered_string_attached_to_stegotext(self, steered_bigram, fixture_key):
        out = encode_bits("1000011011", fixture_key, steered_bigram, GREEDY)
        assert render(out.tokens) == "I am attaching an NDA"

    def test_punctuation_safe_retokenization_roundtrip(self, mini_bigram, mini_vocab):
        # mini vocab has no <user>/<url> and lowercase tokens: the rendered
        # string re-tokenizes to the original token sequence
        from stegolm.corpus import CorpusConfig, tokenize

        key = generate_key(mini_vocab, 2, 4, seed=6)
        out = encode(Payload(b"safe!", Framing.RAW), key, mini_bigram,
                     GenPolicy(mode=Mode.SAMPLE, seed=8))
        again = tokenize(render(out.tokens), CorpusConfig(lowercase=False))
        assert list(out.tokens) == again
        assert decode(again, key) == decode(out.tokens, key)


class TestArgumentKinds:
    """An enum or bytes argument of another type is refused, not read as some
    other value or left to a raw error later."""

    def test_mode_string_refused(self):
        with pytest.raises(ConfigError, match="mode"):
            GenPolicy(mode="greedy")

    def test_payload_framing_string_refused(self):
        with pytest.raises(ConfigError, match="framing"):
            Payload(b"\xa5", "raw")

    def test_payload_string_refused(self):
        with pytest.raises(ConfigError, match="payload data"):
            Payload("abc")

    def test_temperature_string_refused(self):
        with pytest.raises(ConfigError, match="temperature"):
            GenPolicy(temperature="1")
