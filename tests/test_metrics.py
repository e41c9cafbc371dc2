import math

import numpy as np
import pytest

from conftest import FixedModel
from stegolm.codec import GenPolicy, Mode, constrained_select
from stegolm.corpus import EOS_TOKEN, UNK_TOKEN, Vocabulary, build_vocab
from stegolm.errors import CorpusError, DecodeError
from stegolm.keying import BIN_COMMON, BitBlock, StegoKey, generate_key
from stegolm.lm.ngram import NgramConfig, train_ngram
from stegolm.metrics import (
    capacity,
    capacity_empirical,
    perplexity,
    stego_distribution,
    stego_perplexity,
    stego_word_prob,
)


def four_word_setup():
    """|V|=4 carrier-only vocabulary, probs (0.4, 0.3, 0.2, 0.1), bins
    {t1,t2} / {t3,t4}."""
    vocab = Vocabulary(("t1", "t2", "t3", "t4"), (4, 3, 2, 1))
    model = FixedModel(vocab, [0.4, 0.3, 0.2, 0.1])
    key = StegoKey(1, [0, 0, 1, 1], 0, vocab)
    return vocab, model, key


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        model = FixedModel(vocab, np.full(4, 0.25))
        report = perplexity(model, ["a", "c", "d", "b", "a"])
        assert report.perplexity == pytest.approx(4.0, rel=1e-12)

    def test_half_probability_gives_two(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        model = FixedModel(vocab, [0.5, 0.5, 0.0, 0.0])
        report = perplexity(model, ["a", "b", "a", "b"])
        assert report.perplexity == pytest.approx(2.0, rel=1e-12)

    def test_matches_hand_computed_bigram(self):
        stream = ["a", "b", "a", "b", "a"]
        vocab = build_vocab(stream)
        model = train_ngram(stream, vocab, NgramConfig(order=2, add_k=1.0))
        report = perplexity(model, ["a", "b", "a"])
        v = len(vocab)
        hand = -(math.log(4 / (5 + v)) + math.log(3 / (2 + v)) + math.log(3 / (2 + v))) / 3
        assert report.mean_nll == pytest.approx(hand, abs=1e-9)
        assert report.perplexity == pytest.approx(math.exp(hand), abs=1e-9)

    def test_zero_probability_reported_infinite(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        report = perplexity(FixedModel(vocab, [1.0, 0.0, 0.0, 0.0]), ["a", "b", "a"])
        assert report.perplexity == math.inf
        assert report.infinite_positions == (1,)

    def test_oov_scored_as_unk(self, mini_bigram):
        report = perplexity(mini_bigram, ["definitely-not-a-token"] * 3)
        assert report.token_count == 3
        assert math.isfinite(report.perplexity)

    def test_empty_stream_rejected(self, mini_bigram):
        with pytest.raises(CorpusError):
            perplexity(mini_bigram, [])

    def test_report_identity(self, mini_bigram, mini_tokens):
        report = perplexity(mini_bigram, mini_tokens[:200])
        assert report.perplexity == pytest.approx(math.exp(report.mean_nll))
        assert report.perplexity >= 1.0


class TestStegoWordProb:
    def test_uniform_four_carriers_one_bit(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        model = FixedModel(vocab, np.full(4, 0.25))
        key = StegoKey(1, [0, 0, 1, 1], 0, vocab)
        for idx in range(4):
            assert stego_word_prob(model, (), key, idx) == pytest.approx(0.25, abs=1e-12)

    def test_hand_renormalized_values(self):
        _, model, key = four_word_setup()
        expected = [0.4 / 0.7 / 2, 0.3 / 0.7 / 2, 0.2 / 0.3 / 2, 0.1 / 0.3 / 2]
        for idx, want in enumerate(expected):
            assert stego_word_prob(model, (), key, idx) == pytest.approx(want, abs=1e-9)

    def test_common_token_present_in_every_mask(self):
        vocab = Vocabulary(("c0", "t1", "t2", "t3", "t4"), (9, 4, 3, 2, 1))
        model = FixedModel(vocab, [0.2, 0.3, 0.2, 0.2, 0.1])
        key = StegoKey(1, [BIN_COMMON, 0, 0, 1, 1], 0, vocab)
        # common token: averaged over both masks
        want_common = 0.2 * (1 / 0.7 + 1 / 0.5) / 2
        assert stego_word_prob(model, (), key, 0) == pytest.approx(want_common, abs=1e-12)
        # carrier: its own mask now includes the common mass
        assert stego_word_prob(model, (), key, 1) == pytest.approx(0.3 / 0.7 / 2, abs=1e-12)

    def test_sentinels_get_zero(self, mini_bigram, mini_vocab):
        key = generate_key(mini_vocab, 2, 3, seed=1)
        ctx = mini_bigram.initial_context()
        assert stego_word_prob(mini_bigram, ctx, key, mini_vocab.index_of(EOS_TOKEN)) == 0.0
        assert stego_word_prob(mini_bigram, ctx, key, mini_vocab.index_of(UNK_TOKEN)) == 0.0

    def test_sums_to_one_any_context(self, mini_bigram, mini_vocab):
        rng = np.random.default_rng(3)
        for seed in range(5):
            key = generate_key(mini_vocab, int(rng.integers(1, 4)),
                               int(rng.choice([0, 5])), seed=seed)
            ctx = mini_bigram.initial_context()
            for _ in range(10):
                dist = stego_distribution(mini_bigram.next_distribution(ctx), key)
                assert abs(dist.sum() - 1.0) < 1e-9
                assert np.all(dist >= 0)
                ctx = mini_bigram.advance(ctx, int(rng.integers(len(mini_vocab))))

    def test_matches_monte_carlo_selection_frequency(self):
        rng = np.random.default_rng(12)
        vocab = Vocabulary(
            tuple(f"t{i:02d}" for i in range(12)), tuple(range(24, 0, -2)))
        probs = rng.dirichlet(np.ones(12) * 2)
        model = FixedModel(vocab, probs)
        key = generate_key(vocab, 2, 2, seed=4)
        trials = 20000
        counts = np.zeros(12)
        policy = GenPolicy(mode=Mode.SAMPLE, seed=0)
        blocks = [BitBlock(v, key.block_bits) for v in range(4)]
        draw = rng.integers(0, 4, size=trials)
        for t in range(trials):
            idx = constrained_select(model, (), key, blocks[draw[t]], policy, rng=rng)
            counts[idx] += 1
        freq = counts / trials
        for idx in range(12):
            p = stego_word_prob(model, (), key, idx)
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(freq[idx] - p) <= 3.5 * se + 1e-9


def reference_stego_distribution(probs, key):
    """Mask each bin plus the common set, renormalise, average over the bins."""
    masks = [list(members) + list(key.common) for members in key.bins]
    if key.block_bits == 0 and not key.common:
        masks = [list(range(len(probs)))]  # the vacuous key masks nothing
    out = np.zeros(len(probs))
    for mask in masks:
        mass = probs[mask].sum()
        if mass > 0:
            out[mask] += probs[mask] / mass
    return out / len(masks)


class TestStegoDistributionReference:
    def check(self, probs, key):
        got = stego_distribution(probs, key)
        want = reference_stego_distribution(probs, key)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_random_keys(self, mini_vocab):
        rng = np.random.default_rng(17)
        for trial in range(60):
            key = generate_key(mini_vocab, trial % 5, int(rng.choice([0, 3])), seed=trial,
                               include_eos_common=bool(trial % 3 == 0))
            self.check(rng.dirichlet(np.full(len(mini_vocab), 0.5)), key)

    def test_eos_in_common(self, mini_vocab):
        key = generate_key(mini_vocab, 2, 3, seed=4, include_eos_common=True)
        assert mini_vocab.index_of(EOS_TOKEN) in set(key.common)
        self.check(np.random.default_rng(1).dirichlet(np.ones(len(mini_vocab))), key)

    @pytest.mark.parametrize("common", [0, 3])
    def test_zero_mass_bin(self, mini_vocab, common):
        key = generate_key(mini_vocab, 2, common, seed=6)
        probs = np.random.default_rng(2).dirichlet(np.ones(len(mini_vocab)))
        probs[list(key.bins[1]) + list(key.common)] = 0.0
        probs /= probs.sum()
        self.check(probs, key)
        assert not stego_distribution(probs, key)[list(key.bins[1])].any()

    def test_vacuous_key(self, mini_vocab):
        key = generate_key(mini_vocab, 0, 0, seed=1)
        probs = np.random.default_rng(3).dirichlet(np.ones(len(mini_vocab)))
        self.check(probs, key)


class TestStegoPerplexity:
    def test_single_bin_no_common_equals_plain(self, mini_bigram, mini_vocab, mini_tokens):
        key = generate_key(mini_vocab, 0, 0, seed=1)
        stream = mini_tokens[:300]
        plain = perplexity(mini_bigram, stream)
        stego = stego_perplexity(mini_bigram, key, stream)
        assert stego.perplexity == pytest.approx(plain.perplexity, rel=1e-9)
        assert stego.token_count == plain.token_count
        assert stego.skipped_sentinels == 0

    def test_uniform_model_balanced_key_equals_plain(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        model = FixedModel(vocab, np.full(4, 0.25))
        key = StegoKey(1, [0, 0, 1, 1], 0, vocab)
        stream = ["a", "d", "b", "c"]
        assert stego_perplexity(model, key, stream).perplexity == pytest.approx(
            perplexity(model, stream).perplexity, rel=1e-12)

    def test_masking_raises_perplexity(self, mini_bigram, mini_tokens, mini_vocab):
        stream = mini_tokens[:400]
        plain = perplexity(mini_bigram, stream).perplexity
        previous = plain
        for block_bits in (1, 2, 3):
            key = generate_key(mini_vocab, block_bits, 0, seed=13)
            value = stego_perplexity(mini_bigram, key, stream).perplexity
            assert value > plain
            previous = value

    def test_sentinels_skipped_and_counted(self, mini_bigram, mini_vocab, mini_tokens):
        key = generate_key(mini_vocab, 1, 0, seed=1)
        stream = mini_tokens[:100]
        eos_count = sum(1 for t in stream if t == EOS_TOKEN)
        assert eos_count > 0
        report = stego_perplexity(mini_bigram, key, stream)
        assert report.skipped_sentinels == eos_count
        assert report.token_count == len(stream) - eos_count

    def test_zero_probability_carrier_reported_infinite(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        model = FixedModel(vocab, [1.0, 0.0, 0.0, 0.0])
        key = StegoKey(1, [0, 0, 1, 1], 0, vocab)
        report = stego_perplexity(model, key, ["a", "b"])
        assert report.perplexity == math.inf
        assert report.infinite_positions == (1,)


class TestCapacity:
    def test_two_bits_no_common(self):
        report = capacity(2, 0.0)
        assert report.bits_per_word == 2.0

    def test_one_bit_with_common_fraction(self):
        report = capacity(1, 0.35)
        assert report.bits_per_word == 0.65

    def test_bits_per_message(self):
        assert capacity(3, 0.0, 16.04).bits_per_message == pytest.approx(48.12)
        assert capacity(2, 0.0, 16.04).bits_per_message == pytest.approx(32.08)

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            capacity(2, 1.0)
        with pytest.raises(ValueError):
            capacity(2, -0.1)

    def test_text_report_format(self):
        assert "capacity: 2.000 bits/word" in capacity(2, 0.0).to_text()


class TestCapacityEmpirical:
    def test_no_common_tokens_gives_block_bits(self, mini_vocab):
        key = generate_key(mini_vocab, 2, 0, seed=5)
        stream = [mini_vocab.token(i) for i in key.bins[0][:3] + key.bins[1][:2]]
        report = capacity_empirical(stream, key)
        assert report.bits_per_word == 2.0
        assert report.carrier_count == 5

    def test_constructed_35_of_100_common(self, mini_vocab):
        key = generate_key(mini_vocab, 1, 5, seed=5)
        commons = [mini_vocab.token(i) for i in key.common]
        carriers = [mini_vocab.token(i) for i in key.bins[0]]
        stream = commons * 7 + carriers[:1] * 65
        assert len(stream) == 100
        report = capacity_empirical(stream, key)
        assert report.common_fraction == pytest.approx(0.35)
        assert report.bits_per_word == pytest.approx(0.65)

    def test_identity_with_carrier_count(self, mini_bigram, mini_vocab):
        from stegolm.codec import Payload, encode

        rng = np.random.default_rng(8)
        for seed in range(5):
            key = generate_key(mini_vocab, 2, 6, seed=seed)
            out = encode(Payload(rng.bytes(10)), key, mini_bigram,
                         GenPolicy(mode=Mode.SAMPLE, seed=seed))
            report = capacity_empirical(out.tokens, key)
            assert report.carrier_count == out.carrier_count
            assert report.carrier_count + report.common_count == len(out.tokens)
            assert report.bits_per_word * report.token_count == pytest.approx(
                key.block_bits * report.carrier_count, abs=1e-9)

    def test_undecodable_token_rejected(self, mini_vocab):
        key = generate_key(mini_vocab, 1, 0, seed=5)
        with pytest.raises(DecodeError):
            capacity_empirical([EOS_TOKEN], key)

    def test_arithmetic_agrees_with_empirical(self, mini_bigram, mini_vocab):
        from stegolm.codec import Payload, encode

        rng = np.random.default_rng(31)
        for seed in range(8):
            block_bits = int(rng.integers(1, 4))
            key = generate_key(mini_vocab, block_bits, int(rng.choice([0, 4, 8])),
                               seed=seed)
            out = encode(Payload(rng.bytes(8)), key, mini_bigram,
                         GenPolicy(mode=Mode.SAMPLE, seed=seed))
            empirical = capacity_empirical(out.tokens, key)
            arithmetic = capacity(block_bits, empirical.common_fraction)
            assert arithmetic.bits_per_word == pytest.approx(
                empirical.bits_per_word, rel=1e-12)
