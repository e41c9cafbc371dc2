import math

import numpy as np
import pytest

from conftest import FixedModel
from stegolm.codec import GenPolicy, Mode, constrained_select
from stegolm.corpus import EOS_TOKEN, UNK_TOKEN, Vocabulary, build_vocab
from stegolm.errors import ConfigError, CorpusError, DecodeError, VocabMismatchError
from stegolm.keying import BIN_COMMON, BIN_RESERVED, BitBlock, StegoKey, generate_key
from stegolm.lm.base import LanguageModel
from stegolm.lm.lstm import LstmHyperparams, LstmModel, init_params
from stegolm.lm.ngram import NgramConfig, train_ngram
from stegolm.metrics import (
    BLOCK,
    _word_probs,
    capacity,
    capacity_empirical,
    is_vacuous,
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


class TestStegoDistributionShapes:
    @pytest.mark.parametrize("block_bits, common", [(0, 0), (0, 3), (1, 0), (2, 3), (4, 0)])
    def test_any_leading_shape_equals_row_by_row(self, mini_vocab, block_bits, common):
        # a (3, 5) draw of rows is one 15-row kernel block; each entry must equal
        # a one-row, one-word kernel call bit for bit
        key = generate_key(mini_vocab, block_bits, common, seed=2)
        size = len(mini_vocab)
        probs = np.random.default_rng(block_bits).dirichlet(np.ones(size), (3, 5))
        probs[1, 2, list(key.bins[0]) + list(key.common)] = 0.0  # one row's bin 0 has no mass
        probs[1, 2] /= probs[1, 2].sum()
        got = stego_distribution(probs, key)
        rows = probs.reshape(-1, size)
        want = np.array([[_word_probs(row[None], [w], key)[0] for w in range(size)]
                         for row in rows])
        assert got.shape == probs.shape and np.array_equal(got.reshape(-1, size), want)
        for row, value in zip(rows, want):
            np.testing.assert_allclose(value, reference_stego_distribution(row, key),
                                       rtol=0, atol=1e-12)


class TestStegoPerplexity:
    def test_single_bin_no_common_equals_plain(self, mini_bigram, mini_vocab, mini_tokens):
        key = generate_key(mini_vocab, 0, 0, seed=1)
        stream = mini_tokens[:300]
        plain = perplexity(mini_bigram, stream)
        stego = stego_perplexity(mini_bigram, key, stream)
        assert stego.perplexity == pytest.approx(plain.perplexity, rel=1e-9)
        assert stego.token_count == plain.token_count
        assert stego.skipped_sentinels == 0

    @pytest.mark.parametrize("key_tokens", [
        ("a", "b", "c", "d", "e", "f", "g", "h", "i"),  # a key of 11 tokens for a model of 9
        ("a", "b", "c", "d", "e", "f", "g"),  # another vocabulary of 9 tokens
    ])
    def test_key_of_another_vocabulary_refused(self, key_tokens):
        vocab = build_vocab(["a", "b", "c", "d", "e", "f", "x"])
        other = build_vocab(list(key_tokens))
        model = FixedModel(vocab, np.full(len(vocab), 1 / len(vocab)))
        key = generate_key(other, 1, 0, seed=2)
        with pytest.raises(VocabMismatchError):
            stego_perplexity(model, key, ["a", "b", "c"])
        with pytest.raises(VocabMismatchError):
            stego_word_prob(model, (), key, 0)

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


def per_token_report(model, tokens, key=None):
    """(mean NLL, scored, skipped, zero-probability positions) of the loop that
    scores one position at a time: ``next_distribution`` and, under ``key``,
    ``stego_word_prob``, skipping reserved sentinels unless the key is vacuous."""
    ctx, total, scored, skipped, infinite = model.initial_context(), 0.0, 0, 0, []
    for position, idx in enumerate(model.vocab.indices_or_unk(tokens).tolist()):
        if key is not None and not is_vacuous(key) and key.lookup_array()[idx] == BIN_RESERVED:
            skipped += 1
        else:
            prob = (model.next_distribution(ctx)[idx] if key is None
                    else stego_word_prob(model, ctx, key, idx))
            scored += 1
            if prob > 0:
                total -= math.log(prob)
            else:
                infinite.append(position)
        ctx = model.advance(ctx, idx)
    return (math.inf if infinite else total / scored), scored, skipped, tuple(infinite)


def check_block_scoring(model, tokens, keys=()):
    """Plain and stego perplexity, scored in blocks, agree with ``per_token_report``."""
    for key in (None, *keys):
        report = perplexity(model, tokens) if key is None else stego_perplexity(model, key, tokens)
        mean, scored, skipped, infinite = per_token_report(model, tokens, key)
        assert report.mean_nll == pytest.approx(mean, rel=1e-12)
        assert (report.token_count, report.skipped_sentinels) == (scored, skipped)
        assert report.infinite_positions == infinite


def check_rows(model, ctx, ids, exact):
    """Row t of ``next_distributions`` is ``next_distribution`` after ``ids[:t]``,
    bit for bit when ``exact``; the context after the block is always the
    ``advance`` chain's, bit for bit."""
    probs, after = model.next_distributions(ctx, ids)
    want, want_after = LanguageModel.next_distributions(model, ctx, ids)
    if exact:
        assert np.array_equal(probs, want)
    else:
        np.testing.assert_allclose(probs, want, rtol=1e-12, atol=0)
    assert np.array_equal(np.array(after), np.array(want_after))  # LSTM: (layers, 2, units)
    return probs


#: (block_bits, common) of the keys every model is scored under; (0, 0) is vacuous.
KEY_SHAPES = [(0, 0), (1, 0), (2, 10), (3, 0), (4, 10)]


class TestBlockScoring:
    """Scoring takes ``BLOCK`` positions per model call; it must agree with
    scoring one position at a time."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_desk_ngram(self, order, desk_tokens, desk_vocab):
        split = int(len(desk_tokens) * 0.9)
        model = train_ngram(desk_tokens[:split], desk_vocab, NgramConfig(order, 0.05))
        held = desk_tokens[split:split + BLOCK + 1]
        # shuffled, the held-out tokens make contexts the training stream never held;
        # so does <unk>, which it never holds at all
        shuffled = [str(t) for t in np.random.default_rng(order).permutation(held)]
        for position in (10, 100, BLOCK):
            shuffled[position] = UNK_TOKEN
        ids = desk_vocab.index_array(shuffled).tolist()
        # from the start of the stream (short contexts) and from a full-length context
        for ctx in ((), tuple(ids[:order - 1])):
            probs = check_rows(model, ctx, ids, exact=True)
        if order > 1:  # an unseen context gives the uniform distribution
            assert (probs == probs[:, :1]).all(axis=1).any()
        keys = [generate_key(desk_vocab, b, c, 7) for b, c in KEY_SHAPES]
        for tokens in (held, shuffled):
            check_block_scoring(model, tokens, keys)

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_stream_lengths_around_one_block(self, length, desk_trigram, desk_tokens, desk_vocab):
        held = desk_tokens[int(len(desk_tokens) * 0.9):][:length]
        check_block_scoring(desk_trigram, held,
                            [generate_key(desk_vocab, b, c, 8) for b, c in KEY_SHAPES])

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_two_layer_lstm(self, length, desk_tokens, desk_vocab):
        hp = LstmHyperparams(layers=2, units=16, embed_dim=8)
        params = {name: 10 * array for name, array in init_params(len(desk_vocab), hp, 3).items()}
        model = LstmModel(desk_vocab, hp, params)  # larger weights than training starts from
        tokens = desk_tokens[:length]
        check_rows(model, model.initial_context(), desk_vocab.index_array(tokens).tolist(), exact=False)
        check_block_scoring(model, tokens,
                            [generate_key(desk_vocab, b, c, 9) for b, c in KEY_SHAPES])

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_fixed_model_through_the_base_loop(self, length, mini_vocab, mini_tokens):
        assert FixedModel.next_distributions is LanguageModel.next_distributions
        probs = np.random.default_rng(5).dirichlet(np.ones(len(mini_vocab)))
        check_block_scoring(FixedModel(mini_vocab, probs), mini_tokens[:length],
                            [generate_key(mini_vocab, b, c % 7, 4) for b, c in KEY_SHAPES])

    def test_empty_block(self, desk_trigram, desk_vocab):
        hp = LstmHyperparams(units=4, embed_dim=4)
        models = (desk_trigram, LstmModel(desk_vocab, hp, init_params(len(desk_vocab), hp, 1)),
                  FixedModel(desk_vocab, np.full(len(desk_vocab), 1 / len(desk_vocab))))
        for model in models:
            ctx = model.advance(model.initial_context(), 3)
            probs, after = model.next_distributions(ctx, [])
            assert probs.shape == (0, len(desk_vocab))
            assert after is ctx or after == ctx

    def test_read_word_values_equal_stego_distribution(self, desk_trigram, desk_tokens,
                                                       desk_vocab):
        # scoring reads each position's average for its word only; the value must
        # be the entry of that row's full stego distribution, and the report the
        # mean of -ln of exactly these values in stream order
        tokens = desk_tokens[-BLOCK:]
        ids = desk_vocab.indices_or_unk(tokens).tolist()
        probs, _ = desk_trigram.next_distributions((), ids)
        t = np.arange(len(ids))
        assert np.array_equal(_word_probs(probs, ids, None), probs[t, ids])
        for b, c in KEY_SHAPES:
            key = generate_key(desk_vocab, b, c, 7)
            full = stego_distribution(probs, key)
            for row, value in zip(probs, full):
                np.testing.assert_allclose(value, reference_stego_distribution(row, key),
                                           rtol=0, atol=1e-12)
            want = full[t, ids]
            assert np.array_equal(_word_probs(probs, ids, key), want)
            skip = (key.lookup_array()[ids] == BIN_RESERVED) & (not is_vacuous(key))
            total = 0.0
            for value in want[~skip].tolist():
                total += -math.log(value)
            report = stego_perplexity(desk_trigram, key, tokens)
            assert (report.mean_nll, report.skipped_sentinels) == (total / (~skip).sum(),
                                                                    skip.sum())

    def test_sentinels_skipped_at_block_edges(self, desk_trigram, desk_tokens, desk_vocab):
        tokens = list(desk_tokens[-2 * BLOCK - 1:])
        for position in (0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK):
            tokens[position] = (EOS_TOKEN, UNK_TOKEN)[position % 2]
        key = generate_key(desk_vocab, 2, 0, 3)
        check_block_scoring(desk_trigram, tokens, [key, generate_key(desk_vocab, 0, 0, 3)])
        assert stego_perplexity(desk_trigram, key, tokens).skipped_sentinels >= 5

    def test_zero_probability_in_second_block_at_its_stream_position(self):
        vocab = Vocabulary(("a", "b", "c", "d"), (4, 3, 2, 1))
        model = FixedModel(vocab, [0.5, 0.5, 0.0, 0.0])
        key = StegoKey(1, [0, 0, 1, 1], 0, vocab)
        tokens = ["a", "b"] * BLOCK
        tokens[BLOCK + 3] = "c"
        for report in (perplexity(model, tokens), stego_perplexity(model, key, tokens)):
            assert report.infinite_positions == (BLOCK + 3,)
            assert report.perplexity == math.inf
        check_block_scoring(model, tokens, [key])


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

    def test_bits_per_message_overflow_refused(self):
        assert capacity(16, 0.0, 1e307).bits_per_message == 16 * 1e307
        with pytest.raises(ConfigError, match="overflows"):
            capacity(16, 0.0, 1e308)

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            capacity(2, 1.0)
        with pytest.raises(ValueError):
            capacity(2, -0.1)

    def test_text_report_format(self):
        assert "capacity: 2.000 bits/word" in capacity(2, 0.0).to_text()

    @pytest.mark.parametrize("arguments, field", [
        ((2, "0"), "common_fraction"), ((2, 0.0, "16"), "mean message length"),
        (("2", 0.0), "block_bits"),
    ])
    def test_string_arguments_refused(self, arguments, field):
        with pytest.raises(ConfigError, match=field):
            capacity(*arguments)


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
        from stegolm.codec import Framing, Payload, encode

        rng = np.random.default_rng(8)
        for seed in range(5):
            key = generate_key(mini_vocab, 2, 6, seed=seed)
            out = encode(Payload(rng.bytes(10), Framing.RAW), key, mini_bigram,
                         GenPolicy(mode=Mode.SAMPLE, seed=seed))
            report = capacity_empirical(out.tokens, key)
            assert report.carrier_count == out.carrier_count
            assert report.carrier_count + report.common_count == len(out.tokens)
            assert report.bits_per_word * report.token_count == pytest.approx(
                key.block_bits * report.carrier_count, abs=1e-9)

    def test_bits_per_message_overflow_refused(self, mini_vocab):
        key = generate_key(mini_vocab, 2, 0, seed=5)
        stream = [mini_vocab.token(i) for i in key.bins[0][:3]]
        assert capacity_empirical(stream, key, 1e307).bits_per_message == 2 * 1e307
        with pytest.raises(ConfigError, match="overflows"):
            capacity_empirical(stream, key, 1e308)

    def test_undecodable_token_rejected(self, mini_vocab):
        key = generate_key(mini_vocab, 1, 0, seed=5)
        with pytest.raises(DecodeError):
            capacity_empirical([EOS_TOKEN], key)

    def test_arithmetic_agrees_with_empirical(self, mini_bigram, mini_vocab):
        from stegolm.codec import Framing, Payload, encode

        rng = np.random.default_rng(31)
        for seed in range(8):
            block_bits = int(rng.integers(1, 4))
            key = generate_key(mini_vocab, block_bits, int(rng.choice([0, 4, 8])),
                               seed=seed)
            out = encode(Payload(rng.bytes(8), Framing.RAW), key, mini_bigram,
                         GenPolicy(mode=Mode.SAMPLE, seed=seed))
            empirical = capacity_empirical(out.tokens, key)
            arithmetic = capacity(block_bits, empirical.common_fraction)
            assert arithmetic.bits_per_word == pytest.approx(
                empirical.bits_per_word, rel=1e-12)
