import math

import numpy as np
import pytest

from stegolm.corpus import Vocabulary, build_vocab
from stegolm.errors import TrainingError
from stegolm.lm.base import softmax
from stegolm.lm.ngram import NgramConfig, NgramModel, train_ngram
from stegolm.metrics import perplexity


def reference_distribution(model: NgramModel, ctx: tuple[int, ...]) -> np.ndarray:
    """Add-k distribution by a loop over the context's successors."""
    size, k = len(model.vocab), model.config.add_k
    successors = model.tables[len(ctx)].get(ctx, {})
    denom = sum(successors.values()) + k * size
    dist = np.full(size, k / denom)
    for token_index, count in successors.items():
        dist[token_index] += count / denom
    return dist


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_hand_evaluated_two_point(self):
        out = softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_max_shift_avoids_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = softmax(rng.normal(size=17) * 10)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))


class TestNgram:
    def test_untrained_is_uniform(self):
        vocab = build_vocab(["a", "b"])
        model = NgramModel(vocab, NgramConfig(order=2, add_k=1.0), [{}, {}])
        dist = model.next_distribution(model.initial_context())
        np.testing.assert_allclose(dist, np.full(len(vocab), 1 / len(vocab)))

    def test_bigram_hand_count(self):
        # stream "a b a b": count(a->b)=2, total after "a" = 2
        vocab = build_vocab(["a", "b", "a", "b"])
        k = 0.5
        model = train_ngram(["a", "b", "a", "b"], vocab, NgramConfig(order=2, add_k=k))
        ctx = model.advance(model.initial_context(), vocab.index_of("a"))
        dist = model.next_distribution(ctx)
        expected = (2 + k) / (2 + k * len(vocab))
        assert dist[vocab.index_of("b")] == pytest.approx(expected, abs=1e-12)

    def test_unigram_hand_count(self):
        vocab = Vocabulary(("a", "b", "c"), (2, 0, 0))
        model = train_ngram(["a", "a"], vocab, NgramConfig(order=1, add_k=1.0))
        dist = model.next_distribution(())
        assert dist[vocab.index_of("a")] == pytest.approx(0.6)

    def test_empty_context_backoff_is_unigram(self, mini_bigram):
        trigram_like = mini_bigram
        uni = trigram_like.next_distribution(())
        counts = np.zeros(len(trigram_like.vocab))
        for ctx, successors in trigram_like.tables[0].items():
            for w, c in successors.items():
                counts[w] += c
        k = trigram_like.config.add_k
        expected = (counts + k) / (counts.sum() + k * len(counts))
        np.testing.assert_allclose(uni, expected, atol=1e-12)

    def test_distribution_sums_to_one_any_context(self, mini_bigram, mini_vocab):
        rng = np.random.default_rng(4)
        ctx = mini_bigram.initial_context()
        for _ in range(50):
            dist = mini_bigram.next_distribution(ctx)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert np.all(dist >= 0)
            ctx = mini_bigram.advance(ctx, int(rng.integers(len(mini_vocab))))

    def test_advance_window_shift(self, mini_vocab, mini_tokens):
        model = train_ngram(mini_tokens, mini_vocab, NgramConfig(order=3, add_k=0.1))
        a, b, c = 0, 1, 2
        ctx = model.advance(model.advance(model.initial_context(), a), b)
        assert ctx == (a, b)
        assert model.advance(ctx, c) == (b, c)

    def test_advance_rejects_out_of_range(self, mini_bigram):
        with pytest.raises(ValueError):
            mini_bigram.advance(mini_bigram.initial_context(), len(mini_bigram.vocab))

    def test_untrained_perplexity_equals_vocab_size(self, mini_vocab, mini_tokens):
        model = NgramModel(mini_vocab, NgramConfig(order=2, add_k=0.5),
                           [{}, {}])
        report = perplexity(model, mini_tokens[:500])
        assert report.perplexity == pytest.approx(len(mini_vocab), rel=1e-6)

    def test_empty_stream_rejected(self, mini_vocab):
        with pytest.raises(TrainingError):
            train_ngram([], mini_vocab, NgramConfig())

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_distribution_equals_dict_loop_reference(self, mini_tokens, mini_vocab, order):
        model = train_ngram(mini_tokens, mini_vocab, NgramConfig(order=order, add_k=0.07))
        rng = np.random.default_rng(order)
        seen = [ctx for table in model.tables for ctx in list(table)[:40]]
        unseen = [tuple(int(i) for i in rng.integers(len(mini_vocab), size=m))
                  for m in range(order) for _ in range(20)]
        unseen = [ctx for ctx in unseen if ctx not in model.tables[len(ctx)]]
        assert unseen or order == 1
        for ctx in seen + unseen + seen:  # the second pass reads the cached rows
            assert np.array_equal(model.next_distribution(ctx),
                                  reference_distribution(model, ctx)), ctx

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NgramConfig(order=0)
        with pytest.raises(ValueError):
            NgramConfig(add_k=0.0)
