import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import assert_tables_equal
from stegolm.corpus import Vocabulary, build_vocab
from stegolm.errors import ConfigError, ModelFormatError, TrainingError
from stegolm.lm.base import LanguageModel, softmax
from stegolm.lm.ngram import NgramConfig, NgramModel, train_ngram
from stegolm.lm.store import deserialize_model, serialize_model
from stegolm.metrics import perplexity


def count_ngrams(ids: list[int], order: int) -> list[Counter]:
    """``counts[m][(*context, successor)]``: every length-``m + 1`` n-gram of the stream."""
    return [Counter(tuple(ids[i - m:i + 1]) for i in range(m, len(ids))) for m in range(order)]


def reference_distribution(counts: list[Counter], size: int, k: float,
                           ctx: tuple[int, ...]) -> np.ndarray:
    """Add-k distribution by a loop over the context's successors."""
    successors = {g[-1]: c for g, c in counts[len(ctx)].items() if g[:-1] == ctx}
    denom = sum(successors.values()) + k * size
    dist = np.full(size, k / denom)
    for token_index, count in successors.items():
        dist[token_index] += count / denom
    return dist


def untrained(vocab, config: NgramConfig) -> NgramModel:
    return NgramModel(vocab, config, [([], [])] * config.order)


def ngram_file(vocab, payload: bytes) -> bytes:
    """An n-gram model file holding ``payload``."""
    return (f"STEGOLM v1\nbackend: ngram\nvocab_hash: {vocab.content_hash()}\n"
            f"config: {{}}\npayload_bytes: {len(payload)}\n").encode() + payload


def load_ngram(vocab, doc: dict) -> NgramModel:
    """An n-gram model file holding the payload ``doc``, loaded."""
    return deserialize_model(ngram_file(vocab, json.dumps(doc, sort_keys=True).encode()), vocab)


def check_block_path(model: NgramModel, ctx: tuple[int, ...], ids: list[int]):
    """``next_distributions`` equals the base class's loop over ``next_distribution``
    and ``advance``, bit for bit, rows and context after."""
    probs, after = model.next_distributions(ctx, ids)
    want, want_after = LanguageModel.next_distributions(model, ctx, ids)
    assert np.array_equal(probs, want) and probs.shape == want.shape
    assert after == want_after and all(type(i) is int for i in after)


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
        model = untrained(vocab, NgramConfig(order=2, add_k=1.0))
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

    def test_empty_context_backoff_is_unigram(self, mini_bigram, mini_tokens):
        trigram_like = mini_bigram
        uni = trigram_like.next_distribution(())
        ids = [trigram_like.vocab.index_or_unk(t) for t in mini_tokens]
        counts = np.bincount(ids, minlength=len(trigram_like.vocab)).astype(float)
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
        model = untrained(mini_vocab, NgramConfig(order=2, add_k=0.5))
        report = perplexity(model, mini_tokens[:500])
        assert report.perplexity == pytest.approx(len(mini_vocab), rel=1e-6)

    def test_empty_stream_rejected(self, mini_vocab):
        with pytest.raises(TrainingError):
            train_ngram([], mini_vocab, NgramConfig())

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_distribution_equals_dict_loop_reference(self, mini_tokens, mini_vocab, order):
        model = train_ngram(mini_tokens, mini_vocab, NgramConfig(order=order, add_k=0.07))
        counts = count_ngrams([mini_vocab.index_or_unk(t) for t in mini_tokens], order)
        contexts = [dict.fromkeys(g[:-1] for g in table) for table in counts]  # as first seen
        rng = np.random.default_rng(order)
        seen = [ctx for table in contexts for ctx in list(table)[:40]]
        unseen = [tuple(int(i) for i in rng.integers(len(mini_vocab), size=m))
                  for m in range(order) for _ in range(20)]
        unseen = [ctx for ctx in unseen if ctx not in contexts[len(ctx)]]
        assert unseen or order == 1
        for ctx in seen + unseen + seen:  # a second read gives the same distribution
            assert np.array_equal(model.next_distribution(ctx),
                                  reference_distribution(counts, len(mini_vocab), 0.07, ctx)), ctx

    def test_payload_out_of_order_refused_at_load(self, mini_vocab):
        doc = {"order": 2, "add_k": 0.5, "tables": [
            [["", [[3, 1], [7, 2]]]],
            [["2", [[1, 1], [5, 2], [8, 3]]], ["9", [[4, 1]]]]]}
        model = load_ngram(mini_vocab, doc)
        assert json.loads(model.to_payload()) == doc
        dist = model.next_distribution((2,))
        assert dist[5] == pytest.approx((2 + 0.5) / (6 + 0.5 * len(mini_vocab)), abs=1e-15)
        unigram, bigram = doc["tables"]
        # saving writes contexts and successors in ascending order, not these
        for tables in ([[["", [[7, 2], [3, 1]]]], bigram], [unigram, bigram[::-1]],
                       [unigram, [["2", [[5, 2], [1, 1], [8, 3]]], ["9", [[4, 1]]]]]):
            with pytest.raises(ModelFormatError):
                load_ngram(mini_vocab, {**doc, "tables": tables})

    def test_desk_trigram_respelt_refused_at_load(self, desk_trigram, desk_vocab):
        data = serialize_model(desk_trigram)
        assert serialize_model(deserialize_model(data, desk_vocab)) == data
        doc = json.loads(desk_trigram.to_payload())
        assert json.dumps(doc, sort_keys=True).encode() == desk_trigram.to_payload()
        unsorted_keys = {"order": doc["order"], "add_k": doc["add_k"], "tables": doc["tables"]}
        reversed_contexts = {**doc, "tables": [table[::-1] for table in doc["tables"]]}
        for payload in (json.dumps(doc, sort_keys=True, separators=(",", ":")),
                        json.dumps(unsorted_keys),
                        json.dumps(reversed_contexts, sort_keys=True)):
            with pytest.raises(ModelFormatError):
                deserialize_model(ngram_file(desk_vocab, payload.encode()), desk_vocab)

    def test_repeated_ngram_refused_at_load(self, mini_vocab):
        for table in ([["", [[3, 1], [3, 5]]]],  # a successor twice in one context
                      [["", [[3, 1]]], ["", [[4, 5]]]],  # a context twice in one table
                      [["", [[3, 1]]], ["", [[3, 1]]]]):
            with pytest.raises(ModelFormatError):
                load_ngram(mini_vocab, {"order": 1, "add_k": 0.5, "tables": [table]})

    def test_context_spelling_and_empty_successors_refused_at_load(self, mini_vocab):
        # saving any of these would write other bytes than were read
        unigram = [["", [[3, 1]]]]
        for tables in ([unigram, [[" +1", [[4, 1]]]]], [unigram, [["01", [[4, 1]]]]],
                       [[[None, [[3, 1]]]], [["1", [[4, 1]]]]],
                       [[[0, [[3, 1]]]], [["1", [[4, 1]]]]],
                       [unigram, [["1", [[4, 1]]], ["2", []]]]):
            with pytest.raises(ModelFormatError):
                load_ngram(mini_vocab, {"order": 2, "add_k": 0.5, "tables": tables})

    def test_empty_tables_roundtrip(self):
        # one token leaves the order-2 and order-3 tables without a context
        vocab = build_vocab(["a"])
        model = train_ngram(["a"], vocab, NgramConfig(order=3))
        assert json.loads(model.to_payload())["tables"][1:] == [[], []]
        assert serialize_model(deserialize_model(serialize_model(model), vocab)) == \
            serialize_model(model)

    def test_repeated_or_unordered_rows_refused_in_memory(self, mini_vocab):
        config = NgramConfig(order=2, add_k=0.5)
        unigram, bigram = ([[3], [7]], [6, 2]), ([[2, 9], [4, 3]], [1, 2])
        model = NgramModel(mini_vocab, config, [unigram, bigram])
        assert json.loads(model.to_payload())["tables"] == [
            [["", [[3, 6], [7, 2]]]], [["2", [[9, 1]]], ["4", [[3, 2]]]]]
        for tables in ([([[3], [7], [3]], [1, 2, 5]), bigram],  # equal rows
                       [unigram, ([[2, 9], [4, 3], [4, 3]], [1, 1, 1])],
                       [([[7], [3]], [2, 6]), bigram],  # descending rows
                       [unigram, ([[4, 3], [2, 9]], [2, 1])],
                       [unigram, ([[2, 9], [2, 3]], [1, 2])]):  # descending in one context
            with pytest.raises(ConfigError):
                NgramModel(mini_vocab, config, tables)

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_table_count_refused_in_memory(self, mini_vocab, count):
        # one table per order; a trigram given one table would fail its first lookup
        with pytest.raises(ConfigError, match=f"{count} ngram tables for order 3"):
            NgramModel(mini_vocab, NgramConfig(order=3), [([], [])] * count)

    def test_reader_equals_json_reference(self, desk_trigram, desk_vocab):
        untrained_payload = untrained(desk_vocab, NgramConfig(order=3, add_k=0.5)).to_payload()
        assert untrained_payload.endswith(b'"tables": [[], [], []]}')
        for payload in (desk_trigram.to_payload(), untrained_payload):
            assert_tables_equal(payload)
            data = ngram_file(desk_vocab, payload)
            assert serialize_model(deserialize_model(data, desk_vocab)) == data

    @pytest.mark.parametrize("order, tables", [
        (1, b'[[["", [[0, 1]]]]]'),
        (2, b'[[["", [[0, 1], [7, 2]]]], [["0", [[0, 1]]], ["7", [[0, 2]]]]]'),
        (2, b'[[["", [[0, 1]]]], []]'),
    ])
    def test_reader_reads_canonical_shapes(self, mini_vocab, order, tables):
        payload = b'{"add_k": 0.5, "order": %d, "tables": %s}' % (order, tables)
        data = ngram_file(mini_vocab, payload)
        assert serialize_model(deserialize_model(data, mini_vocab)) == data
        assert_tables_equal(payload)

    @pytest.mark.parametrize("old, new", [
        (b'[[["", [[0, 1]]]]]}', b" }"),  # np.fromstring reads blank text as [0]
        (b'"order": 1', b'"order": 2'),  # one table short
        (b"[[0, 1]]", b"[[0, 9223372036854775808]]"),  # np.fromstring saturates to 2**63 - 1
        (b"[[0, 1]]", b"[[9223372036854775808, 1]]"),
        (b"[[0, 1]]", b"[[0, 4611686018427387905]]"),  # a count spelt as a mark
        (b"[[0, 1]]", b"[[0, 4611686018427387904], [1, 1]]"),
        (b"[[0, 1]]", b"[[4611686018427387904, 1]]"),  # an index spelt as a mark
        (b"[[0, 1]]", b"[[4611686018427387905, 1], [1, 1]]"),
        (b"[[0, 1]]", b"[[0, 1.0]]"),  # a float count
        (b', "tables": ', b', "tables":'),  # no ', "tables": '
        (b', "tables": ', b',"tables": '),
        (b', "tables": [[["", [[0, 1]]]]]', b""),
        (b"]}", b"]} "),  # trailing bytes
        (b"]}", b"]}0"),
        (b"]}", b"]}[]"),
        (b"]}", b"], []]}"),  # one table too many
        (b"]}", b"]"),
    ])
    def test_reader_hazards_refused(self, mini_vocab, old, new):
        payload = b'{"add_k": 0.5, "order": 1, "tables": [[["", [[0, 1]]]]]}'
        assert old in payload
        with pytest.raises(ModelFormatError):
            deserialize_model(ngram_file(mini_vocab, payload.replace(old, new)), mini_vocab)

    @pytest.mark.parametrize("payload", [
        b'{"add_k": 0.5, "order": 1, "tables": [[["", [[0, 1]]]]], "x": 1}',
        b'{"add_k": 0.5, "order": 1, "x": 1, "tables": [[["", [[0, 1]]]]]}',
        b'{"order": 1, "add_k": 0.5, "tables": [[["", [[0, 1]]]]]}',
        b'[0.5, 1, "tables": [[["", [[0, 1]]]]]]',
        b'{"add_k": 0.5, "order": [[[[1]]]], "tables": [[["", [[0, 1]]]]]}',
    ])
    def test_payload_head_respelt_refused(self, mini_vocab, payload):
        with pytest.raises(ModelFormatError):
            deserialize_model(ngram_file(mini_vocab, payload), mini_vocab)

    @pytest.mark.parametrize("grams, counts", [
        ([[-1]], [1]),
        ([[5]], [1]),
        ([[0]], [-3]),
        ([[0]], [0]),
        ([[0]], [2**60]),
        ([[0], [0]], [2**53, 1]),  # equal rows add up past 2**53
        ([[0]] * 2049, [2**53] * 2048 + [1]),  # and their int64 sum wraps around to 1
        ([[0], [1]], [1, 2, 3]),
        ([[0], [1]], [1]),
        ([[0]], [2**64]),
        ([[0.7], [1.2]], [2, 3]),  # np.int64 would truncate these and parse strings
        ([[0.0], [1.0]], [2, 3]),
        ([["0"], ["1"]], [2, 3]),
        ([[0], [1]], [2.5, 3]),
        ([[0], [1]], [2, "3"]),
    ], ids=["index -1", "index |V|", "count -3", "count 0", "count 2**60", "sum 2**53 + 1",
            "sum 2**64 + 1", "counts too many", "counts too few", "count 2**64", "index float",
            "index integral float", "index string", "count float", "count string"])
    def test_out_of_range_model_refused_in_memory(self, grams, counts):
        vocab = build_vocab(["a", "b", "c"])
        assert len(vocab) == 5
        with pytest.raises(ConfigError):
            NgramModel(vocab, NgramConfig(order=1, add_k=0.5), [(grams, counts)])

    def test_range_bounds_are_inclusive(self):
        vocab = build_vocab(["a", "b", "c"])
        model = NgramModel(vocab, NgramConfig(order=1, add_k=0.5), [([[0], [4]], [1, 2**53])])
        assert json.loads(model.to_payload())["tables"] == [[["", [[0, 1], [4, 2**53]]]]]

    def test_context_total_above_int64_is_exact(self):
        # 1100 counts of 2**53 sum past 2**63: the total must not wrap around
        vocab = build_vocab([f"w{i}" for i in range(1100)])
        assert len(vocab) == 1102
        k, big = 0.25, 2**53
        model = load_ngram(vocab, {"order": 1, "add_k": k,
                                   "tables": [[["", [[i, big] for i in range(1100)]]]]})
        denom = 1100 * big + k * len(vocab)
        expected = np.full(len(vocab), k / denom)
        expected[:1100] += big / denom
        dist = model.next_distribution(())
        assert np.array_equal(dist, expected)
        assert np.all(np.isfinite(dist)) and dist.sum() == pytest.approx(1.0, abs=1e-12)
        rows, _ = model.next_distributions((), [0, 5])  # the block path, too
        assert np.array_equal(rows, [expected, expected])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NgramConfig(order=0)
        for order in (2.0, True, "2"):
            with pytest.raises(ConfigError):
                NgramConfig(order=order)
        with pytest.raises(ValueError):
            NgramConfig(add_k=0.0)
        for add_k in (1, True, "0.5"):  # each a second spelling of a float in a payload
            with pytest.raises(ConfigError):
                NgramConfig(add_k=add_k)


class TestBlockPath:
    """``next_distributions`` packs each full-length context into one int64 key and
    finds all of them with one ``searchsorted``."""

    def test_contexts_below_between_and_above_the_keys(self, mini_vocab):
        size = len(mini_vocab)
        trigrams = [[1, 3, 5], [1, 7, 2], [4, 2, 9]]  # contexts (1, 3) < (1, 7) < (4, 2)
        bigrams = sorted({tuple(g[1:]) for g in trigrams} | {tuple(g[:2]) for g in trigrams})
        unigrams = sorted({(i,) for g in trigrams for i in g})
        model = NgramModel(mini_vocab, NgramConfig(order=3, add_k=0.5),
                           [(unigrams, [2] * len(unigrams)), (bigrams, [1] * len(bigrams)),
                            (trigrams, [3, 1, 2])])
        ids = [0, 5, 1, 3, 2, 1, 7, 4, 2, 9, size - 1, size - 1, 0]
        contexts = {tuple(ids[t - 2:t]) for t in range(2, len(ids))}
        keys = [(1, 3), (1, 7), (4, 2)]
        assert contexts & set(keys) == set(keys)  # every key is hit
        assert min(contexts) < keys[0] and max(contexts) > keys[-1]
        assert any(keys[0] < c < keys[-1] and c not in keys for c in contexts)
        check_block_path(model, (), ids)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_every_context_length(self, order, mini_tokens, mini_vocab):
        ids = mini_vocab.indices(mini_tokens[:60])
        for model in (train_ngram(mini_tokens, mini_vocab, NgramConfig(order, 0.07)),
                      untrained(mini_vocab, NgramConfig(order, 0.07))):
            for length in range(order):
                for block in (ids[length:length], ids[length:length + 1], ids[length:]):
                    check_block_path(model, tuple(ids[:length]), block)

    @pytest.mark.parametrize("order", [1, 3])
    def test_ids_refused(self, order, mini_tokens, mini_vocab):
        model = train_ngram(mini_tokens, mini_vocab, NgramConfig(order, 0.07))
        size = len(mini_vocab)
        for bad in (-1, size):
            with pytest.raises(ValueError) as caught:
                model.next_distributions((), [0, 1, bad, 2])
            with pytest.raises(ValueError) as loop:
                model.check_index(bad)
            assert str(caught.value) == str(loop.value)
        for bad in ([0, 2.5], [2.0], np.array([1.0]), [True]):  # refused, never truncated
            with pytest.raises(ValueError):
                model.next_distributions((), bad)


class TestIndexKinds:
    """``check_index`` takes an integer only (a Python or numpy one), and
    ``next_distribution`` refuses a context entry outside ``[0, |V|)``: packed, one
    would alias another context's key, ``(-1, 6)`` reading ``(0, 1)``'s row."""

    @pytest.fixture(scope="class")
    def trigram(self):
        vocab = build_vocab(["a", "b", "c"])
        assert len(vocab) == 5
        return train_ngram(["a", "b", "c", "a", "b"], vocab, NgramConfig(order=3))

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, np.float64(1.0), np.bool_(True),
                                     "1", None])
    def test_non_integers_refused(self, trigram, bad):
        for check in (trigram.check_index, lambda index: trigram.advance((), index),
                      lambda index: trigram.advance((0, 1), index)):
            with pytest.raises(ValueError, match="token index must be an integer"):
                check(bad)

    def test_numpy_integers_read_as_ints(self, trigram):
        for kind in (np.int64, np.int32, np.uint8, np.uint64):
            assert type(trigram.check_index(kind(4))) is int
            ctx = trigram.advance(trigram.advance((), kind(3)), kind(4))
            assert ctx == (3, 4) and all(type(index) is int for index in ctx)
            assert np.array_equal(trigram.next_distribution((kind(3), kind(4))),
                                  trigram.next_distribution((3, 4)))

    @pytest.mark.parametrize("ctx", [(-1, 6), (0, 5), (5, 0), (-1,), (5,), (2.5,), (1, 2.0),
                                     (np.int64(1), np.float64(2.0)), (True, 1), (1, True),
                                     (np.bool_(False), 2)])
    def test_bad_context_entries_refused(self, trigram, ctx):
        with pytest.raises(ValueError, match="token index"):
            trigram.next_distribution(ctx)

    def test_small_integer_types_and_strings_in_a_context(self, desk_trigram):
        # 3 * |V| does not fit a uint8 (|V| = 529): the entries are read as ints
        assert len(desk_trigram.vocab) > 255
        assert np.array_equal(desk_trigram.next_distribution((np.uint8(3), np.uint8(4))),
                              desk_trigram.next_distribution((3, 4)))
        for ctx in (("a",), (1, "b")):
            with pytest.raises(ValueError, match="token index must be an integer"):
                desk_trigram.next_distribution(ctx)


class TestContextKeyLimit:
    """A context is one int64 key, so ``|V| ** (order - 1)`` must be below 2**63:
    on 5 tokens order 28 fits (5**27 < 2**63) and order 29 does not."""

    def test_order_28_fits(self):
        vocab = build_vocab(["a", "b", "c"])
        assert len(vocab) == 5 and 5**27 < 2**63 <= 5**28
        words = [vocab.token(i) for i in range(5)]
        tokens = [words[i] for i in np.random.default_rng(3).integers(5, size=200)]
        model = train_ngram(tokens + [words[4]] * 40, vocab, NgramConfig(order=28))
        data = serialize_model(model)
        assert serialize_model(deserialize_model(data, vocab)) == data
        ids = vocab.indices(tokens[:30]) + [4] * 40  # up to the largest key, 5**27 - 1
        check_block_path(model, (), ids)
        check_block_path(model, tuple(ids[:27]), ids[27:])

    def test_order_29_refused(self):
        vocab = build_vocab(["a", "b", "c"])
        with pytest.raises(ConfigError, match=r"5 \*\* 28 is not below 2\*\*63"):
            train_ngram(["a", "b", "c"], vocab, NgramConfig(order=29))
        with pytest.raises(ConfigError, match=r"2\*\*63"):
            untrained(vocab, NgramConfig(order=29))
        load_ngram(vocab, {"order": 28, "add_k": 0.5, "tables": [[]] * 28})
        with pytest.raises(ModelFormatError, match=r"2\*\*63"):
            load_ngram(vocab, {"order": 29, "add_k": 0.5, "tables": [[]] * 29})
