import io
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from stegolm.corpus import build_vocab
from stegolm.errors import (
    ConfigError,
    ModelFormatError,
    TrainingError,
    VocabMismatchError,
)
from stegolm.lm.lstm import (
    EpochStats,
    LstmHyperparams,
    LstmModel,
    PRESETS,
    _zero_states,
    init_params,
    param_shapes,
    sgd_step,
    train_lstm,
    training_bytes,
    window_forward,
    window_loss_and_grads,
)
from stegolm.lm.store import deserialize_model, serialize_model


def tiny_vocab(n=6):
    tokens = []
    for i in range(n - 2):
        tokens.extend([f"t{i}"] * (n - i))
    return build_vocab(tokens)


def toy_stream(vocab, length, seed=0):
    rng = np.random.default_rng(seed)
    return [vocab.token(int(rng.integers(len(vocab)))) for _ in range(length)]


def direct_step(params, hp, ctx, index):
    """One LSTM step written out: ``(x @ wx + h @ wh) + b`` through the gates."""
    x, states = params["embed"][index], []
    for layer, (h, c) in enumerate(ctx):
        z = (x @ params[f"wx{layer}"] + h @ params[f"wh{layer}"]) + params[f"b{layer}"]
        e = np.exp(-np.abs(z))
        gi, gf, _, go = np.split(np.where(z >= 0, 1.0, e) / (1.0 + e), 4)
        c = gf * c + gi * np.tanh(z[2 * hp.units:3 * hp.units])
        x = go * np.tanh(c)
        states.append((x, c))
    return tuple(states)


class TestCell:
    def test_zero_weights_analytic_state(self):
        hp = LstmHyperparams(layers=1, units=3, embed_dim=2, unroll_steps=2,
                             batch_size=1)
        vocab = tiny_vocab(5)
        params = {k: np.zeros_like(v) for k, v in init_params(len(vocab), hp, 0).items()}
        model = LstmModel(vocab, hp, params)
        # all-zero weights: every gate sigmoid(0)=0.5, candidate tanh(0)=0,
        # so c' = 0.5*c and h' = 0.5*tanh(0.5*c)
        start = ((np.zeros(3), np.ones(3)),)
        ctx = model.advance(start, 0)
        h, c = ctx[0]
        np.testing.assert_allclose(c, np.full(3, 0.5), atol=1e-15)
        np.testing.assert_allclose(h, np.full(3, 0.5 * math.tanh(0.5)), atol=1e-15)

    def test_advance_is_deterministic_bitwise(self):
        hp = LstmHyperparams(layers=2, units=5, embed_dim=3)
        vocab = tiny_vocab(6)
        model = LstmModel(vocab, hp, init_params(len(vocab), hp, 1))
        a = model.advance(model.initial_context(), 2)
        b = model.advance(model.initial_context(), 2)
        for (ha, ca), (hb, cb) in zip(a, b):
            assert np.array_equal(ha, hb) and np.array_equal(ca, cb)

    def test_advance_does_not_mutate_input(self):
        hp = LstmHyperparams(layers=1, units=4, embed_dim=3)
        vocab = tiny_vocab(6)
        model = LstmModel(vocab, hp, init_params(len(vocab), hp, 1))
        ctx = model.initial_context()
        snapshot = [(h.copy(), c.copy()) for h, c in ctx]
        model.advance(ctx, 1)
        for (h, c), (hs, cs) in zip(ctx, snapshot):
            assert np.array_equal(h, hs) and np.array_equal(c, cs)

    def test_returned_contexts_are_never_changed_later(self):
        hp = LstmHyperparams(layers=2, units=16, embed_dim=8)
        vocab = tiny_vocab(30)
        rng = np.random.default_rng(4)  # large weights and nonzero biases
        params = {name: rng.uniform(-0.5, 0.5, size=shape)
                  for name, shape in param_shapes(len(vocab), hp).items()}
        model = LstmModel(vocab, hp, params)
        first = model.advance(model.initial_context(), 2)
        _, after = model.next_distributions(first, [2, 4, 2])
        kept = [(ctx, np.array(ctx)) for ctx in (first, after)]
        later = model.advance(first, 2)
        model.next_distribution(later)
        model.next_distributions(model.advance(later, 4), [1, 2, 3])
        for ctx, copy in kept:
            assert np.array_equal(np.array(ctx), copy)
        # each index's input row is computed on its first advance and memoised for
        # the second; both equal the step written out
        ctx = first
        for index in rng.integers(len(vocab), size=40):
            fresh, memoised = model.advance(ctx, index), model.advance(ctx, index)
            assert np.array_equal(np.array(fresh), np.array(memoised))
            assert np.array_equal(np.array(fresh), np.array(direct_step(params, hp, ctx, index)))
            ctx = fresh

    def test_out_of_range_token(self):
        hp = LstmHyperparams(layers=1, units=4, embed_dim=3)
        vocab = tiny_vocab(6)
        model = LstmModel(vocab, hp, init_params(len(vocab), hp, 1))
        with pytest.raises(ValueError):
            model.advance(model.initial_context(), len(vocab))

    def test_non_integer_token_refused_after_memo(self):
        hp = LstmHyperparams(layers=1, units=4, embed_dim=3)
        vocab = tiny_vocab(6)
        model = LstmModel(vocab, hp, init_params(len(vocab), hp, 1))
        start = model.initial_context()
        expected = model.advance(start, 1)  # memoises index 1, which True and 1.0 equal
        for bad in (True, 1.0, np.float64(1.0), np.bool_(True)):
            with pytest.raises(ValueError, match="token index must be an integer"):
                model.advance(start, bad)
        for kind in (np.int64, np.uint8):
            assert np.array_equal(np.array(model.advance(start, kind(1))), np.array(expected))

    def test_next_distribution_is_normalized(self):
        hp = LstmHyperparams(layers=1, units=8, embed_dim=4)
        vocab = tiny_vocab(7)
        model = LstmModel(vocab, hp, init_params(len(vocab), hp, 2))
        ctx = model.advance(model.initial_context(), 0)
        dist = model.next_distribution(ctx)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert np.all(dist > 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_model_is_refused_at_construction(self, mini_vocab):
        hp = LstmHyperparams(layers=1, units=4, embed_dim=3)
        logits = init_params(len(mini_vocab), hp, 1)
        logits["wo"][:, 1] = 1e308  # finite weights whose logit can overflow
        gates = init_params(len(mini_vocab), hp, 1)
        gates["embed"][:] = 1e10
        gates["wx0"][:] = 1e308  # finite, but the gates' pre-activations overflow
        for params, part in ((logits, "logits"), (gates, "layer 0 gates")):
            with pytest.raises(ConfigError, match=part):
                LstmModel(mini_vocab, hp, params)
        logits["wo"][:, 1] = 1e300  # large, but the bound stays finite
        LstmModel(mini_vocab, hp, logits)


class TestGradients:
    def test_matches_central_finite_differences(self):
        hp = LstmHyperparams(layers=1, units=8, embed_dim=5, unroll_steps=4,
                             batch_size=2, clip_norm=None)
        vocab = tiny_vocab(6)
        params = init_params(len(vocab), hp, 3)
        rng = np.random.default_rng(7)
        inputs = rng.integers(0, len(vocab), size=(2, 4))
        targets = rng.integers(0, len(vocab), size=(2, 4))
        _, grads, _ = window_loss_and_grads(params, hp, inputs, targets,
                                            _zero_states(hp, 2))
        h = 1e-5
        worst = 0.0
        for name, arr in params.items():
            flat = arr.ravel()
            analytic = grads[name].ravel()
            idxs = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                up, _, _ = window_forward(params, hp, inputs, targets, _zero_states(hp, 2))
                flat[i] = orig - h
                down, _, _ = window_forward(params, hp, inputs, targets, _zero_states(hp, 2))
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                # 1e-6 floor: below that, fd roundoff (~eps*loss/h) dominates
                rel = abs(numeric - analytic[i]) / max(abs(numeric), abs(analytic[i]), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_dropout_masks_respected_in_backward(self):
        # gradcheck with a frozen dropout mask: forward and backward must
        # agree through the same masks
        hp = LstmHyperparams(layers=2, units=6, embed_dim=4, unroll_steps=3,
                             batch_size=2, dropout=0.5, clip_norm=None)
        vocab = tiny_vocab(6)
        params = init_params(len(vocab), hp, 3)
        rng = np.random.default_rng(5)
        inputs = rng.integers(0, len(vocab), size=(2, 3))
        targets = rng.integers(0, len(vocab), size=(2, 3))
        keep = 0.5
        masks = [
            (rng.random((2, 3, hp.embed_dim)) < keep) / keep,
            (rng.random((2, 3, hp.units)) < keep) / keep,
            (rng.random((2, 3, hp.units)) < keep) / keep,
        ]
        _, grads, _ = window_loss_and_grads(params, hp, inputs, targets,
                                            _zero_states(hp, 2), masks)
        h = 1e-5
        name = "wx0"
        flat = params[name].ravel()
        analytic = grads[name].ravel()
        for i in rng.choice(flat.size, size=15, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up, _, _ = window_forward(params, hp, inputs, targets, _zero_states(hp, 2), masks)
            flat[i] = orig - h
            down, _, _ = window_forward(params, hp, inputs, targets, _zero_states(hp, 2), masks)
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            assert abs(numeric - analytic[i]) / max(abs(numeric), abs(analytic[i]), 1e-6) < 1e-4


class TestWindowMemory:
    def test_one_output_array_per_window_same_bits(self):
        # desk shapes: batch 16, 16 steps, 64 units, |V| = 529
        hp = PRESETS["desk"]
        vocab_size = 529
        params = init_params(vocab_size, hp, 4)
        rng = np.random.default_rng(8)
        inputs = rng.integers(0, vocab_size, size=(hp.batch_size, hp.unroll_steps))
        targets = rng.integers(0, vocab_size, size=(hp.batch_size, hp.unroll_steps))
        states = _zero_states(hp, hp.batch_size)
        window_forward(params, hp, inputs, targets, states)  # warm-up outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, (_, top_out, expd, sums), _ = window_forward(params, hp, inputs, targets, states)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the out-of-place formula made four (B, T, |V|) arrays: logits, logits + bo,
        # shifted logits and their exponentials
        assert peak < 3 * expd.nbytes
        logits = top_out @ params["wo"] + params["bo"]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expected_expd = np.exp(shifted)
        expected_sums = expected_expd.sum(axis=-1)
        picked = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
        assert loss == float((np.log(expected_sums) - picked).mean())
        assert np.array_equal(expd, expected_expd)
        assert np.array_equal(sums, expected_sums)


class TestOptimizer:
    def test_sgd_update_rule(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
        grads = {"w": np.array([0.3, 0.4]), "b": np.array([0.0])}
        assert sgd_step(params, grads, lr=2.0, clip_norm=None) == pytest.approx(0.5)
        np.testing.assert_allclose(params["w"], [1.0 - 0.6, -2.0 - 0.8])
        np.testing.assert_allclose(params["b"], [0.5])

    def test_clipping_rescales_to_clip_norm(self):
        params = {"w": np.zeros(2)}
        grads = {"w": np.array([3.0, 4.0])}
        assert sgd_step(params, grads, lr=0.0, clip_norm=1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(grads["w"], [0.6, 0.8])
        assert np.linalg.norm(grads["w"]) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        params = {"w": np.zeros(2)}
        grads = {"w": np.array([0.3, 0.4])}
        assert sgd_step(params, grads, lr=0.0, clip_norm=1.0) == pytest.approx(0.5)
        np.testing.assert_allclose(grads["w"], [0.3, 0.4])

    def test_update_applies_clipped_gradient(self):
        params = {"w": np.array([0.0, 0.0])}
        grads = {"w": np.array([3.0, 4.0])}
        assert sgd_step(params, grads, lr=1.0, clip_norm=1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(params["w"], [-0.6, -0.8])


class TestTraining:
    def test_validation_loss_improves_on_toy_corpus(self, mini_tokens, mini_vocab):
        # 10k-token stream, default desk-sized preset (1 layer, 64 units,
        # embedding 32): epoch 5 must beat epoch 0 on held-out loss
        stream = (mini_tokens * 4)[:10_000]
        model = train_lstm(stream, mini_vocab, PRESETS["desk"], epochs=6, seed=1)
        assert model.history[5].val_nll < model.history[0].val_nll

    def test_fixed_seed_reproducible(self, mini_tokens, mini_vocab):
        hp = LstmHyperparams(layers=1, units=12, embed_dim=6, unroll_steps=8,
                             batch_size=4, dropout=0.2)
        stream = mini_tokens[:600]
        a = train_lstm(stream, mini_vocab, hp, epochs=2, seed=42)
        b = train_lstm(stream, mini_vocab, hp, epochs=2, seed=42)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert a.history == b.history

    def test_lr_decay_rule_triggers_when_val_stalls(self):
        vocab = tiny_vocab(6)
        stream = toy_stream(vocab, 400, seed=2)
        hp = LstmHyperparams(layers=1, units=8, embed_dim=4, unroll_steps=4,
                             batch_size=4, lr_init=1e-9, lr_decay=2.0)
        model = train_lstm(stream, vocab, hp, epochs=3, seed=0)
        # first epoch always "improves" on the infinite starting best
        assert not model.history[0].decayed
        assert model.history[1].decayed
        assert model.history[1].lr_after == pytest.approx(1e-9 / 2.0)
        assert model.history[2].lr_after == pytest.approx(1e-9 / 4.0)

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        # hidden states are tanh-bounded, so blowing up the loss organically
        # takes geologic time in float64; poison the init to hit the guard
        import stegolm.lm.lstm as lstm_mod

        real_init = lstm_mod.init_params

        def poisoned(vocab_size, hp, seed):
            params = real_init(vocab_size, hp, seed)
            params["bo"][0] = np.inf
            return params

        monkeypatch.setattr(lstm_mod, "init_params", poisoned)
        vocab = tiny_vocab(6)
        stream = toy_stream(vocab, 600, seed=3)
        hp = LstmHyperparams(layers=1, units=8, embed_dim=4, unroll_steps=4,
                             batch_size=4)
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            train_lstm(stream, vocab, hp, epochs=1, seed=0)

    def test_corpus_too_small_rejected(self):
        vocab = tiny_vocab(6)
        hp = LstmHyperparams(unroll_steps=16, batch_size=16)
        with pytest.raises(TrainingError):
            train_lstm(toy_stream(vocab, 100), vocab, hp, epochs=1, seed=0)

    @pytest.mark.parametrize("layers", [1, 2, 3, 5])
    def test_training_bytes_counts_every_param_shapes_array(self, layers):
        hp = LstmHyperparams(layers=layers, units=3, embed_dim=2, unroll_steps=4, batch_size=5)
        params = sum(math.prod(shape) for shape in param_shapes(7, hp).values())
        window = 4 * 5 * (7 + 2 + 8 * 3 * layers)  # (B, T, |V|), inputs and caches
        assert training_bytes(7, hp) == 8 * (2 * params + window)

    @pytest.mark.parametrize("size", ["layers", "units", "embed_dim"])
    def test_size_past_the_ceiling_refused_before_allocating(self, monkeypatch, size):
        import stegolm.lm.lstm as lstm_mod

        def allocate(*args):
            raise AssertionError("init_params ran")

        monkeypatch.setattr(lstm_mod, "init_params", allocate)
        vocab = tiny_vocab(6)
        hp = LstmHyperparams(units=4, embed_dim=4, unroll_steps=4, batch_size=4)
        monkeypatch.setattr(lstm_mod, "MEMORY_CEILING", training_bytes(len(vocab), hp))
        with pytest.raises(AssertionError, match="init_params ran"):  # at the ceiling
            train_lstm(toy_stream(vocab, 100), vocab, hp, epochs=1, seed=0)
        bigger = replace(hp, **{size: getattr(hp, size) + 1})
        with pytest.raises(TrainingError, match="physical memory"):
            train_lstm(toy_stream(vocab, 100), vocab, bigger, epochs=1, seed=0)

    def test_memory_error_while_training_is_a_training_error(self, monkeypatch):
        import stegolm.lm.lstm as lstm_mod

        def allocate(*args):
            raise MemoryError("Unable to allocate 262. TiB")

        monkeypatch.setattr(lstm_mod, "init_params", allocate)
        vocab = tiny_vocab(6)
        hp = LstmHyperparams(units=4, embed_dim=4, unroll_steps=4, batch_size=4)
        with pytest.raises(TrainingError, match="out of memory while training"):
            train_lstm(toy_stream(vocab, 100), vocab, hp, epochs=1, seed=0)

    def test_presets_carry_published_scales(self):
        tw = PRESETS["paper-twitter"]
        assert (tw.layers, tw.units, tw.embed_dim, tw.unroll_steps) == (2, 600, 200, 25)
        assert (tw.batch_size, tw.lr_init, tw.lr_decay) == (20, 20.0, 4.0)
        assert (tw.clip_norm, tw.dropout) == (0.25, 0.2)
        en = PRESETS["paper-enron"]
        assert (en.layers, en.units, en.unroll_steps) == (3, 600, 20)
        assert en.clip_norm is None and en.dropout == 0.0

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            LstmHyperparams(layers=0)
        with pytest.raises(ValueError):
            LstmHyperparams(lr_decay=1.0)
        with pytest.raises(ValueError):
            LstmHyperparams(dropout=1.0)
        with pytest.raises(ValueError):
            LstmHyperparams(clip_norm=0.0)
        for name in ("layers", "units", "embed_dim", "unroll_steps", "batch_size"):
            for value in (1.5, 4.0, True, "2"):  # a model header may hold any of these
                with pytest.raises(ConfigError):
                    LstmHyperparams(**{name: value})


def respelt_config(data: bytes, change) -> bytes:
    """The model file ``data`` with ``change`` applied to its parsed config line."""
    head = data.split(b"\n", 5)
    config = json.loads(head[3].partition(b": ")[2])
    change(config)
    head[3] = b"config: " + json.dumps(config, sort_keys=True).encode()
    return b"\n".join(head)


@pytest.fixture(scope="module")
def trained(mini_tokens, mini_vocab):
    hp = LstmHyperparams(layers=2, units=10, embed_dim=6, unroll_steps=8,
                         batch_size=4)
    return train_lstm(mini_tokens[:600], mini_vocab, hp, epochs=1, seed=9)


class TestPersistence:

    def test_parameters_roundtrip_bit_exact(self, trained, mini_vocab):
        data = serialize_model(trained)
        again = deserialize_model(data, mini_vocab)
        assert set(again.params) == set(trained.params)
        for name in trained.params:
            assert np.array_equal(again.params[name], trained.params[name])
        assert again.hp == trained.hp
        assert again.history == trained.history

    def test_distributions_identical_on_random_contexts(self, trained, mini_vocab):
        again = deserialize_model(serialize_model(trained), mini_vocab)
        rng = np.random.default_rng(0)
        for _ in range(100):
            ctx_a = trained.initial_context()
            ctx_b = again.initial_context()
            for _ in range(int(rng.integers(1, 6))):
                tok = int(rng.integers(len(mini_vocab)))
                ctx_a = trained.advance(ctx_a, tok)
                ctx_b = again.advance(ctx_b, tok)
            assert np.array_equal(trained.next_distribution(ctx_a),
                                  again.next_distribution(ctx_b))

    def test_tampered_vocab_hash_rejected(self, trained, mini_vocab):
        data = serialize_model(trained)
        bogus = data.replace(trained.vocab_hash.encode(), b"0" * 64)
        with pytest.raises(VocabMismatchError):
            deserialize_model(bogus, mini_vocab)

    def test_truncated_payload_rejected(self, trained, mini_vocab):
        data = serialize_model(trained)
        with pytest.raises(ModelFormatError):
            deserialize_model(data[:-20], mini_vocab)

    def test_unknown_backend_rejected(self, mini_vocab):
        data = (
            b"STEGOLM v1\nbackend: mystery\n"
            + f"vocab_hash: {mini_vocab.content_hash()}\n".encode()
            + b'config: {}\npayload_bytes: 0\n'
        )
        with pytest.raises(ModelFormatError):
            deserialize_model(data, mini_vocab)

    def test_only_the_written_header_loads(self, trained, mini_vocab, mini_bigram):
        # a second spelling of a model file would load as the same model
        lstm, ngram = serialize_model(trained), serialize_model(mini_bigram)
        head = lstm.split(b"\n", 5)
        for bad in (b"\n".join([head[0], head[2], head[1], *head[3:]]),
                    b"\n".join([*head[:3], head[4], head[3], head[5]]),
                    lstm.replace(b'"units": ', b'"units":', 1),
                    lstm.replace(b"config: ", b"config:  ", 1),
                    lstm.replace(b"backend: ", b"backend:", 1),
                    respelt_config(lstm, lambda config: config.pop("history")),
                    ngram.replace(b"config: {}", b"config: { }", 1),
                    ngram.replace(b"config: {}", b'config: {"x": 1}', 1),
                    ngram.replace(b"config: {}", b"config: []", 1)):
            with pytest.raises(ModelFormatError):
                deserialize_model(bad, mini_vocab)

    def test_history_of_wrong_types_refused_at_load(self, desk_vocab):
        hp = PRESETS["desk"]
        model = LstmModel(desk_vocab, hp, init_params(len(desk_vocab), hp, 0),
                          [EpochStats(0, 5.0, 4.5, 4.0, False)])
        data = serialize_model(model)
        assert serialize_model(deserialize_model(data, desk_vocab)) == data
        bad = {"epoch": "x", "train_nll": None, "val_nll": [1], "lr_after": {"a": 1},
               "decayed": "no"}
        with pytest.raises(ModelFormatError):
            deserialize_model(respelt_config(data, lambda config: config.update(history=[bad])),
                              desk_vocab)

    def test_huge_layers_refused_by_array_count(self, trained, mini_vocab):
        # refused before the 300,003 expected shapes are built, in a short message
        data = respelt_config(serialize_model(trained),
                              lambda config: config["hyperparams"].update(layers=100_000))
        with pytest.raises(ModelFormatError, match="100000 layers") as refused:
            deserialize_model(data, mini_vocab)
        assert len(str(refused.value)) < 100

    @pytest.mark.parametrize("name, value", [
        ("epoch", "x"), ("epoch", True), ("epoch", 1.0), ("train_nll", None),
        ("train_nll", 1), ("train_nll", math.nan), ("val_nll", [1]), ("val_nll", math.inf),
        ("lr_after", {"a": 1}), ("lr_after", -math.inf), ("decayed", "no"), ("decayed", 0),
        ("epoch", -1)])
    def test_history_entry_checked(self, trained, mini_vocab, name, value):
        entry = asdict(trained.history[0])
        with pytest.raises(ConfigError):  # the same check in memory
            EpochStats(**{**entry, name: value})
        data = respelt_config(serialize_model(trained),
                              lambda config: config["history"][0].update({name: value}))
        with pytest.raises(ModelFormatError):
            deserialize_model(data, mini_vocab)

    def test_non_utf8_header_rejected(self, mini_vocab, mini_bigram):
        data = serialize_model(mini_bigram).replace(b"backend: ngram", b"backend: \xffngram", 1)
        with pytest.raises(ModelFormatError):
            deserialize_model(data, mini_vocab)

    @pytest.mark.parametrize("damage", ["missing wx0", "extra array", "wrong shape", "float32",
                                        "nan", "inf"])
    def test_payload_must_match_hyperparams(self, trained, mini_vocab, damage):
        params = {name: array.copy() for name, array in trained.params.items()}
        if damage == "missing wx0":
            del params["wx0"]
        elif damage == "extra array":
            params["wx9"] = params["wx0"]
        elif damage == "wrong shape":
            params["wo"] = params["wo"].T.copy()
        elif damage == "float32":
            params["bo"] = params["bo"].astype(np.float32)
        else:
            params["wh1"][2, 3] = float(damage)
        with pytest.raises(ConfigError):  # the same check in memory
            LstmModel(mini_vocab, trained.hp, params, trained.history)
        buf = io.BytesIO()
        np.savez(buf, **params)
        head = serialize_model(trained).split(b"\n", 5)[:4]  # up to payload_bytes
        data = b"\n".join(head + [b"payload_bytes: %d" % buf.tell(), buf.getvalue()])
        with pytest.raises(ModelFormatError):
            deserialize_model(data, mini_vocab)

    @pytest.mark.parametrize("spelling", ["fortran order", "reordered arrays", "compressed"])
    def test_respelt_payload_rejected(self, trained, mini_vocab, spelling):
        # the same arrays, saved otherwise than to_payload saves them
        params = trained.params
        buf = io.BytesIO()
        if spelling == "fortran order":
            np.savez(buf, **{name: np.asfortranarray(array) for name, array in params.items()})
        elif spelling == "reordered arrays":
            np.savez(buf, **dict(reversed(params.items())))
        else:
            np.savez_compressed(buf, **params)
        head = serialize_model(trained).split(b"\n", 5)[:4]  # up to payload_bytes
        data = b"\n".join(head + [b"payload_bytes: %d" % buf.tell(), buf.getvalue()])
        assert data != serialize_model(trained)
        with pytest.raises(ModelFormatError):
            deserialize_model(data, mini_vocab)

    def test_ngram_roundtrip_preserves_counts(self, mini_tokens, mini_vocab, mini_bigram):
        data = serialize_model(mini_bigram)
        again = deserialize_model(data, mini_vocab)
        ids = mini_vocab.indices_or_unk(mini_tokens).tolist()
        stream = [Counter(tuple(ids[i - m:i + 1]) for i in range(m, len(ids))) for m in range(2)]
        for model in (mini_bigram, again):
            tables = json.loads(model.to_payload())["tables"]
            counts = [Counter({(*(int(p) for p in ctx.split(",") if p), index): count
                               for ctx, successors in table for index, count in successors})
                      for table in tables]
            assert counts == stream
        assert serialize_model(again) == data
        assert again.config == mini_bigram.config
