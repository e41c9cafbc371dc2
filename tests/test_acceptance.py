"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
heavier checks (round-trip storm, perplexity trends, LSTM training) share
session-scoped models built from the bundled desk corpus.
"""

import math

import numpy as np
import pytest

from conftest import FixedModel
from stegolm.codec import (
    Framing,
    GenPolicy,
    Mode,
    Payload,
    bytes_to_bits,
    constrained_select,
    decode,
    decode_payload,
    encode,
)
from stegolm.corpus import EOS_TOKEN, UNK_TOKEN, Vocabulary, build_vocab
from stegolm.keying import BitBlock, StegoKey, deserialize_key, generate_key, serialize_key
from stegolm.lm.lstm import (
    LstmHyperparams,
    _zero_states,
    init_params,
    train_lstm,
    window_forward,
    window_loss_and_grads,
)
from stegolm.lm.ngram import NgramConfig, train_ngram
from stegolm.metrics import capacity, capacity_empirical, perplexity, stego_perplexity, stego_word_prob


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="module")
def desk_split(desk_tokens):
    cut = int(len(desk_tokens) * 0.9)
    return desk_tokens[:cut], desk_tokens[cut:]


@pytest.fixture(scope="module")
def slice_vocab_and_models(desk_text, desk_config):
    """Smaller corpus slice -> fast ngram + lstm pair for the round-trip storm."""
    from stegolm.corpus import CorpusConfig, tokenize

    lines = desk_text.splitlines()[:2600]
    config = CorpusConfig(drop_retweets=True, max_vocab=400)
    tokens = tokenize("\n".join(lines) + "\n", config)
    vocab = build_vocab(tokens, config)
    ngram = train_ngram(tokens, vocab, NgramConfig(order=2, add_k=0.1))
    hp = LstmHyperparams(layers=1, units=48, embed_dim=24, unroll_steps=16,
                         batch_size=16)
    lstm = train_lstm(tokens, vocab, hp, epochs=2, seed=17)
    return vocab, {"ngram": ngram, "lstm": lstm}


def test_01_round_trip_1000_random_payloads(slice_vocab_and_models):
    vocab, models = slice_vocab_and_models
    rng = np.random.default_rng(20250810)
    trials = 1000
    failures = 0
    for trial in range(trials):
        block_bits = int(rng.choice([1, 2, 3]))
        common = int(rng.choice([0, 10]))
        key = generate_key(vocab, block_bits, common,
                           seed=int(rng.integers(1 << 32)))
        payload = Payload(rng.bytes(int(rng.integers(1, 257))), Framing.RAW)
        policy = GenPolicy(
            mode=Mode.SAMPLE if trial % 2 else Mode.GREEDY,
            seed=int(rng.integers(1 << 32)),
        )
        model = models["lstm" if (trial // 2) % 2 else "ngram"]
        stegotext = encode(payload, key, model, policy)
        bits = bytes_to_bits(payload.data)
        prefix = bits[: (len(bits) // block_bits) * block_bits]
        if decode(stegotext.tokens, key) != prefix:
            failures += 1
    _report("1 round-trip", failures == 0, f"{trials - failures}/{trials}")


def test_02_fixture_key_decodes_known_sentence(fixture_key):
    bits = decode(["I", "am", "attaching", "an", "NDA"], fixture_key)
    _report("2 fixture decode", bits == "1000011011", bits)


def test_03_capacity_arithmetic_and_empirical_identity(slice_vocab_and_models):
    checks = [
        capacity(2, 0.0).bits_per_word == 2.0,
        capacity(1, 0.35).bits_per_word == 0.65,
        capacity(2, 0.0, 16.04).bits_per_message == 32.08,
        abs(capacity(3, 0.0, 16.04).bits_per_message - 48.12) < 1e-12,
    ]
    vocab, models = slice_vocab_and_models
    rng = np.random.default_rng(3)
    for trial in range(40):
        block_bits = int(rng.choice([1, 2, 3]))
        key = generate_key(vocab, block_bits, int(rng.choice([0, 10])),
                           seed=trial)
        framing = Framing.RAW if trial % 2 else Framing.LENGTH_PREFIXED
        payload = Payload(rng.bytes(int(rng.integers(4, 40))), framing)
        out = encode(payload, key, models["ngram"],
                     GenPolicy(mode=Mode.SAMPLE, seed=trial))
        report = capacity_empirical(out.tokens, key)
        decoded_bits = decode(out.tokens, key)
        checks.append(report.carrier_count == out.carrier_count)
        checks.append(len(decoded_bits) == block_bits * report.carrier_count)
        checks.append(report.carrier_count + report.common_count == report.token_count)
    _report("3 capacity arithmetic", all(checks))


def test_04_stego_perplexity_trends_on_desk_corpus(desk_trigram, desk_vocab, desk_split):
    _, valid = desk_split
    plain = perplexity(desk_trigram, valid).perplexity
    by_bins = {}
    with_common = {}
    for block_bits in (0, 1, 2, 3):
        key = generate_key(desk_vocab, block_bits, 0, seed=1234)
        by_bins[1 << block_bits] = stego_perplexity(desk_trigram, key, valid).perplexity
        if block_bits > 0:
            key_c = generate_key(desk_vocab, block_bits, 10, seed=1234)
            with_common[1 << block_bits] = stego_perplexity(
                desk_trigram, key_c, valid).perplexity
    increasing = by_bins[1] < by_bins[2] < by_bins[4] < by_bins[8]
    one_bin_is_plain = abs(by_bins[1] - plain) < 1e-9 * plain
    common_helps = all(with_common[n] < by_bins[n] for n in (2, 4, 8))
    detail = (
        f"bins {by_bins[1]:.2f}<{by_bins[2]:.2f}<{by_bins[4]:.2f}<{by_bins[8]:.2f}; "
        f"common {with_common[2]:.2f}/{with_common[4]:.2f}/{with_common[8]:.2f}"
    )
    _report("4 perplexity trend", increasing and one_bin_is_plain and common_helps, detail)


def test_05_stego_word_prob_oracles():
    # hand-computed four-word case
    vocab4 = Vocabulary(("t1", "t2", "t3", "t4"), (4, 3, 2, 1))
    model4 = FixedModel(vocab4, [0.4, 0.3, 0.2, 0.1])
    key4 = StegoKey(1, [0, 0, 1, 1], 0, vocab4)
    hand = [0.2857142857142857, 0.21428571428571427,
            0.3333333333333333, 0.16666666666666666]
    hand_ok = all(
        abs(stego_word_prob(model4, (), key4, i) - hand[i]) <= 1e-9 for i in range(4)
    )

    # Monte-Carlo oracle on a 50-word model: drive the real constrained
    # selector with uniform random bit blocks and compare frequencies
    size = 50
    vocab = Vocabulary(tuple(f"t{i:02d}" for i in range(size)),
                       tuple(range(2 * size, 0, -2)))
    rng = np.random.default_rng(55)
    model = FixedModel(vocab, rng.dirichlet(np.ones(size) * 1.5))
    key = generate_key(vocab, 2, 6, seed=9)
    trials = 100_000
    blocks = [BitBlock(v, key.block_bits) for v in range(4)]
    draws = rng.integers(0, 4, size=trials)
    counts = np.zeros(size)
    policy = GenPolicy(mode=Mode.SAMPLE, seed=0)
    for value in draws:
        idx = constrained_select(model, (), key, blocks[value], policy, rng=rng)
        counts[idx] += 1
    freq = counts / trials
    worst_sigma = 0.0
    for idx in range(size):
        p = stego_word_prob(model, (), key, idx)
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        worst_sigma = max(worst_sigma, abs(freq[idx] - p) / se)
    _report("5 stego probability oracle", hand_ok and worst_sigma <= 3.0,
            f"worst deviation {worst_sigma:.2f} standard errors")


def test_06_degenerate_key_equivalence(desk_trigram, desk_vocab, desk_split):
    _, valid = desk_split
    stream = valid[:3000]
    key = generate_key(desk_vocab, 0, 0, seed=6)
    plain = perplexity(desk_trigram, stream)
    stego = stego_perplexity(desk_trigram, key, stream)
    ppl_equal = (
        abs(stego.perplexity - plain.perplexity) <= 1e-9 * plain.perplexity
        and stego.token_count == plain.token_count
    )

    # under GREEDY, single-bin constrained selection must equal unconstrained
    # generation; the unconstrained side is computed independently here
    empty_block = BitBlock(0, key.block_bits)
    banned = {desk_vocab.index_of(EOS_TOKEN), desk_vocab.index_of(UNK_TOKEN)}
    policy = GenPolicy(mode=Mode.GREEDY)
    rng = np.random.default_rng(66)
    sequences_equal = True
    for _ in range(100):
        prefix = [int(i) for i in rng.integers(0, len(desk_vocab), size=rng.integers(1, 6))]
        ctx_a = desk_trigram.initial_context()
        ctx_b = desk_trigram.initial_context()
        for tok in prefix:
            ctx_a = desk_trigram.advance(ctx_a, tok)
            ctx_b = desk_trigram.advance(ctx_b, tok)
        for _ in range(8):
            picked = constrained_select(desk_trigram, ctx_a, key, empty_block, policy)
            probs = desk_trigram.next_distribution(ctx_b).copy()
            probs[list(banned)] = -1.0
            free = int(np.argmax(probs))
            if picked != free:
                sequences_equal = False
                break
            ctx_a = desk_trigram.advance(ctx_a, picked)
            ctx_b = desk_trigram.advance(ctx_b, free)
        if not sequences_equal:
            break
    _report("6 degenerate key equivalence", ppl_equal and sequences_equal)


def test_07_lstm_gradients_and_training(desk_tokens, desk_vocab):
    # analytic vs central finite differences, every parameter element
    hp = LstmHyperparams(layers=1, units=8, embed_dim=5, unroll_steps=5,
                         batch_size=2, clip_norm=None)
    vocab = build_vocab([t for i in range(4) for t in (f"a{i}",) * (i + 2)])
    assert len(vocab) == 6
    params = init_params(len(vocab), hp, seed=2)
    rng = np.random.default_rng(1)
    inputs = rng.integers(0, 6, size=(2, 5))
    targets = rng.integers(0, 6, size=(2, 5))
    _, grads, _ = window_loss_and_grads(params, hp, inputs, targets,
                                        _zero_states(hp, 2))
    step = 1e-5
    worst = 0.0
    for name, arr in params.items():
        flat = arr.ravel()
        analytic = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _, _ = window_forward(params, hp, inputs, targets, _zero_states(hp, 2))
            flat[i] = orig - step
            down, _, _ = window_forward(params, hp, inputs, targets, _zero_states(hp, 2))
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            # 1e-6 floor keeps fd roundoff (~eps*loss/step) out of the ratio
            rel = abs(numeric - analytic[i]) / max(abs(numeric), abs(analytic[i]), 1e-6)
            worst = max(worst, rel)
    grad_ok = worst < 1e-4

    model = train_lstm(desk_tokens, desk_vocab, LstmHyperparams(), epochs=3, seed=7)
    history = model.history
    training_ok = True
    for prev, cur in zip(history, history[1:]):
        improved = cur.val_nll < prev.val_nll
        decay_applied = cur.decayed and cur.lr_after == pytest.approx(
            prev.lr_after / model.hp.lr_decay)
        training_ok = training_ok and (improved or decay_applied)
    detail = (
        f"gradcheck worst rel {worst:.2e}; "
        f"val {' -> '.join(f'{h.val_nll:.4f}' for h in history)}"
    )
    _report("7 lstm correctness", grad_ok and training_ok, detail)


def test_08_key_invariants_and_serialization_storm():
    rng = np.random.default_rng(88)
    vocab_pool = []
    for v in range(20):
        n = int(rng.integers(10, 60))
        tokens = []
        for i in range(n):
            tokens.extend([f"v{v}w{i}"] * int(rng.integers(1, 6)))
        vocab_pool.append(build_vocab(tokens))
    failures = 0
    trials = 1000
    for trial in range(trials):
        vocab = vocab_pool[trial % len(vocab_pool)]
        carriers = len(vocab) - 2
        block_bits = int(rng.integers(0, 4))
        while (1 << block_bits) > carriers:
            block_bits -= 1
        common = int(rng.integers(0, carriers - (1 << block_bits) + 1))
        key = generate_key(vocab, block_bits, common, seed=int(rng.integers(1 << 32)))
        try:
            seen = set(key.common)
            for members in key.bins:
                for idx in members:
                    assert idx not in seen
                    seen.add(idx)
            expected = {
                i for i, t in enumerate(vocab.tokens)
                if t not in (EOS_TOKEN, UNK_TOKEN)
            }
            assert seen == expected
            sizes = [len(b) for b in key.bins]
            assert max(sizes) - min(sizes) <= 1
            data = serialize_key(key)
            assert serialize_key(deserialize_key(data, vocab)) == data
        except AssertionError:
            failures += 1
    _report("8 key invariants", failures == 0, f"{trials - failures}/{trials}")


def test_09_common_token_transparency(slice_vocab_and_models):
    vocab, models = slice_vocab_and_models
    rng = np.random.default_rng(99)
    failures = 0
    for trial in range(100):
        block_bits = int(rng.choice([1, 2, 3]))
        key = generate_key(vocab, block_bits, 10, seed=trial)
        payload = Payload(rng.bytes(int(rng.integers(4, 25))), Framing.LENGTH_PREFIXED)
        out = encode(payload, key, models["ngram"],
                     GenPolicy(mode=Mode.SAMPLE, seed=trial))
        reference = decode(out.tokens, key)
        common_surfaces = [vocab.token(i) for i in key.common]
        tokens = list(out.tokens)
        for _ in range(int(rng.integers(1, 21))):
            pos = int(rng.integers(0, len(tokens) + 1))
            tokens.insert(pos, common_surfaces[int(rng.integers(len(common_surfaces)))])
        if decode(tokens, key) != reference or decode_payload(tokens, key) != payload.data:
            failures += 1
    _report("9 common-token transparency", failures == 0, f"{100 - failures}/100")
