"""Golden outputs: seeded encodes, their decoded bits, key bytes, model bytes,
the desk-trigram stego perplexity and the CLI's rendered stegotext.

Any change to which token a seed selects, to the bits a token decodes to, to
the key and model wire formats, to LSTM training, to the stego scoring or to
rendering fails here. The LSTM digests also depend on the platform's floating-point
summation order (BLAS, SIMD exp): they were recorded on x86-64 with numpy
2.4.6 and its bundled OpenBLAS, and another platform may need them
re-recorded from an unchanged commit.
"""

import hashlib
import math

import pytest

from stegolm.cli import main
from stegolm.codec import Framing, GenPolicy, Mode, Payload, decode, decode_payload, encode
from stegolm.keying import generate_key, save_key, serialize_key
from stegolm.lm.lstm import PRESETS, LstmHyperparams, train_lstm
from stegolm.lm.store import save_model, serialize_model
from stegolm.metrics import stego_perplexity

# (block_bits, common, mode, temperature, key_seed, policy_seed) -> the SHA-256
# of the key file, of the newline-joined tokens and of the RAW decoded bits.
GOLDEN = {
    (1, 0, "greedy", 1.0, 11, 0): (
        "44d3b3db9560cd9fec1da422b1ebce579c10e73e461f135f2aaa5afb997276c3",
        "d43900a81392f4f9ba408116fdb4e9777f03a31639536ec966990f510e290c5d",
        "6a00fe9031b41903326937efd133d5e96023c95ae03174babb489730fb1ecfd0",
    ),
    (2, 10, "greedy", 1.0, 12, 0): (
        "d1c0e00296561e0b152a3ba11d40317afb236a7ca63ebe8fb924eeaa4f1480dc",
        "8d0f2320f977a81f8736c65e06b31b2db2fd2421323be087e50045508245a058",
        "63089c21dd932886fedb1ee47274272a394d25038ef56cb715c91acd01ffd7cd",
    ),
    (3, 0, "sample", 1.0, 13, 5): (
        "dde913ffe6577544e30d6120880851db8c7a0d539142ce23b2e1456ebe6e949b",
        "eef65496810be2c4e033bd7b169113c4f7c214c494f812fd0964eea28d529535",
        "c4f8965c52ac5026f757e6522c2178fe617c8bdfdb2fb6ac5d3bb4fe22eb3833",
    ),
    (4, 10, "sample", 1.0, 14, 6): (
        "e581a13511452679c89873d20f50d851cf027eca890f51b1cdf380768e40b3c6",
        "67b9b68940d669bb90a2a2418a7d28e7934db926719dc8bd803f0c81fe1d5031",
        "3acd10d5520c983c57455a8a3d651e86f04a42fbfe083676c537834127944266",
    ),
    (2, 0, "sample", 0.7, 15, 7): (
        "facbef0f001adcd8e3597ad8acaa7a1c18d8e01b5769094bb7d2ac4900e28117",
        "10930777fb954e9e4ba7428a518f60b69b8944538f57da993bef53b7647aa279",
        "9562436f529d6ab4f6da9b6d2d7dc723de40ec23b5bef2ac2e80ed6f634dc649",
    ),
    (3, 10, "sample", 1.5, 16, 8): (
        "daa8bb3e8805c3e7119f464738a668e05a0a8ee8c687c9854802fd97369f5be9",
        "2fd26ae38bef26fd39ca071780b7eca8b6c8ec144e4c0a8539bf5e0b40e00e17",
        "6eca90aaa8ac80de9328baad7652ccd73bc886aa9ace7946cc1fd520f62ae5f1",
    ),
}

DESK_TRIGRAM_SHA = "e202f4d054c4b75dd19a06fa52e15530e712bf404134aa55d932bd8ac7c36d43"

# A two-layer LSTM with dropout, 2 epochs on the first 4000 desk tokens, seed 5;
# then one SAMPLE encode with it (key: block_bits 2, common 10 plus <eos>).
TINY_LSTM = LstmHyperparams(layers=2, units=16, embed_dim=8, unroll_steps=8, batch_size=8,
                            dropout=0.1)
TINY_LSTM_SHA = "76d2dd97c2f25877e4c52a1c155176a7d998bb1e9c03ae33cbf88c9fc605f6d8"
TINY_LSTM_TOKENS_SHA = "12a7af1daaeb35a3811bf35d9627602a2503cc0c61d33912df643cfdf238c090"

# The desk preset the bench trains (1 layer, 64 units, clip_norm 0.25, no
# dropout), 1 epoch on the first 3000 desk tokens, seed 3.
DESK_LSTM_SHA = "bcd0a293c65d4b6c08353fb644053c05f83c4257c3fad98d7425835c55031211"

# (block_bits, common, <eos> common) of a seed-7 key -> mean NLL of the desk
# trigram's stego perplexity over the held-out 10 % of the desk corpus.
DESK_STEGO_NLL = {
    (2, 10, False): 4.039433345627213,
    (3, 10, True): 3.761585271058932,
}


# ``stegolm encode --capitalize --seed 39`` of b"render golden" on the desk
# trigram under a seed-7 key (block_bits 2, common 10): the SHA-256 of stdout
# and of the --emit-tokens file. The text holds <user> and <url> mocks and
# punctuation, so any change to rendering or to the tokens fails here.
CLI_RENDER_SHA = (
    "3251ed42e3e1a2ed63c8d171311bfb2013524a83149d36654dbf98eb33110f5f",
    "27958b51747a1164bbc2b763063a88f517e8ba9b07f92ff86ada6dc1c4b07619",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(case, model, vocab):
    """(key, tokens, bits) digests of one seeded LENGTH-framed encode."""
    block_bits, common, mode, temperature, key_seed, policy_seed = case
    key = generate_key(vocab, block_bits, common, key_seed)
    payload = hashlib.sha256(repr(case).encode()).digest()[:12]
    policy = GenPolicy(mode=Mode(mode), temperature=temperature, seed=policy_seed)
    stegotext = encode(Payload(payload, Framing.LENGTH_PREFIXED), key, model, policy)
    assert decode_payload(stegotext.tokens, key) == payload
    return (
        _sha(serialize_key(key)),
        _sha("\n".join(stegotext.tokens).encode("utf-8")),
        _sha(decode(stegotext.tokens, key).encode("ascii")),
    )


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_seeded_encode_matches_golden(case, desk_trigram, desk_vocab):
    assert case_digests(case, desk_trigram, desk_vocab) == GOLDEN[case]


def test_desk_trigram_model_bytes_match_golden(desk_trigram):
    assert _sha(serialize_model(desk_trigram)) == DESK_TRIGRAM_SHA


def test_tiny_lstm_model_and_encode_match_golden(desk_tokens, desk_vocab):
    model = train_lstm(desk_tokens[:4000], desk_vocab, TINY_LSTM, epochs=2, seed=5)
    assert _sha(serialize_model(model)) == TINY_LSTM_SHA
    key = generate_key(desk_vocab, 2, 10, 21, include_eos_common=True)
    payload = b"lstm golden payload"
    policy = GenPolicy(mode=Mode.SAMPLE, seed=9)
    stegotext = encode(Payload(payload, Framing.LENGTH_PREFIXED), key, model, policy)
    assert decode_payload(stegotext.tokens, key) == payload
    assert _sha("\n".join(stegotext.tokens).encode("utf-8")) == TINY_LSTM_TOKENS_SHA


def test_desk_preset_lstm_model_bytes_match_golden(desk_tokens, desk_vocab):
    model = train_lstm(desk_tokens[:3000], desk_vocab, PRESETS["desk"], epochs=1, seed=3)
    assert _sha(serialize_model(model)) == DESK_LSTM_SHA


@pytest.mark.parametrize("case", sorted(DESK_STEGO_NLL), ids=lambda c: "-".join(map(str, c)))
def test_desk_trigram_stego_nll_matches_golden(case, desk_trigram, desk_tokens, desk_vocab):
    block_bits, common, eos_common = case
    key = generate_key(desk_vocab, block_bits, common, 7, include_eos_common=eos_common)
    held_out = desk_tokens[int(len(desk_tokens) * 0.9):]
    report = stego_perplexity(desk_trigram, key, held_out)
    assert math.isclose(report.mean_nll, DESK_STEGO_NLL[case], rel_tol=1e-12, abs_tol=0)


def test_cli_capitalized_render_matches_golden(desk_trigram, desk_vocab, tmp_path,
                                               capsysbinary):
    desk_vocab.save(tmp_path / "vocab.tsv")
    save_key(generate_key(desk_vocab, 2, 10, 7), tmp_path / "key.sk")
    save_model(desk_trigram, tmp_path / "model.slm")
    (tmp_path / "payload.bin").write_bytes(b"render golden")
    capsysbinary.readouterr()
    assert main(["encode", "--vocab", str(tmp_path / "vocab.tsv"),
                 "--key", str(tmp_path / "key.sk"), "--model", str(tmp_path / "model.slm"),
                 "--in", str(tmp_path / "payload.bin"), "--seed", "39", "--capitalize",
                 "--emit-tokens", str(tmp_path / "steg.tok")]) == 0
    text = capsysbinary.readouterr().out
    assert (_sha(text), _sha((tmp_path / "steg.tok").read_bytes())) == CLI_RENDER_SHA
