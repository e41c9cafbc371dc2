import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stegolm
from stegolm.cli import main
from stegolm.corpus import Vocabulary
from stegolm.lm import LstmHyperparams, LstmModel, save_model
from stegolm.lm.lstm import init_params

# Child interpreters import the same stegolm as this process, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(stegolm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

CORPUS = (
    "the cat sat on the mat .\n"
    "a dog ran in the park .\n"
    "the dog saw a cat today .\n"
    "@sam look http://t.co/abc123 !\n"
) * 60


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    (root / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    assert main([
        "prep", "--in", str(root / "corpus.txt"),
        "--out-tokens", str(root / "tokens.txt"),
        "--out-vocab", str(root / "vocab.tsv"),
    ]) == 0
    assert main([
        "train", "--backend", "ngram", "--tokens", str(root / "tokens.txt"),
        "--vocab", str(root / "vocab.tsv"), "--out", str(root / "model.slm"),
        "--order", "2", "--add-k", "0.1",
    ]) == 0
    assert main([
        "keygen", "--vocab", str(root / "vocab.tsv"), "--block-bits", "2",
        "--common", "3", "--seed", "7", "--out", str(root / "key.sk"),
    ]) == 0
    return root


def test_prep_outputs(workspace):
    vocab_text = (workspace / "vocab.tsv").read_text()
    assert vocab_text.startswith("STEGOVOCAB v1\n")
    tokens = (workspace / "tokens.txt").read_text().splitlines()
    assert "<user>" in tokens and "<url>" in tokens and "<eos>" in tokens


def test_key_file_layout(workspace):
    lines = (workspace / "key.sk").read_text().splitlines()
    assert lines[0] == "STEGOKEY v1"
    assert lines[1] == "block_bits: 2"


def test_encode_decode_roundtrip(workspace, tmp_path):
    payload = bytes(range(64))
    (tmp_path / "payload.bin").write_bytes(payload)
    assert main([
        "encode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--model", str(workspace / "model.slm"),
        "--in", str(tmp_path / "payload.bin"), "--out", str(tmp_path / "steg.txt"),
        "--emit-tokens", str(tmp_path / "steg.tok"),
        "--mode", "sample", "--seed", "3", "--framing", "length",
    ]) == 0
    assert main([
        "decode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--tokens", str(tmp_path / "steg.tok"),
        "--framing", "length", "--out", str(tmp_path / "recovered.bin"),
    ]) == 0
    assert (tmp_path / "recovered.bin").read_bytes() == payload
    rendered = (tmp_path / "steg.txt").read_text()
    assert rendered.strip()


def test_decode_needs_no_model_flag(workspace):
    # the decode subcommand has no --model flag at all
    with pytest.raises(SystemExit):
        main([
            "decode", "--vocab", str(workspace / "vocab.tsv"),
            "--key", str(workspace / "key.sk"), "--tokens", "x",
            "--model", "whatever",
        ])


def test_encode_is_seed_reproducible(workspace, tmp_path):
    args = [
        "encode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--model", str(workspace / "model.slm"),
        "--mode", "sample", "--seed", "11", "--framing", "length",
    ]
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"reproducible payload")
    for name in ("a", "b"):
        assert main(args + [
            "--in", str(payload),
            "--out", str(tmp_path / f"{name}.txt"),
            "--emit-tokens", str(tmp_path / f"{name}.tok"),
        ]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.tok").read_bytes() == (tmp_path / "b.tok").read_bytes()


def test_raw_framing_emits_bit_string(workspace, tmp_path):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"\xa5")
    assert main([
        "encode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--model", str(workspace / "model.slm"),
        "--in", str(payload), "--out", str(tmp_path / "s.txt"),
        "--emit-tokens", str(tmp_path / "s.tok"), "--framing", "raw",
        "--mode", "greedy",
    ]) == 0
    assert main([
        "decode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--tokens", str(tmp_path / "s.tok"),
        "--framing", "raw", "--out", str(tmp_path / "bits.txt"),
    ]) == 0
    assert (tmp_path / "bits.txt").read_text().strip() == "10100101"


def test_decode_from_rendered_text(workspace, tmp_path):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"ok")
    assert main([
        "encode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--model", str(workspace / "model.slm"),
        "--in", str(payload), "--out", str(tmp_path / "s.txt"),
        "--mode", "sample", "--seed", "2", "--framing", "length",
    ]) == 0
    assert main([
        "decode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--text", str(tmp_path / "s.txt"),
        "--framing", "length", "--out", str(tmp_path / "r.bin"),
    ]) == 0
    assert (tmp_path / "r.bin").read_bytes() == b"ok"


def test_eval_capacity_line(capsys):
    assert main(["eval", "--capacity", "--block-bits", "2"]) == 0
    out = capsys.readouterr().out
    assert "capacity: 2.000 bits/word" in out


def test_eval_reports_and_json(workspace, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert main([
        "eval", "--vocab", str(workspace / "vocab.tsv"),
        "--model", str(workspace / "model.slm"), "--key", str(workspace / "key.sk"),
        "--tokens", str(workspace / "tokens.txt"),
        "--ppl", "--stego-ppl", "--capacity", "--block-bits", "1",
        "--common-fraction", "0.35", "--json", str(json_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "[perplexity]" in out and "[stego_perplexity]" in out
    assert "capacity: 0.650 bits/word" in out
    doc = json.loads(json_path.read_text())
    assert set(doc) == {"perplexity", "stego_perplexity", "capacity"}
    assert doc["stego_perplexity"]["perplexity"] >= doc["perplexity"]["perplexity"]


def test_eval_capacity_empirical(workspace, tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"measure me")
    assert main([
        "encode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--model", str(workspace / "model.slm"),
        "--in", str(payload), "--out", str(tmp_path / "s.txt"),
        "--emit-tokens", str(tmp_path / "s.tok"), "--seed", "4",
    ]) == 0
    assert main([
        "eval", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(workspace / "key.sk"), "--tokens", str(tmp_path / "s.tok"),
        "--capacity-empirical",
    ]) == 0
    assert "carrier_count" in capsys.readouterr().out


def test_mismatched_key_model_fails_with_error_class(workspace, tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text("completely different words here\n" * 50, encoding="utf-8")
    assert main([
        "prep", "--in", str(other), "--out-vocab", str(tmp_path / "other_vocab.tsv"),
        "--out-tokens", str(tmp_path / "other_tokens.txt"),
    ]) == 0
    code = main([
        "keygen", "--vocab", str(tmp_path / "other_vocab.tsv"), "--block-bits", "1",
        "--seed", "1", "--out", str(tmp_path / "other_key.sk"),
    ])
    assert code == 0
    capsys.readouterr()
    code = main([
        "encode", "--vocab", str(workspace / "vocab.tsv"),
        "--key", str(tmp_path / "other_key.sk"),
        "--model", str(workspace / "model.slm"),
        "--in", str(tmp_path / "other.txt"), "--out", "-",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: VocabMismatchError:")


def test_roundtrip_subcommand(capsys):
    assert main(["roundtrip", "--trials", "8", "--seed", "1"]) == 0
    assert "8/8 successes" in capsys.readouterr().out


def test_lstm_training_via_cli(workspace, tmp_path):
    assert main([
        "train", "--backend", "lstm", "--tokens", str(workspace / "tokens.txt"),
        "--vocab", str(workspace / "vocab.tsv"), "--out", str(tmp_path / "lstm.slm"),
        "--units", "12", "--embed-dim", "8", "--unroll", "8", "--batch-size", "4",
        "--epochs", "1", "--seed", "3",
    ]) == 0
    data = (tmp_path / "lstm.slm").read_bytes()
    assert data.startswith(b"STEGOLM v1\nbackend: lstm\n")


def test_stdin_stdout_piping(workspace, tmp_path):
    # module invocation so the test works without the console script on PATH
    encode = subprocess.run(
        [sys.executable, "-m", "stegolm.cli", "encode",
         "--vocab", str(workspace / "vocab.tsv"), "--key", str(workspace / "key.sk"),
         "--model", str(workspace / "model.slm"), "--seed", "5",
         "--emit-tokens", str(tmp_path / "pipe.tok")],
        input=b"piped-bytes", capture_output=True, check=True, env=CHILD_ENV,
    )
    assert encode.stdout.decode().strip()
    decode = subprocess.run(
        [sys.executable, "-m", "stegolm.cli", "decode",
         "--vocab", str(workspace / "vocab.tsv"), "--key", str(workspace / "key.sk"),
         "--tokens", str(tmp_path / "pipe.tok")],
        capture_output=True, check=True, env=CHILD_ENV,
    )
    assert decode.stdout == b"piped-bytes"


ENCODE = "encode --vocab {vocab} --key {key} --model {model} --in {corpus} --out {out}"
TRAIN = "train --tokens {tokens} --vocab {vocab} --out {out} --backend"
DECODE = "decode --vocab {vocab} --key {key}"


def not_utf8(data: bytes) -> bytes:
    """A byte that is never valid UTF-8, early in the file's text header."""
    return data.replace(b"\n", b"\n\xff", 2)


def model_payload(edit):
    """Damage for a model file: ``edit`` rewrites its payload, the header follows."""
    def damage(data: bytes) -> bytes:
        head = data.split(b"\n", 5)  # five header lines, then the payload
        payload = edit(head[5])
        return b"\n".join(head[:4] + [b"payload_bytes: %d" % len(payload), payload])
    return damage


def ngram_doc(change):
    """Damage for an n-gram model: ``change`` edits its decoded JSON payload."""
    def edit(payload: bytes) -> bytes:
        doc = json.loads(payload)
        change(doc)
        return json.dumps(doc).encode()
    return model_payload(edit)


def first_successor(field: int, value):
    """Sets the index (field 0) or count (field 1) of the first bigram successor."""
    def change(doc):
        doc["tables"][1][0][1][0][field] = value
    return change


def nan_in_lstm_output(payload: bytes) -> bytes:
    with np.load(io.BytesIO(payload)) as stash:
        params = dict(stash)
    params["wo"][0, 0] = np.nan
    buf = io.BytesIO()
    np.savez(buf, **params)
    return buf.getvalue()


@pytest.fixture(scope="module")
def lstm_file(workspace):
    """An untrained tiny LSTM over the workspace vocabulary."""
    vocab = Vocabulary.load(workspace / "vocab.tsv")
    hp = LstmHyperparams(units=4, embed_dim=4, unroll_steps=4, batch_size=2)
    save_model(LstmModel(vocab, hp, init_params(len(vocab), hp, 0)), workspace / "lstm.slm")
    return workspace / "lstm.slm"


@pytest.mark.parametrize("argv, damage, error", [
    (ENCODE + " --temp 0", None, "ConfigError"),
    (ENCODE + " --max-common-run 0", None, "ConfigError"),
    (TRAIN + " ngram --order 0", None, "ConfigError"),
    (TRAIN + " lstm --units 0", None, "ConfigError"),
    ("prep --in {corpus} --out-vocab {out} --max-vocab 1", None, "ConfigError"),
    ("eval --capacity --block-bits -1", None, "ConfigError"),
    (ENCODE, ("vocab", not_utf8), "VocabFormatError"),
    (ENCODE, ("key", not_utf8), "KeyFormatError"),
    (ENCODE, ("model", not_utf8), "ModelFormatError"),
    (ENCODE + " --seed -1", None, "ConfigError"),
    (TRAIN + " lstm --seed -1", None, "ConfigError"),
    ("roundtrip --max-bytes 0", None, "ConfigError"),
    ("roundtrip --trials -1", None, "ConfigError"),
    (DECODE + " --tokens {tokens}", ("tokens", not_utf8), "CorpusError"),
    (DECODE + " --text {corpus}", ("corpus", not_utf8), "CorpusError"),
    ("prep --in {corpus} --out-vocab {out}", ("corpus", not_utf8), "CorpusError"),
    (TRAIN + " ngram", ("tokens", not_utf8), "CorpusError"),
    ("eval --vocab {vocab} --model {model} --tokens {tokens} --ppl", ("tokens", not_utf8),
     "CorpusError"),
    (ENCODE, ("model", ngram_doc(first_successor(0, 99999))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(first_successor(0, -1))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(lambda doc: doc.update(order=2.0))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(first_successor(1, 0))), "ModelFormatError"),
    (ENCODE.replace("{model}", "{lstm}"), ("lstm", model_payload(nan_in_lstm_output)),
     "ModelFormatError"),
    (ENCODE, ("key", lambda data: data.replace(b"block_bits: 2", b"block_bits: 20000")),
     "KeyFormatError"),
    (TRAIN + " lstm --epochs 0", None, "ConfigError"),
    (ENCODE + " --temp nan", None, "ConfigError"),
    (TRAIN + " ngram --add-k nan", None, "ConfigError"),
    (TRAIN + " ngram --add-k inf", None, "ConfigError"),
    (TRAIN + " lstm --lr nan", None, "ConfigError"),
    (TRAIN + " lstm --lr-decay nan", None, "ConfigError"),
    (TRAIN + " lstm --clip-norm nan", None, "ConfigError"),
    ("eval --capacity --block-bits 2 --mean-length nan", None, "ConfigError"),
    ("eval --capacity --block-bits 2 --mean-length -1", None, "ConfigError"),
    (ENCODE, ("model", ngram_doc(first_successor(1, 10**400))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(first_successor(0, 2.7))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(first_successor(0, True))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(first_successor(1, "3"))), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(lambda doc: doc.update(add_k=float("nan")))),
     "ModelFormatError"),
], ids=["temp-0", "max-common-run-0", "order-0", "units-0", "max-vocab-1", "block-bits-neg",
        "vocab-not-utf8", "key-not-utf8", "model-not-utf8", "encode-seed-neg", "train-seed-neg",
        "max-bytes-0", "trials-neg", "decode-tokens-not-utf8", "decode-text-not-utf8",
        "prep-in-not-utf8", "train-tokens-not-utf8", "eval-tokens-not-utf8",
        "ngram-index-high", "ngram-index-neg", "ngram-order-float", "ngram-count-0",
        "lstm-nan", "key-block-bits-huge", "train-epochs-0",
        "temp-nan", "add-k-nan", "add-k-inf", "lr-nan", "lr-decay-nan", "clip-norm-nan",
        "mean-length-nan", "mean-length-neg", "ngram-count-huge", "ngram-index-float",
        "ngram-index-bool", "ngram-count-str", "ngram-add-k-nan"])
def test_bad_input_prints_one_error_line(workspace, lstm_file, tmp_path, capsys,
                                         argv, damage, error):
    files = {"vocab": "vocab.tsv", "key": "key.sk", "model": "model.slm",
             "tokens": "tokens.txt", "corpus": "corpus.txt", "lstm": lstm_file.name}
    paths = {name: str(workspace / f) for name, f in files.items()}
    paths["out"] = str(tmp_path / "out")
    if damage:
        name, edit = damage
        paths[name] = str(tmp_path / files[name])
        Path(paths[name]).write_bytes(edit((workspace / files[name]).read_bytes()))
    capsys.readouterr()
    assert main(argv.format(**paths).split()) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}: "), lines
