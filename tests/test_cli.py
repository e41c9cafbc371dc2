import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import int_respellings
import stegolm
from stegolm import codec
from stegolm.cli import build_parser, main
from stegolm.codec import GenPolicy, Payload
from stegolm.corpus import CorpusConfig, Vocabulary, read_token_file
from stegolm.keying import load_key
from stegolm.lm import LstmHyperparams, LstmModel, NgramConfig, load_model, save_model
from stegolm.lm import lstm
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


def test_decode_text_keeps_case_with_no_lowercase_text(tmp_path, capsys):
    # a vocabulary built with --no-lowercase holds capitalised tokens only, so
    # re-tokenizing the rendered text must keep its case to find them
    (tmp_path / "corpus.txt").write_text("Alpha Beta Gamma Delta .\nDelta Gamma Beta Alpha !\n"
                                         "Beta Delta Alpha Gamma ?\n" * 40, encoding="utf-8")
    (tmp_path / "p.bin").write_bytes(b"Case")
    for argv in (
        "prep --in {d}/corpus.txt --out-tokens {d}/tokens.txt --out-vocab {d}/vocab.tsv"
        " --no-lowercase",
        "train --backend ngram --tokens {d}/tokens.txt --vocab {d}/vocab.tsv --out {d}/m.slm",
        "keygen --vocab {d}/vocab.tsv --block-bits 1 --seed 5 --out {d}/key.sk",
        "encode --vocab {d}/vocab.tsv --key {d}/key.sk --model {d}/m.slm --in {d}/p.bin"
        " --out {d}/s.txt",
    ):
        assert main(argv.format(d=tmp_path).split()) == 0
    decode = f"decode --vocab {tmp_path}/vocab.tsv --key {tmp_path}/key.sk --text {tmp_path}/s.txt"
    assert main([*decode.split(), "--no-lowercase-text", "--out", str(tmp_path / "r.bin")]) == 0
    assert (tmp_path / "r.bin").read_bytes() == b"Case"
    capsys.readouterr()
    assert main([*decode.split(), "--lowercase-text"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: DecodeError: token not in key"), lines


@pytest.mark.parametrize("flag, common", [
    ([], "common:\tthe\t."),
    (["--common-eos"], "common:\t<eos>\tthe\t."),  # ascending index order
], ids=["no-flag", "common-eos"])
def test_keygen_common_eos_puts_eos_on_the_common_line(workspace, tmp_path, flag, common):
    assert main(["keygen", "--vocab", str(workspace / "vocab.tsv"), "--block-bits", "1",
                 "--common", "2", "--seed", "1", "--out", str(tmp_path / "key.sk"), *flag]) == 0
    lines = (tmp_path / "key.sk").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("common:")] == [common]


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


def test_roundtrip_names_each_mismatched_trial(monkeypatch, capsys):
    monkeypatch.setattr(codec, "decode_payload", lambda tokens, key: b"wrong")
    assert main(["roundtrip", "--trials", "2", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert "0/2 successes" in out
    assert err.splitlines() == ["trial 0: MISMATCH", "trial 1: MISMATCH"]


def test_lstm_training_via_cli(workspace, tmp_path):
    assert main([
        "train", "--backend", "lstm", "--tokens", str(workspace / "tokens.txt"),
        "--vocab", str(workspace / "vocab.tsv"), "--out", str(tmp_path / "lstm.slm"),
        "--units", "12", "--embed-dim", "8", "--unroll", "8", "--batch-size", "4",
        "--epochs", "1", "--seed", "3",
    ]) == 0
    data = (tmp_path / "lstm.slm").read_bytes()
    assert data.startswith(b"STEGOLM v1\nbackend: lstm\n")


@pytest.mark.parametrize("clip", ["0", "-0", "2.5"])
def test_clip_norm_flag(workspace, tmp_path, clip):
    # the one remap the flag makes: exactly 0 means no clipping (a negative
    # value is refused in test_bad_input_prints_one_error_line)
    assert main(["train", "--backend", "lstm", "--tokens", str(workspace / "tokens.txt"),
                 "--vocab", str(workspace / "vocab.tsv"), "--out", str(tmp_path / "lstm.slm"),
                 "--units", "4", "--epochs", "1", f"--clip-norm={clip}"]) == 0
    vocab = Vocabulary.load(workspace / "vocab.tsv")
    model = load_model(tmp_path / "lstm.slm", vocab)
    assert model.hp.clip_norm == (float(clip) or None)


@pytest.mark.parametrize("size", ["--embed-dim 4611686018427387904", "--units 3000000",
                                  "--layers 100000"])
def test_lstm_size_past_memory_refused_before_allocating(workspace, tmp_path, capsys,
                                                           monkeypatch, size):
    def allocate(*args):
        raise AssertionError("init_params ran")

    monkeypatch.setattr(lstm, "init_params", allocate)
    monkeypatch.setattr(lstm, "MEMORY_CEILING", 2**34)  # 16 GiB, not this machine's memory
    capsys.readouterr()
    assert main(["train", "--backend", "lstm", "--tokens", str(workspace / "tokens.txt"),
                 "--vocab", str(workspace / "vocab.tsv"), "--out", str(tmp_path / "m.slm"),
                 *size.split()]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: TrainingError: "), lines
    assert not (tmp_path / "m.slm").exists()


def test_train_ngram_defaults_are_ngram_config_defaults(workspace, tmp_path):
    assert main(["train", "--backend", "ngram", "--tokens", str(workspace / "tokens.txt"),
                 "--vocab", str(workspace / "vocab.tsv"), "--out", str(tmp_path / "m.slm")]) == 0
    model = load_model(tmp_path / "m.slm", Vocabulary.load(workspace / "vocab.tsv"))
    assert model.config == NgramConfig()


def test_encode_decode_defaults_are_payload_defaults(workspace, tmp_path):
    # without --framing, encode and decode pair as codec.encode(Payload(data))
    # and codec.decode_payload do
    data = b"same framing"
    (tmp_path / "p.bin").write_bytes(data)
    vocab_key = ["--vocab", str(workspace / "vocab.tsv"), "--key", str(workspace / "key.sk")]
    assert main(["encode", *vocab_key, "--model", str(workspace / "model.slm"),
                 "--in", str(tmp_path / "p.bin"), "--out", str(tmp_path / "s.txt"),
                 "--emit-tokens", str(tmp_path / "s.tok"), "--seed", "4"]) == 0
    assert main(["decode", *vocab_key, "--tokens", str(tmp_path / "s.tok"),
                 "--out", str(tmp_path / "r.bin")]) == 0
    assert (tmp_path / "r.bin").read_bytes() == data
    vocab = Vocabulary.load(workspace / "vocab.tsv")
    key = load_key(workspace / "key.sk", vocab)
    model = load_model(workspace / "model.slm", vocab)
    tokens = codec.encode(Payload(data), key, model, GenPolicy(seed=4)).tokens
    assert read_token_file(tmp_path / "s.tok") == list(tokens)
    assert codec.decode_payload(tokens, key) == data


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


def test_stdout_gets_the_out_file_bytes_under_an_ascii_locale(tmp_path):
    files = {name: str(tmp_path / name) for name in ("corpus", "tokens", "vocab", "model",
                                                     "key", "payload", "out")}
    Path(files["corpus"]).write_text("le café est bon .\nun café noir .\n" * 40,
                                     encoding="utf-8")
    Path(files["payload"]).write_bytes(b"hi")
    encode = "encode --vocab {vocab} --key {key} --model {model} --in {payload}"
    for argv in ("prep --in {corpus} --out-tokens {tokens} --out-vocab {vocab}",
                 "train --backend ngram --order 2 --tokens {tokens} --vocab {vocab} --out {model}",
                 "keygen --vocab {vocab} --block-bits 1 --seed 1 --out {key}",
                 encode + " --out {out}"):
        assert main(argv.format(**files).split()) == 0
    child = subprocess.run(
        [sys.executable, "-m", "stegolm.cli", *encode.format(**files).split()],
        capture_output=True, env={**CHILD_ENV, "PYTHONIOENCODING": "ascii"},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == Path(files["out"]).read_bytes()
    assert "café".encode() in child.stdout


def test_text_only_stdout_gets_the_text(workspace, tmp_path):
    # in-process callers may swap sys.stdout for a text stream that has no .buffer
    (tmp_path / "p.bin").write_bytes(b"in-process bytes")
    vocab_key = ["--vocab", str(workspace / "vocab.tsv"), "--key", str(workspace / "key.sk")]
    encode = ["encode", *vocab_key, "--model", str(workspace / "model.slm"),
              "--in", str(tmp_path / "p.bin"), "--seed", "4"]
    assert main([*encode, "--out", str(tmp_path / "s.txt"),
                 "--emit-tokens", str(tmp_path / "s.tok")]) == 0
    for argv, want in ((encode, (tmp_path / "s.txt").read_text(encoding="utf-8")),
                       (["decode", *vocab_key, "--tokens", str(tmp_path / "s.tok")],
                        "in-process bytes")):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == want


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def field_names(config, *leave_out: str) -> list[str]:
    return [f.name for f in dataclasses.fields(config) if f.name not in leave_out]


@pytest.mark.parametrize("command, names", [
    ("prep", field_names(CorpusConfig)),
    ("train", field_names(NgramConfig)),
    ("train", field_names(LstmHyperparams)),
    ("encode", field_names(GenPolicy)),
    ("encode", field_names(Payload, "data")),
    ("decode", ["lowercase"]),
], ids=["prep-CorpusConfig", "train-NgramConfig", "train-LstmHyperparams",
        "encode-GenPolicy", "encode-Payload", "decode-CorpusConfig.lowercase"])
def test_every_config_field_is_the_dest_of_one_flag(command, names):
    # each command builds its config objects from the flags by field name, so a
    # field with no flag, or a flag with another dest, would be ignored without
    # a word; a flag default would override the dataclass (or preset) default
    actions = SUBCOMMANDS[command]._actions
    dests = [a.dest for a in actions]
    assert {name: dests.count(name) for name in names} == dict.fromkeys(names, 1)
    assert {a.dest: a.default for a in actions if a.dest in names} == dict.fromkeys(names)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_subcommand_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: stegolm {command} ")


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


def repeated_successor(doc):
    """Lists the first bigram context's first successor a second time."""
    successors = doc["tables"][1][0][1]
    successors.append([successors[0][0], 1])


def repeated_context(doc):
    """Lists the first bigram context a second time, with another successor."""
    context, successors = doc["tables"][1][0]
    doc["tables"][1].append([context, [[successors[0][0] + 1, 1]]])


def respelt_context(doc):
    """Writes the first bigram context with a plus sign: it still parses as an int."""
    doc["tables"][1][0][0] = "+" + doc["tables"][1][0][0]


def emptied_context(doc):
    """Leaves the first bigram context with no successors."""
    doc["tables"][1][0][1] = []


#: A JSON value nested more deeply than Python's recursion limit lets json.loads read.
NESTED = b"[" * 100_000 + b"]" * 100_000


def swapped_header_lines(data: bytes) -> bytes:
    """A model file with its ``backend:`` and ``vocab_hash:`` lines swapped."""
    head = data.split(b"\n", 5)
    head[1], head[2] = head[2], head[1]
    return b"\n".join(head)


def lstm_header(old: bytes, new: bytes):
    """Damage for an LSTM model: one edit to its ``config:`` header line."""
    return lambda data: data.replace(old, new, 1)


def lstm_arrays(change):
    """Damage for an LSTM model: ``change`` edits its parameter arrays in place."""
    def edit(payload: bytes) -> bytes:
        with np.load(io.BytesIO(payload)) as stash:
            params = dict(stash)
        change(params)
        buf = io.BytesIO()
        np.savez(buf, **params)
        return buf.getvalue()
    return model_payload(edit)


def nan_output(params):
    params["wo"][0, 0] = np.nan


def overflowing_logit(params):
    params["wo"][:, 1] = 1e308


def overflowing_gates(params):
    params["embed"][:] = 1e10
    params["wx0"][:] = 1e308


def payload_bytes_respelt(which: int):
    """Damage for a model file: its ``payload_bytes`` value as the ``which``-th of
    ``int_respellings``, the same number spelt otherwise."""
    def damage(data: bytes) -> bytes:
        head = data.split(b"\n", 5)
        number = head[4].partition(b": ")[2].decode()
        head[4] = b"payload_bytes: " + int_respellings(number)[which].encode()
        return b"\n".join(head)
    return damage


def swapped_bin_tokens(data: bytes) -> bytes:
    """A key file whose first bin line is out of ascending vocabulary order."""
    lines = data.split(b"\n")
    prefix, first, second, *rest = lines[5].split(b"\t")
    lines[5] = b"\t".join([prefix, second, first, *rest])
    return b"\n".join(lines)


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
    ("roundtrip --seed -1", None, "ConfigError"),
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
    (ENCODE.replace("{model}", "{lstm}"), ("lstm", lstm_arrays(nan_output)),
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
    ("eval --capacity --block-bits 1" + "0" * 400, None, "ConfigError"),
    (TRAIN + " lstm --units 4 --epochs 1 --lr=1e300", None, "TrainingError"),
    (ENCODE.replace("{model}", "{lstm}"), ("lstm", lstm_arrays(overflowing_logit)),
     "ModelFormatError"),
    ("eval --vocab {vocab} --model {lstm} --tokens {tokens} --ppl",
     ("lstm", lstm_arrays(overflowing_gates)), "ModelFormatError"),
    ("keygen --vocab {vocab} --block-bits 2 --seed -1 --out {out}", None, "KeyGenError"),
    (ENCODE, ("key", swapped_bin_tokens), "KeyFormatError"),
    (ENCODE, ("model", ngram_doc(repeated_successor)), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(repeated_context)), "ModelFormatError"),
    (ENCODE.replace("{model}", "{lstm}"),
     ("lstm", lstm_header(b'"units": 4,', b'"units": 4.0,')), "ModelFormatError"),
    (ENCODE.replace("{model}", "{lstm}"),
     ("lstm", lstm_header(b'"layers": 1,', b'"layers": true,')), "ModelFormatError"),
    (ENCODE, ("model", lambda data: data + b"GARBAGE"), "ModelFormatError"),
    ("eval --vocab {vocab} --tokens {tokens} --ppl", None, "ConfigError"),
    ("eval --vocab {vocab} --model {model} --tokens {tokens} --stego-ppl", None, "ConfigError"),
    ("eval --vocab {vocab} --key {key} --capacity-empirical", None, "ConfigError"),
    ("eval --capacity", None, "ConfigError"),
    ("eval", None, "ConfigError"),
    (ENCODE, ("model", ngram_doc(respelt_context)), "ModelFormatError"),
    (ENCODE, ("model", ngram_doc(emptied_context)), "ModelFormatError"),
    (ENCODE, ("key", lambda data: data.replace(b"block_bits: 2", b"block_bits: +2")),
     "KeyFormatError"),
    (ENCODE, ("key", lambda data: data.replace(b"seed: 7", b"seed: 0007")), "KeyFormatError"),
    (ENCODE, ("model", lambda data: data.replace(b"payload_bytes: ", b"payload_bytes: +")),
     "ModelFormatError"),
    (ENCODE, ("vocab", lambda data: data.replace(b"\n", b"\n\n", 1)), "VocabFormatError"),
    (ENCODE, ("vocab", lambda data: data.replace(b"\t", b"\t+", 1)), "VocabFormatError"),
    (ENCODE, ("vocab", lambda data: data.replace(b"\t", b" b\t", 1)), "VocabFormatError"),
    (ENCODE, ("model", swapped_header_lines), "ModelFormatError"),
    (ENCODE, ("model", lambda data: data.replace(b"config: {}", b'config: {"x": 1}', 1)),
     "ModelFormatError"),
    (ENCODE, ("model", lambda data: data.replace(b"config: {}", b"config: " + NESTED, 1)),
     "ModelFormatError"),
    (ENCODE, ("model", model_payload(lambda payload: NESTED)), "ModelFormatError"),
    (ENCODE, ("model", payload_bytes_respelt(0)), "ModelFormatError"),
    (ENCODE, ("model", payload_bytes_respelt(1)), "ModelFormatError"),
    (ENCODE, ("model", payload_bytes_respelt(2)), "ModelFormatError"),
    (ENCODE, ("model", payload_bytes_respelt(3)), "ModelFormatError"),
    (ENCODE, ("key", lambda data: data.replace(b"bin 00:\t", b"bin 00:", 1)), "KeyFormatError"),
    (ENCODE.replace("{model}", "{lstm}"),
     ("lstm", lstm_header(b'"layers": 1,', b'"layers": 100000,')), "ModelFormatError"),
    (TRAIN + " lstm --clip-norm -1", None, "ConfigError"),
    (TRAIN + " lstm --clip-norm=-inf", None, "ConfigError"),
    ("eval --capacity --block-bits 16 --mean-length 1e308", None, "ConfigError"),
], ids=["temp-0", "max-common-run-0", "order-0", "units-0", "max-vocab-1", "block-bits-neg",
        "vocab-not-utf8", "key-not-utf8", "model-not-utf8", "encode-seed-neg", "train-seed-neg",
        "max-bytes-0", "trials-neg", "roundtrip-seed-neg", "decode-tokens-not-utf8",
        "decode-text-not-utf8",
        "prep-in-not-utf8", "train-tokens-not-utf8", "eval-tokens-not-utf8",
        "ngram-index-high", "ngram-index-neg", "ngram-order-float", "ngram-count-0",
        "lstm-nan", "key-block-bits-huge", "train-epochs-0",
        "temp-nan", "add-k-nan", "add-k-inf", "lr-nan", "lr-decay-nan", "clip-norm-nan",
        "mean-length-nan", "mean-length-neg", "ngram-count-huge", "ngram-index-float",
        "ngram-index-bool", "ngram-count-str", "ngram-add-k-nan", "capacity-block-bits-huge",
        "lstm-lr-diverges", "lstm-logit-overflow", "lstm-gate-overflow", "keygen-seed-neg",
        "key-bin-unsorted", "ngram-successor-repeated", "ngram-context-repeated",
        "lstm-units-float", "lstm-layers-bool", "model-trailing-bytes", "eval-ppl-no-model",
        "eval-stego-ppl-no-key", "eval-capacity-empirical-no-tokens",
        "eval-capacity-no-block-bits", "eval-nothing", "ngram-context-spelling",
        "ngram-successors-empty", "key-block-bits-plus", "key-seed-zeros",
        "model-payload-bytes-plus", "vocab-blank-line", "vocab-count-plus",
        "vocab-token-space", "model-header-swapped", "ngram-config-extra",
        "model-config-nested", "ngram-payload-nested", "model-payload-bytes-arabic-indic",
        "model-payload-bytes-fullwidth", "model-payload-bytes-nbsp",
        "model-payload-bytes-grouped", "key-bin-tab-lost", "lstm-layers-huge",
        "clip-norm-neg", "clip-norm-neg-inf", "bits-per-message-overflows"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
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


def test_train_order_past_the_context_key_limit(tmp_path, capsys):
    # prep gives 5 tokens (a, b, c, <eos>, <unk>); a context must fit one int64
    # key, so order 28 trains (5**27 < 2**63) and order 29 is refused
    (tmp_path / "corpus.txt").write_text("a b c\nc b a\n" * 20, encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in ("corpus.txt", "tokens.txt", "vocab.tsv")}
    assert main(["prep", "--in", paths["corpus.txt"], "--out-tokens", paths["tokens.txt"],
                 "--out-vocab", paths["vocab.tsv"]]) == 0
    assert len(Vocabulary.load(paths["vocab.tsv"])) == 5
    train = (f"train --tokens {paths['tokens.txt']} --vocab {paths['vocab.tsv']} "
             f"--backend ngram --out {tmp_path / 'model.slm'} --order").split()
    assert main([*train, "28"]) == 0
    capsys.readouterr()
    assert main([*train, "29"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError: "), lines
    assert "2**63" in lines[0]
