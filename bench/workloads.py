"""The four stegolm benchmark workloads, driven through the public API and CLI.

Every workload is one process with one closed-loop client: the next message
is sent only after the previous one has been encoded. Inputs come from the
workload seed alone (``make_message``); the program under test only ever
sees the generated payloads, policies and key parameters.

A run is a sequence of passes, each one whole pipeline: set-up, then every
message of a fixed, seed-determined set encoded and decoded, then the
held-out tail scored. Between units of work (never inside one) the loops
time the reference kernel of ``hostspeed.py``; each pass's times are divided
by that pass's host factor, so they read as at the reference host speed.
The first pass warms caches and lazy imports and is left out of the timings;
a metric is the median over the other passes.

``run`` returns a ``Result`` whose ``values`` are named like the metrics in
BENCHMARK.json: the end-to-end metrics when ``trace`` is false, the per-layer
metrics (spans from ``tracer.py`` plus counts) when it is true.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import stegolm.cli
from stegolm import codec, corpus, keying, lm, metrics
from stegolm.codec import Framing, GenPolicy, Mode, Payload
from stegolm.corpus import CorpusConfig

from hostspeed import KERNELS, HostSpeed
from tracer import Tracer

WORKLOADS = ("ngram-stream", "lstm-stream", "key-rotation", "cli-pipeline")

CORPUS_CONFIG = CorpusConfig(drop_retweets=True)
HELD_OUT_FRACTION = 0.1
NGRAM_CONFIG = {"order": 3, "add_k": 0.05}
#: (block_bits, common, seed): the README's shared key for both streams.
STREAM_KEY = (2, 10, 7)
LSTM_PRESET = "desk"
LSTM_EPOCHS = 1
LSTM_SEED = 0
#: cli-pipeline stage walls are dominated by process start-up, so a per-token
#: rate would follow the payload size; a fixed size keeps seeds comparable.
CLI_PAYLOAD_BYTES = 64
#: Held-out tokens the CLI's eval stage scores: the head of the tail. Stage
#: walls vary from one subprocess to the next, so a shorter pipeline that
#: fits more times in a run gives steadier medians.
CLI_EVAL_TOKENS = 3000
CLI_STAGES = ("prep", "train", "keygen", "encode", "decode", "eval")
#: The stages that make the artefacts: their walls are cli-pipeline's set-up.
CLI_SETUP_STAGES = ("prep", "train", "keygen")
#: Set-up is sampled with every reference kernel: training's walls are read
#: against the one of its kind (see hostspeed.py), the rest against "interp".
SETUP_KERNELS = tuple(KERNELS)


def train_kernel(workload: str) -> str:
    """The reference kernel that matches a workload's training."""
    return "blas" if workload == "lstm-stream" else "interp"


@dataclass(frozen=True)
class Scale:
    """Run size. The defaults are the benchmark; the self-test shrinks them."""

    #: messages in the fixed set every pass encodes (None: PASS_MESSAGES).
    messages: int | None = None
    #: passes at least; the first one is warm-up.
    min_passes: int = 4
    lstm_train_tokens: int = 20_000
    #: held-out tokens scored by stego perplexity (None: the whole tail).
    eval_tokens: int | None = None
    eval_chunk: int = 1000
    #: tokens a pass decodes at least: each message is decoded this many
    #: tokens' worth of times in a row (``decode_repeats``), timed together,
    #: as one decode is too short to time steadily.
    decode_tokens: int = 150_000
    #: payloads of cli-pipeline; each pass runs one pipeline per payload.
    cli_messages: int = 2
    #: self-test only: swap one carrier token of every message before decoding.
    corrupt: bool = False


@dataclass(frozen=True)
class Message:
    payload: bytes
    policy: GenPolicy
    key_params: tuple[int, int, int]


@dataclass
class Result:
    values: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


#: Messages per stratification group: every group holds the same mix.
STREAM_GROUP = 16
KEY_ROTATION_GROUP = 128
#: Payload sizes of the streams, drawn in STREAM_GROUP bands. The desk LSTM spends
#: most steps on common tokens (about 1 700 tokens and 250 ms for a 136-byte
#: message), so its stream is shorter to fit several passes in a run.
STREAM_PAYLOAD_BYTES = {"ngram-stream": (16, 256), "lstm-stream": (16, 64)}
#: The fixed message set of a pass: whole groups, sized so that a pass takes
#: 2-5 s and a 30-second run holds five timed passes or more.
PASS_MESSAGES = {"ngram-stream": 64, "lstm-stream": 32, "key-rotation": 128}


def _shuffled(seed: int, group: int, salt: int, size: int) -> np.ndarray:
    return np.random.default_rng([seed, group, salt]).permutation(size)


def make_message(workload: str, seed: int, index: int) -> Message:
    """The index-th input of a workload; depends on (seed, index) only.

    Sizes and key settings are drawn stratified: each group of messages
    (``group_size``) takes every cell once, in a seed-shuffled order. Seeds
    then differ in order and content but not in the mix, which keeps the
    seed-to-seed spread of the metrics down.
    """
    rng = np.random.default_rng([seed, index])
    mode = Mode.SAMPLE
    key_params = STREAM_KEY
    group, slot = divmod(index, group_size(workload))
    if workload == "key-rotation":
        # GREEDY and SAMPLE alternate; each mode's 64 messages of a group
        # cover 4 block_bits x 2 common counts x 8 size bands of 4 bytes.
        mode = (Mode.GREEDY, Mode.SAMPLE)[slot % 2]
        cell = int(_shuffled(seed, group, slot % 2, 64)[slot // 2])
        combo, band = divmod(cell, 8)
        size = 1 + 4 * band + int(rng.integers(4))
        key_params = (1 + combo % 4, (0, 10)[combo // 4], int(rng.integers(1 << 31)))
    elif workload == "cli-pipeline":
        size = CLI_PAYLOAD_BYTES
    else:
        lo, hi = STREAM_PAYLOAD_BYTES[workload]
        band = int(_shuffled(seed, group, 0, STREAM_GROUP)[slot])
        width = hi - lo + 1
        size = int(rng.integers(lo + width * band // STREAM_GROUP,
                                lo + width * (band + 1) // STREAM_GROUP))
    policy = GenPolicy(mode=mode, seed=int(rng.integers(1 << 31)))
    return Message(rng.bytes(size), policy, key_params)


def group_size(workload: str) -> int:
    return KEY_ROTATION_GROUP if workload == "key-rotation" else STREAM_GROUP


def pass_messages(workload: str, seed: int, scale: Scale) -> list[Message]:
    """The seed-determined message set every pass of a run encodes."""
    count = scale.messages or PASS_MESSAGES[workload]
    return [make_message(workload, seed, i) for i in range(count)]


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "big"))
        digest.update(chunk)
    return digest.hexdigest()


def _token_bytes(tokens) -> bytes:
    return "\n".join(tokens).encode("utf-8")


def inputs_digest(workload: str, seed: int, count: int) -> str:
    parts = []
    for i in range(count):
        m = make_message(workload, seed, i)
        parts += [m.payload, f"{m.policy.mode.value} {m.policy.seed} {m.key_params}".encode()]
    return _sha(*parts)


def corrupt_tokens(tokens, key: keying.StegoKey) -> list[str]:
    """Move the middle carrier token to the next bin (self-test of the gate)."""
    lookup = key.lookup_array()
    ids = [key.vocab.index_of(t) for t in tokens]
    carriers = [pos for pos, idx in enumerate(ids) if lookup[idx] >= 0]
    pos = carriers[len(carriers) // 2]
    other = key.bins[(int(lookup[ids[pos]]) + 1) % key.num_bins][0]
    out = list(tokens)
    out[pos] = key.vocab.token(other)
    return out


def rate(work, seconds, factor: float = 1.0) -> float:
    """Work done over the wall time it took, summed over the units timed
    (a failed unit is timed as NaN and left out), at the reference host
    speed: the wall divided by the host ``factor`` of the pass."""
    pairs = [(w, s) for w, s in zip(work, seconds) if math.isfinite(s)]
    return factor * sum(w for w, _ in pairs) / sum(s for _, s in pairs)


def timed(passes: list):
    """The passes that count for timing: all but the first, a warm-up."""
    return passes[1:] or passes


def latency_report(seconds: list[float]) -> dict[str, float]:
    """Per-message latency over every encode of the run: median and p95,
    with the count beyond p95.

    Reported, not gated: single samples, so interference from other tenants
    of the host lands in full on these percentiles.
    """
    ms = np.array(seconds) * 1e3
    p95 = float(np.percentile(ms, 95))
    return {"p50": float(np.percentile(ms, 50)), "p95": p95, "samples": len(ms),
            "beyond_p95": int((ms > p95).sum())}


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def split_corpus(src: Path) -> tuple[str, str]:
    """Desk corpus lines: the first 90 % train, the last 10 % are held out."""
    lines = (src / "stegolm" / "data" / "desk_corpus.txt").read_text(encoding="utf-8").splitlines()
    cut = int(len(lines) * (1.0 - HELD_OUT_FRACTION))
    return "\n".join(lines[:cut]) + "\n", "\n".join(lines[cut:]) + "\n"


# ----------------------------------------------------------- tracing helpers


class SelectCounter:
    """Counts constrained_select calls and the size of each allowed set.

    ``install`` wraps ``stegolm.codec.constrained_select``, which
    ``codec.encode`` looks up by name; installed after the tracer, it wraps
    the traced function, and it is uninstalled first.
    """

    def __init__(self):
        self.calls = 0
        self.allowed = 0
        self.unreadable = False
        self._original = None

    def install(self) -> None:
        original = getattr(codec, "constrained_select", None)
        if not callable(original):
            self.unreadable = True
            return

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self._count(args, kwargs)
            return original(*args, **kwargs)

        self._original = original
        codec.constrained_select = counted

    def uninstall(self) -> None:
        if self._original is not None:
            codec.constrained_select = self._original
            self._original = None

    def _count(self, args, kwargs) -> None:
        try:
            key, block = args[2], args[3]
            size = len(key.bins[block.value])
            if kwargs.get("include_common", True):
                banned = kwargs.get("banned", ())
                size += sum(1 for i in key.common if i not in banned)
        except (IndexError, AttributeError, TypeError):
            self.unreadable = True
            return
        self.calls += 1
        self.allowed += size


def _lm_calls(tracer: Tracer, method: str) -> int:
    return tracer.calls(f"lm.ngram.{method}") + tracer.calls(f"lm.lstm.{method}")


def snapshot(tracer: Tracer, select: SelectCounter) -> dict[str, int]:
    return {"select": select.calls, "allowed": select.allowed,
            "next": _lm_calls(tracer, "next_distribution"),
            "advance": _lm_calls(tracer, "advance"),
            "keygen": tracer.calls("keying.generate_key")}


class EncodeCounts:
    """Accumulates per-layer counts over encode calls only (traced runs)."""

    def __init__(self, tracer: Tracer, select: SelectCounter):
        self.tracer, self.select = tracer, select
        self.delta: dict[str, int] = {}

    def measure(self, fn):
        before = snapshot(self.tracer, self.select)
        result = fn()
        after = snapshot(self.tracer, self.select)
        for k in after:
            self.delta[k] = self.delta.get(k, 0) + after[k] - before[k]
        return result


def counts(delta: dict[str, int], tokens: int, carriers: int, messages: int) -> dict[str, float]:
    """Per-layer counts from call totals accumulated over encoding only."""
    return {
        "codec.selects_per_carrier": delta["select"] / max(carriers, 1),
        "codec.allowed_size_mean": delta["allowed"] / max(delta["select"], 1),
        "lm.next_distribution.per_token": delta["next"] / max(tokens, 1),
        "lm.advance.per_token": delta["advance"] / max(tokens, 1),
        "keying.generate_key.per_msg": delta["keygen"] / max(messages, 1),
    }


def layer_values(tracer: Tracer, phase_counts: dict[str, float], overhead_pct: float,
                 cli_walls_ms: dict[str, float] | None = None,
                 startup_ms: float = 0.0) -> dict[str, float]:
    """Every per-layer metric; spans and stages that did not run read 0."""
    walls = cli_walls_ms or {}
    values = tracer.metrics()
    values.update({f"cli.{stage}.wall_ms": walls.get(stage, 0.0) for stage in CLI_STAGES})
    values["cli.startup_ms"] = startup_ms
    values.update(phase_counts)
    values["trace.overhead_pct"] = overhead_pct
    return values


# --------------------------------------------------------------- API workloads


@dataclass
class Artefacts:
    vocab: corpus.Vocabulary
    model: lm.LanguageModel
    key: keying.StegoKey | None
    held_out: list[str]
    train_tokens: int
    train_s: float
    digests: dict[str, str]


def set_up(workload: str, src: Path, work: Path, scale: Scale, host: HostSpeed) -> Artefacts:
    """Corpus -> vocabulary -> trained model -> key, each saved and loaded back;
    the host's speed is sampled between the steps."""
    train_text, held_text = split_corpus(src)
    tokens = corpus.tokenize(train_text, CORPUS_CONFIG)
    vocab = corpus.build_vocab(tokens, CORPUS_CONFIG)
    host.sample(force=True, kinds=SETUP_KERNELS)
    vocab.save(work / "vocab.tsv")
    vocab = corpus.Vocabulary.load(work / "vocab.tsv")
    host.sample(force=True, kinds=SETUP_KERNELS)
    start = perf_counter()
    if workload == "lstm-stream":
        tokens = tokens[:scale.lstm_train_tokens]
        model = lm.train_lstm(tokens, vocab, lm.PRESETS[LSTM_PRESET],
                              epochs=LSTM_EPOCHS, seed=LSTM_SEED)
    else:
        model = lm.train_ngram(tokens, vocab, lm.NgramConfig(**NGRAM_CONFIG))
    train_s = perf_counter() - start
    host.sample(force=True, kinds=SETUP_KERNELS)
    lm.save_model(model, work / "model.slm")
    model = lm.load_model(work / "model.slm", vocab)
    host.sample(force=True, kinds=SETUP_KERNELS)
    files = ["vocab.tsv", "model.slm"]
    key = None
    if workload != "key-rotation":
        keying.save_key(keying.generate_key(vocab, *STREAM_KEY), work / "key.sk")
        key = keying.load_key(work / "key.sk", vocab)
        files.append("key.sk")
    held_out = corpus.tokenize(held_text, CORPUS_CONFIG)[:scale.eval_tokens]
    digests = {name: _sha((work / name).read_bytes()) for name in files}
    return Artefacts(vocab, model, key, held_out, len(tokens), train_s, digests)


@dataclass(frozen=True)
class SetUpTiming:
    digests: dict[str, str]
    train_tokens: int
    train_s: float
    seconds: float


def timed_set_up(workload: str, src: Path, work: Path, scale: Scale,
                 host: HostSpeed) -> tuple[Artefacts, SetUpTiming]:
    """Set-up wall, less the time spent sampling the host inside it."""
    mark = host.mark()
    start = perf_counter()
    arte = set_up(workload, src, work, scale, host)
    seconds = perf_counter() - start - host.spent(mark)
    return arte, SetUpTiming(arte.digests, arte.train_tokens, arte.train_s, seconds)


@dataclass
class Sent:
    message: Message
    key: keying.StegoKey | None
    tokens: tuple[str, ...] | None
    n_tokens: int
    carriers: int
    seconds: float
    error: str = ""


def encode_one(arte: Artefacts, message: Message) -> Sent:
    """Sender side of one message; key-rotation derives its key inside the timing."""
    start = perf_counter()
    try:
        key = arte.key
        if key is None:
            key = keying.generate_key(arte.vocab, *message.key_params)
        stegotext = codec.encode(Payload(message.payload, Framing.LENGTH_PREFIXED),
                                 key, arte.model, message.policy)
    except Exception as exc:  # a raising message counts as failed, the loop goes on
        return Sent(message, None, None, 0, 0, perf_counter() - start,
                    f"{type(exc).__name__}: {exc}")
    return Sent(message, key, stegotext.tokens, len(stegotext.tokens),
                stegotext.carrier_count, perf_counter() - start)


def decode_repeats(sent: list[Sent], scale: Scale) -> int:
    """Times each message of a pass is decoded: ``scale.decode_tokens`` in all."""
    return max(1, round(scale.decode_tokens / max(1, sum(s.n_tokens for s in sent))))


def decode_one(sent: Sent, arte: Artefacts, repeats: int,
               scale: Scale) -> tuple[bool, float | None]:
    """Receiver side: key from its serialized bytes, tokens -> payload bytes."""
    if sent.error:
        return False, None
    key = sent.key
    if arte.key is None:
        key = keying.deserialize_key(keying.serialize_key(sent.key), arte.vocab)
    tokens = corrupt_tokens(sent.tokens, key) if scale.corrupt else sent.tokens
    good = True
    start = perf_counter()
    for _ in range(repeats):
        try:
            data = codec.decode_payload(tokens, key)
        except Exception:  # a raising decode is a failed message
            data = None
        good = good and data == sent.message.payload
    return good, perf_counter() - start


def held_out_chunks(workload: str, seed: int, arte: Artefacts, scale: Scale):
    """Held-out chunks with the key each is scored under.

    key-rotation scores chunk j under a fresh key whose (block_bits, common)
    cycles through all 8 settings, with the key seed of message j.
    """
    held = arte.held_out
    out = []
    for j, start in enumerate(range(0, len(held), scale.eval_chunk)):
        key = arte.key
        if key is None:
            key_seed = make_message(workload, seed, j).key_params[2]
            key = keying.generate_key(arte.vocab, 1 + j % 4, (0, 10)[j // 4 % 2], key_seed)
        out.append((held[start:start + scale.eval_chunk], key))
    return out


@dataclass
class Pass:
    """One in-process pipeline over the fixed message set."""

    setup: SetUpTiming
    sent: list[Sent]
    ok: list[bool]
    #: per message; NaN where the message failed.
    decode_s: list[float]
    #: per held-out chunk: scoring wall, tokens, (mean nll, scored tokens).
    eval_s: list[float]
    eval_tokens: list[int]
    scored: list[tuple[float, int]]
    tokens_digest: str
    #: wall of the whole pass, less the time spent in the reference kernel.
    wall: float
    #: host factor (see hostspeed.py) of the whole pass ("pass") and of the
    #: samples that bracket its "setup" and each of its "encode", "decode"
    #: and "eval" loops; "train" is the set-up's with the training kernel.
    factors: dict[str, float]

    @property
    def host_factor(self) -> float:
        return self.factors["pass"]


def api_pass(workload: str, seed: int, messages: list[Message], src: Path, work: Path,
             scale: Scale, host: HostSpeed, encode_counts: EncodeCounts | None = None) -> Pass:
    """Set up, encode every message, decode them, score the held-out tail,
    sampling the host's speed between units."""
    mark = host.mark()
    host.sample(force=True, kinds=SETUP_KERNELS)
    start = perf_counter()
    arte, setup = timed_set_up(workload, src, work, scale, host)
    host.sample(force=True, kinds=SETUP_KERNELS)
    phases = {"setup": mark, "encode": host.mark() - 1}
    sent = []
    for m in messages:
        if encode_counts is None:
            sent.append(encode_one(arte, m))
        else:
            sent.append(encode_counts.measure(lambda m=m: encode_one(arte, m)))
        host.sample()
    host.sample(force=True)
    phases["decode"] = host.mark() - 1
    ok, decode_s = [], []
    repeats = decode_repeats(sent, scale)
    for s in sent:
        good, dt = decode_one(s, arte, repeats, scale)
        ok.append(good)
        decode_s.append(math.nan if dt is None else dt)
        host.sample()
    host.sample(force=True)
    phases["eval"] = host.mark() - 1
    eval_s, eval_tokens, scored = [], [], []
    for chunk, key in held_out_chunks(workload, seed, arte, scale):
        t0 = perf_counter()
        report = metrics.stego_perplexity(arte.model, key, chunk)
        eval_s.append(perf_counter() - t0)
        eval_tokens.append(len(chunk))
        scored.append((report.mean_nll, report.token_count))
        host.sample()
    host.sample(force=True)
    wall = perf_counter() - start - host.spent(mark + 1)
    bounds = [*phases.values(), host.mark()]
    factors = {name: host.factor(lo, hi + 1) for name, lo, hi in zip(phases, bounds, bounds[1:])}
    factors["train"] = host.factor(mark, phases["encode"] + 1, train_kernel(workload))
    factors["pass"] = host.factor(mark)
    digest = _sha(*(_token_bytes(s.tokens or ()) for s in sent))
    return Pass(setup, sent, ok, decode_s, eval_s, eval_tokens, scored, digest, wall, factors)


class RunClock:
    """Decides whether another pass fits in the run's seconds: it does when
    the time left holds the slowest timed pass so far (the first pass, a
    warm-up that also compiles and loads what later passes reuse, only until
    a timed one has run)."""

    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds
        self.laps: list[float] = []

    @contextlib.contextmanager
    def lap(self):
        start = perf_counter()
        yield
        self.laps.append(perf_counter() - start)

    def room(self) -> bool:
        return perf_counter() + max(timed(self.laps), default=0.0) <= self.end


def api_passes(workload: str, seed: int, seconds: float, src: Path, work: Path,
               scale: Scale, host: HostSpeed) -> list[Pass]:
    """Passes that fit in ``seconds``, and at least ``scale.min_passes``.
    Only the first pass keeps its tokens and keys, so the benchmark's own
    heap, which every full garbage collection walks, stays the same size
    through the run."""
    messages = pass_messages(workload, seed, scale)
    passes: list[Pass] = []
    clock = RunClock(seconds)
    while len(passes) < scale.min_passes or clock.room():
        with clock.lap():
            passes.append(api_pass(workload, seed, messages, src, work, scale, host))
        if len(passes) > 1:
            for s in passes[-1].sent:
                s.tokens, s.key = None, None
    return passes


def capacity_of(sent: list[Sent]) -> tuple[float, list[str]]:
    """bits/word from capacity_empirical over the messages' tokens."""
    bits = words = 0
    problems = []
    for s in sent:
        if s.error:
            continue
        report = metrics.capacity_empirical(s.tokens, s.key)
        if report.carrier_count != s.carriers:
            problems.append("capacity_empirical disagrees with the encoder's carrier count")
        bits += report.carrier_count * report.block_bits
        words += report.token_count
    return bits / max(words, 1), problems


def check_passes(passes: list[Pass]) -> list[str]:
    """Every pass repeats the first: same files, same tokens, same scores."""
    first = passes[0]
    problems = []
    if any(p.setup.digests != first.setup.digests for p in passes):
        problems.append("repeated set-ups produced different vocab/model/key bytes")
    if any(p.tokens_digest != first.tokens_digest for p in passes):
        problems.append("re-encoding the same messages gave different tokens")
    if any(p.scored != first.scored for p in passes):
        problems.append("re-scoring the held-out tail gave different stego perplexity")
    if not all(math.isfinite(nll) for nll, _ in first.scored):
        problems.append("infinite stego perplexity on the held-out tail")
    return problems


def encode_seconds(p: Pass) -> list[float]:
    return [math.nan if s.error else s.seconds for s in p.sent]


def median_over(passes: list, value) -> float:
    return statistics.median(value(p) for p in timed(passes))


def setup_seconds(p: Pass) -> float:
    """Set-up wall at the reference host speed: training against its own
    kernel, the rest against the interpreter kernel."""
    rest = p.setup.seconds - p.setup.train_s
    return rest / p.factors["setup"] + p.setup.train_s / p.factors["train"]


def run_api(workload: str, seed: int, seconds: float, src: Path, work: Path,
            scale: Scale, host: HostSpeed) -> Result:
    passes = api_passes(workload, seed, seconds, src, work, scale, host)
    first = passes[0]
    bits_per_word, cap_problems = capacity_of(first.sent)
    problems = check_passes(passes) + cap_problems

    tokens = [s.n_tokens for s in first.sent]
    bits = [8 * len(s.message.payload) for s in first.sent]
    decoded = [n * decode_repeats(first.sent, scale) for n in tokens]
    held_n = sum(n for _, n in first.scored)
    values = {
        "encode_tok_per_s": median_over(
            passes, lambda p: rate(tokens, encode_seconds(p), p.factors["encode"])),
        "encode_payload_bits_per_s": median_over(
            passes, lambda p: rate(bits, encode_seconds(p), p.factors["encode"])),
        "decode_tok_per_s": median_over(
            passes, lambda p: rate(decoded, p.decode_s, p.factors["decode"])),
        "eval_tok_per_s": median_over(
            passes, lambda p: rate(first.eval_tokens, p.eval_s, p.factors["eval"])),
        "train_tok_per_s": median_over(
            passes, lambda p: rate([first.setup.train_tokens], [p.setup.train_s],
                                   p.factors["train"])),
        "setup_s": median_over(passes, setup_seconds),
        "pipeline_s": median_over(passes, lambda p: p.wall / p.host_factor),
        "bits_per_word": bits_per_word,
        "stego_ppl": math.exp(sum(nll * n for nll, n in first.scored) / max(held_n, 1)),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "encode_msg_ms": latency_report([s.seconds for p in timed(passes) for s in p.sent]),
        "host_factor": [p.host_factor for p in passes],
        "raw_encode_tok_per_s": median_over(passes, lambda p: rate(tokens, encode_seconds(p))),
        "passes": len(passes),
        "messages_per_pass": len(first.sent),
        "tokens_per_pass": sum(tokens),
        "held_out_tokens": held_n,
        "digests": {"inputs": inputs_digest(workload, seed, len(first.sent)),
                    **stream_digests(first)},
        "errors": sorted({s.error for p in passes for s in p.sent if s.error})[:5],
    }
    attempted = sum(len(p.ok) for p in passes)
    return Result(values, attempted, sum(not o for p in passes for o in p.ok), problems, info)


def stream_digests(p: Pass) -> dict[str, str]:
    if "key.sk" in p.setup.digests:
        keys = p.setup.digests["key.sk"]
    else:
        keys = _sha(*(keying.serialize_key(s.key) for s in p.sent if s.key))
    return {"tokens": p.tokens_digest, "keys": keys, "model": p.setup.digests["model.slm"]}


def run_api_traced(workload: str, seed: int, seconds: float, src: Path, work: Path,
                   scale: Scale, host: HostSpeed) -> Result:
    """The untraced passes of a timed run, then one traced pass.

    The tracing overhead compares the traced pass's encode wall with the
    median timed untraced pass's, each at the reference host speed.
    """
    passes = api_passes(workload, seed, seconds, src, work, scale, host)
    messages = [s.message for s in passes[0].sent]
    select = SelectCounter()
    tracer = Tracer()
    encode_counts = EncodeCounts(tracer, select)
    tracer.install()
    select.install()
    try:
        traced = api_pass(workload, seed, messages, src, work, scale, host, encode_counts)
        cap_problems = capacity_of(traced.sent)[1]
    finally:
        select.uninstall()
        tracer.uninstall()
    problems = check_passes([*passes, traced]) + cap_problems
    done = [s for s in traced.sent if not s.error]
    phase = counts(encode_counts.delta, sum(s.n_tokens for s in done),
                   sum(s.carriers for s in done), len(traced.sent))
    untraced_s = median_over(passes, lambda p: sum(encode_seconds(p)) / p.factors["encode"])
    overhead = 100.0 * (sum(encode_seconds(traced)) / traced.factors["encode"] / untraced_s
                        - 1.0)
    values = layer_values(tracer, phase, overhead)
    info = {"passes": len(passes) + 1, "absent_spans": tracer.absent,
            "select_args_unreadable": select.unreadable}
    everything = [*passes, traced]
    return Result(values, sum(len(p.ok) for p in everything),
                  sum(not o for p in everything for o in p.ok), problems, info)


# ---------------------------------------------------------------- CLI workload


def cli_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def cli_set_up(src: Path, work: Path, scale: Scale) -> int:
    """Write the training text and the held-out token stream for the pipeline."""
    train_text, held_text = split_corpus(src)
    (work / "train.txt").write_text(train_text, encoding="utf-8")
    held = corpus.tokenize(held_text, CORPUS_CONFIG)[:scale.eval_tokens or CLI_EVAL_TOKENS]
    corpus.write_token_file(work / "heldout.tok", held)
    return len(held)


def cli_stage_args(work: Path, message: Message) -> dict[str, list[str]]:
    def w(name: str) -> str:
        return str(work / name)

    block_bits, common, key_seed = message.key_params
    vocab_key = ["--vocab", w("vocab.tsv"), "--key", w("key.sk")]
    return {
        "prep": ["prep", "--in", w("train.txt"), "--out-tokens", w("tokens.txt"),
                 "--out-vocab", w("vocab.tsv"), "--drop-retweets"],
        "train": ["train", "--backend", "ngram", "--order", str(NGRAM_CONFIG["order"]),
                  "--add-k", str(NGRAM_CONFIG["add_k"]), "--tokens", w("tokens.txt"),
                  "--vocab", w("vocab.tsv"), "--out", w("model.slm")],
        "keygen": ["keygen", "--vocab", w("vocab.tsv"), "--block-bits", str(block_bits),
                   "--common", str(common), "--seed", str(key_seed), "--out", w("key.sk")],
        "encode": ["encode", *vocab_key, "--model", w("model.slm"), "--in", w("payload.bin"),
                   "--mode", message.policy.mode.value, "--seed", str(message.policy.seed),
                   "--framing", "length", "--emit-tokens", w("steg.tok"), "--out", w("steg.txt")],
        "decode": ["decode", *vocab_key, "--tokens", w("steg.tok"), "--framing", "length",
                   "--out", w("decoded.bin")],
        "eval": ["eval", *vocab_key, "--model", w("model.slm"), "--tokens", w("heldout.tok"),
                 "--ppl", "--stego-ppl", "--json", w("eval.json")],
    }


def stage_subprocess(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "stegolm.cli", *args], env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    elapsed = perf_counter() - start
    lines = proc.stderr.decode("utf-8", "replace").strip().splitlines()
    return elapsed, "" if proc.returncode == 0 else (lines or [f"exit {proc.returncode}"])[-1]


def stage_in_process(args: list[str]) -> tuple[float, str]:
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = stegolm.cli.main(args)
    elapsed = perf_counter() - start
    return elapsed, "" if code == 0 else (sink.getvalue().strip().splitlines() or [f"exit {code}"])[-1]


@dataclass
class Iteration:
    message: Message
    held_out: int
    walls: dict[str, float]
    errors: list[str]
    tokens: list[str]
    ok: bool
    stego_ppl: float
    digests: dict[str, str]
    #: per stage, the host factor of the two samples that bracket it.
    factors: dict[str, float]

    def wall(self, stage: str) -> float:
        """The stage's wall at the reference host speed; NaN if it did not run."""
        return self.walls.get(stage, math.nan) / self.factors.get(stage, 1.0)


def cli_iteration(src: Path, work: Path, message: Message, run_stage, scale: Scale,
                  host: HostSpeed, encode_counts: EncodeCounts | None = None) -> Iteration:
    """Split the corpus, then prep, train, keygen, encode, decode and eval one
    message, sampling the host's speed before and after every stage."""
    held_out = cli_set_up(src, work, scale)
    (work / "payload.bin").write_bytes(message.payload)
    for name in ("steg.tok", "decoded.bin", "eval.json"):
        (work / name).unlink(missing_ok=True)
    args = cli_stage_args(work, message)
    walls, errors, before = {}, [], {}
    for stage in CLI_STAGES:
        before[stage] = host.mark()
        host.sample(force=True)
        if stage == "decode" and scale.corrupt and (work / "steg.tok").exists():
            key = keying.load_key(work / "key.sk", corpus.Vocabulary.load(work / "vocab.tsv"))
            tokens = corpus.read_token_file(work / "steg.tok")
            corpus.write_token_file(work / "steg.tok", corrupt_tokens(tokens, key))
        if stage == "encode" and encode_counts is not None:
            walls[stage], error = encode_counts.measure(lambda: run_stage(args[stage]))
        else:
            walls[stage], error = run_stage(args[stage])
        if error:
            errors.append(f"{stage}: {error}")
            if stage != "decode":  # later stages need this stage's output
                break
    host.sample(force=True)
    ok = not errors and (work / "decoded.bin").read_bytes() == message.payload
    tokens = corpus.read_token_file(work / "steg.tok") if (work / "steg.tok").exists() else []
    stego_ppl = math.nan
    if (work / "eval.json").exists():
        stego_ppl = json.loads((work / "eval.json").read_text())["stego_perplexity"]["perplexity"]
    digests = {name: _sha((work / name).read_bytes())
               for name in ("vocab.tsv", "model.slm", "key.sk") if (work / name).exists()}
    factors = {stage: host.factor(before[stage], before[stage] + 2) for stage in walls}
    return Iteration(message, held_out, walls, errors, tokens, ok, stego_ppl, digests, factors)


def cli_passes(seed: int, seconds: float, src: Path, work: Path, run_stage, scale: Scale,
               min_passes: int, host: HostSpeed) -> list[list[Iteration]]:
    """Passes of one pipeline per payload of the fixed set that fit in
    ``seconds``, and at least ``min_passes`` passes."""
    messages = [make_message("cli-pipeline", seed, i) for i in range(scale.cli_messages)]
    passes = []
    clock = RunClock(seconds)
    while len(passes) < min_passes or clock.room():
        with clock.lap():
            passes.append([cli_iteration(src, work, m, run_stage, scale, host)
                           for m in messages])
    return passes


def timed_pipelines(passes: list[list[Iteration]]) -> list[Iteration]:
    """The pipelines of the timed passes that ran every stage."""
    everything = [it for p in timed(passes) for it in p]
    return [it for it in everything if len(it.walls) == len(CLI_STAGES)] or everything


def check_cli(passes: list[list[Iteration]], work: Path) -> tuple[list[str], float]:
    """The CLI must match the API on the same artefacts and be deterministic.

    Returns (problems, bits_per_word over the first pass's messages).
    """
    first = passes[0]
    everything = [it for p in passes for it in p]
    problems = sorted({e for it in everything for e in it.errors if not e.startswith("decode")})
    if any(it.digests != first[0].digests for it in everything):
        problems.append("repeated pipelines produced different vocab/model/key bytes")
    if any(it.tokens != first[i].tokens for p in passes for i, it in enumerate(p)):
        problems.append("repeated pipelines gave different tokens for the same payload")
    ppls = {it.stego_ppl for it in everything}
    if len(ppls) != 1 or not all(math.isfinite(p) for p in ppls):
        problems.append(f"eval stego perplexity not finite and repeatable: {sorted(ppls)}")
    vocab = corpus.Vocabulary.load(work / "vocab.tsv")
    key = keying.load_key(work / "key.sk", vocab)
    model = lm.load_model(work / "model.slm", vocab)
    bits = words = 0
    for i, it in enumerate(first):
        api = codec.encode(Payload(it.message.payload, Framing.LENGTH_PREFIXED), key, model,
                           it.message.policy)
        if list(api.tokens) != it.tokens:
            problems.append(f"message {i}: CLI tokens differ from the API's")
            continue
        report = metrics.capacity_empirical(it.tokens, key)
        bits += report.carrier_count * report.block_bits
        words += report.token_count
    return problems, bits / max(words, 1)


def run_cli(seed: int, seconds: float, src: Path, work: Path, scale: Scale,
            host: HostSpeed) -> Result:
    env = cli_env(src)
    passes = cli_passes(seed, seconds, src, work, lambda a: stage_subprocess(a, env), scale,
                        scale.min_passes, host)
    first = passes[0]
    problems, bits_per_word = check_cli(passes, work)

    train_n = len(corpus.read_token_file(work / "tokens.txt"))
    everything = [it for p in passes for it in p]
    complete = timed_pipelines(passes)
    tokens = sum(len(it.tokens) for it in first)

    def walls(*stages: str) -> list[float]:
        """Per payload, the median over the timed passes of the stages' walls."""
        return [statistics.median(sum(it.wall(s) for s in stages) for it in column)
                for column in zip(*timed(passes))]

    values = {
        "encode_tok_per_s": tokens / sum(walls("encode")),
        "encode_payload_bits_per_s": sum(8 * len(it.message.payload) for it in first)
                                     / sum(walls("encode")),
        "decode_tok_per_s": tokens / sum(walls("decode")),
        "eval_tok_per_s": sum(it.held_out for it in first) / sum(walls("eval")),
        "train_tok_per_s": train_n * len(first) / sum(walls("train")),
        "setup_s": statistics.fmean(walls(*CLI_SETUP_STAGES)),
        "pipeline_s": statistics.fmean(walls(*CLI_STAGES)),
        "bits_per_word": bits_per_word,
        "stego_ppl": first[0].stego_ppl,
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    info = {
        "encode_msg_ms": latency_report([it.walls["encode"] for it in complete
                                         if "encode" in it.walls]),
        "host_factor": [statistics.fmean(it.factors.values()) for it in everything],
        "passes": len(passes),
        "messages_per_pass": len(first),
        "tokens_per_pass": sum(len(it.tokens) for it in first),
        "held_out_tokens": first[0].held_out,
        "digests": {"inputs": inputs_digest("cli-pipeline", seed, len(first)),
                    "tokens": _sha(*(_token_bytes(it.tokens) for it in first)),
                    "keys": first[0].digests.get("key.sk", ""),
                    "model": first[0].digests.get("model.slm", "")},
    }
    return Result(values, len(everything), sum(not it.ok for it in everything), problems, info)


def run_cli_traced(seed: int, seconds: float, src: Path, work: Path, scale: Scale,
                   host: HostSpeed) -> Result:
    """The subprocess passes of a timed run, then the same pipelines in-process
    through cli.main: ``scale.min_passes`` passes untraced (start-up cost and
    tracing overhead) and one traced (spans)."""
    env = cli_env(src)
    sub = cli_passes(seed, seconds, src, work, lambda a: stage_subprocess(a, env), scale,
                     scale.min_passes, host)
    untraced = cli_passes(seed, 0.0, src, work, stage_in_process, scale, scale.min_passes,
                          host)
    key = keying.load_key(work / "key.sk", corpus.Vocabulary.load(work / "vocab.tsv"))
    lookup = key.lookup_array()

    select = SelectCounter()
    tracer = Tracer()
    encode_counts = EncodeCounts(tracer, select)
    tracer.install()
    select.install()
    try:
        traced = [cli_iteration(src, work, it.message, stage_in_process, scale, host,
                                encode_counts) for it in sub[0]]
    finally:
        select.uninstall()
        tracer.uninstall()
    tokens = [t for it in traced for t in it.tokens]
    carriers = sum(1 for t in tokens if lookup[key.vocab.index_of(t)] >= 0)
    phase = counts(encode_counts.delta, len(tokens), carriers, len(traced))

    def stage_ms(passes) -> dict[str, float]:
        """Per stage, the median wall over the timed pipelines, in ms."""
        pipelines = timed_pipelines(passes)
        return {s: 1e3 * statistics.median(it.wall(s) for it in pipelines) for s in CLI_STAGES}

    def pipeline_s(pipelines) -> float:
        return sum(it.wall(s) for it in pipelines for s in CLI_STAGES)

    sub_ms, in_ms = stage_ms(sub), stage_ms(untraced)
    startup_ms = statistics.fmean(sub_ms[s] - in_ms[s] for s in CLI_STAGES)
    untraced_s = statistics.median(pipeline_s(p) for p in timed(untraced))
    overhead = 100.0 * (pipeline_s(traced) / untraced_s - 1.0)
    values = layer_values(tracer, phase, overhead, sub_ms, startup_ms)
    problems = check_cli([*sub, *untraced, traced], work)[0]
    everything = [it for p in [*sub, *untraced, traced] for it in p]
    info = {"pipelines": len(everything), "absent_spans": tracer.absent,
            "select_args_unreadable": select.unreadable}
    return Result(values, len(everything), sum(not it.ok for it in everything), problems, info)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        scale: Scale = Scale()) -> Result:
    """Run one workload in a scratch directory under ``root/.bench_work``."""
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    src = root / "src"
    host = HostSpeed()
    try:
        if workload == "cli-pipeline":
            result = (run_cli_traced if trace else run_cli)(seed, seconds, src, work, scale,
                                                             host)
        else:
            result = (run_api_traced if trace else run_api)(workload, seed, seconds, src, work,
                                                             scale, host)
        result.info["host_kernel_ms"] = {
            kind: host.kernel_ms(kind) for kind in KERNELS
            if any(kind in times for _, times in host.samples)}
        result.info["host_samples"] = len(host.samples)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
