"""Command-line toolchain: prep, train, keygen, encode, decode, eval.

Every subcommand is a pure function of its flags and input files; all
randomness comes from explicit ``--seed`` flags. Payload bytes travel on
stdin/stdout (or ``--in``/``--out`` paths) so commands pipe cleanly;
diagnostics go to stderr as a single machine-parsable line
``error: <ClassName>: <message>`` and the process exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import sys
from pathlib import Path

from . import codec, corpus, keying, metrics
from .codec import Framing, GenPolicy, Mode, Payload
from .corpus import CorpusConfig, Vocabulary
from .errors import ConfigError, StegolmError
from .lm import (
    LstmHyperparams,
    NgramConfig,
    PRESETS,
    load_model,
    save_model,
    train_lstm,
    train_ngram,
)


def _given(target, args) -> dict:
    """The keyword arguments of ``target`` (a config class or a function) whose
    flags were given: each such flag's dest is the parameter's name, and an unset
    flag (None) keeps the parameter's default."""
    return {name: getattr(args, name)
            for name, param in inspect.signature(target).parameters.items()
            if param.default is not param.empty and getattr(args, name, None) is not None}


def _refuse(args, dests, command: str) -> None:
    """``ConfigError`` naming each flag in ``dests`` that was given (not None) by
    its first option string (``--no-lowercase-text`` is ``--lowercase-text``):
    ``command`` does not read it."""
    given = sorted(args.flags[dest] for dest in dests if getattr(args, dest) is not None)
    if given:
        raise ConfigError(f"{command} does not read {', '.join(given)}")


def _choice(enum) -> dict:
    """``add_argument`` keywords for a flag that takes one value of ``enum``."""
    return {"type": enum, "metavar": "{" + ",".join(member.value for member in enum) + "}"}


def _read_bytes(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _write(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream such as io.StringIO (contextlib.redirect_stdout)
            sys.stdout.write(data.decode("utf-8", "surrogateescape"))
            sys.stdout.flush()
        else:
            out.write(data)
            out.flush()
    else:
        Path(path).write_bytes(data)


#: Input flag -> its reader, given the path and the loader (for the vocabulary).
_READERS = {
    "vocab": lambda path, inputs: Vocabulary.load(path),
    "key": lambda path, inputs: keying.load_key(path, inputs("vocab")),
    "model": lambda path, inputs: load_model(path, inputs("vocab")),
    "tokens": lambda path, inputs: corpus.read_token_file(path),
}


def _inputs(args):
    """Loader for the files named by ``--vocab``, ``--key``, ``--model`` and
    ``--tokens``: ``inputs("key")`` reads each file at most once per process."""
    @functools.cache
    def inputs(flag: str):
        path = getattr(args, flag, None)
        if not path:
            raise ConfigError(f"this command needs --{flag}")
        return _READERS[flag](path, inputs)
    return inputs


def cmd_prep(args) -> int:
    config = CorpusConfig(**_given(CorpusConfig, args))
    raw = corpus.read_text_file(args.infile)
    tokens = corpus.tokenize(raw, config)
    vocab = corpus.build_vocab(tokens, config)
    if args.out_tokens:
        corpus.write_token_file(args.out_tokens, tokens)
    vocab.save(args.out_vocab)
    print(f"tokens: {len(tokens)}", file=sys.stderr)
    print(f"vocab_size: {len(vocab)}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    ngram = _given(NgramConfig, args)
    lstm = _given(LstmHyperparams, args)  # unset flags keep the preset's values
    run = _given(train_lstm, args)  # --epochs and --seed
    other = ngram if args.backend == "lstm" else [*lstm, *run, "preset"]
    _refuse(args, other, f"train --backend {args.backend}")
    inputs = _inputs(args)
    vocab, tokens = inputs("vocab"), inputs("tokens")
    if args.backend == "ngram":
        model = train_ngram(tokens, vocab, NgramConfig(**ngram))
    else:
        if lstm.get("clip_norm") == 0:  # 0 disables clipping; the rest reach LstmHyperparams
            lstm["clip_norm"] = None
        base = PRESETS[args.preset] if args.preset else LstmHyperparams()
        model = train_lstm(tokens, vocab, dataclasses.replace(base, **lstm), **run)
        for st in model.history:
            print(
                f"epoch {st.epoch}: train_nll {st.train_nll:.4f} "
                f"val_nll {st.val_nll:.4f} lr_after {st.lr_after:g}"
                + (" (decayed)" if st.decayed else ""),
                file=sys.stderr,
            )
    save_model(model, args.out)
    return 0


def cmd_keygen(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    key = keying.generate_key(
        vocab, args.block_bits, args.common, args.seed,
        include_eos_common=args.common_eos,
    )
    keying.save_key(key, args.out)
    print(
        f"bins: {key.num_bins} carriers: {key.carrier_count()} "
        f"common: {len(key.common)}",
        file=sys.stderr,
    )
    return 0


def cmd_encode(args) -> int:
    inputs = _inputs(args)
    key, model = inputs("key"), inputs("model")
    payload = Payload(_read_bytes(args.infile), **_given(Payload, args))
    policy = GenPolicy(**_given(GenPolicy, args))
    stegotext = codec.encode(payload, key, model, policy)
    if args.emit_tokens:
        corpus.write_token_file(args.emit_tokens, stegotext.tokens)
    text = codec.render(stegotext.tokens, capitalize=args.capitalize) + "\n"
    _write(args.out, text.encode("utf-8"))
    print(
        f"tokens: {len(stegotext.tokens)} carriers: {stegotext.carrier_count}",
        file=sys.stderr,
    )
    return 0


def cmd_decode(args) -> int:
    if args.tokens:
        _refuse(args, ["lowercase"], "decode --tokens")
    inputs = _inputs(args)
    key = inputs("key")
    if args.tokens:
        tokens = inputs("tokens")
    else:
        # Best-effort path: re-tokenize rendered text. Reliable only for
        # punctuation-safe output; the token sidecar is the canonical input.
        # Line boundaries re-tokenize to <eos>, which carries no payload.
        raw = corpus.read_text_file(args.text)
        tokens = [
            t for t in corpus.tokenize(raw, CorpusConfig(**_given(CorpusConfig, args)))
            if t != corpus.EOS_TOKEN
        ]
    if args.framing is Framing.LENGTH_PREFIXED:
        _write(args.out, codec.decode_payload(tokens, key))
    else:
        _write(args.out, (codec.decode(tokens, key) + "\n").encode("ascii"))
    return 0


def cmd_eval(args) -> int:
    if not args.capacity:
        _refuse(args, ["block_bits", "common_fraction"], "eval without --capacity")
        if not args.capacity_empirical:
            _refuse(args, ["mean_length"], "eval without --capacity or --capacity-empirical")
    inputs = _inputs(args)
    reports = {}
    if args.ppl:
        reports["perplexity"] = metrics.perplexity(inputs("model"), inputs("tokens"))
    if args.stego_ppl:
        reports["stego_perplexity"] = metrics.stego_perplexity(
            inputs("model"), inputs("key"), inputs("tokens"))
    if args.capacity:
        if args.block_bits is None:
            raise ConfigError("--capacity requires --block-bits")
        reports["capacity"] = metrics.capacity(args.block_bits, **_given(metrics.capacity, args),
                                               mean_message_length=args.mean_length)
    if args.capacity_empirical:
        reports["capacity_empirical"] = metrics.capacity_empirical(
            inputs("tokens"), inputs("key"), args.mean_length)
    if not reports:
        raise ConfigError(
            "nothing to evaluate: pass --ppl, --stego-ppl, --capacity "
            "or --capacity-empirical"
        )
    print("\n".join(f"[{name}]\n{report.to_text()}" for name, report in reports.items()))
    if args.json:
        # JSON has no infinity: a perplexity with a zero-probability word is null,
        # and its infinite_positions say where
        sections = {name: {field: None if isinstance(value, float) and not math.isfinite(value)
                           else value for field, value in dataclasses.asdict(report).items()}
                    for name, report in reports.items()}
        Path(args.json).write_text(json.dumps(sections, sort_keys=True, indent=2,
                                              allow_nan=False), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stegolm",
        description="Hide byte payloads inside generated text via keyed vocabulary bins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="tokenize a corpus and build its vocabulary")
    p.add_argument("--in", dest="infile", required=True, help="UTF-8 text, one message per line")
    p.add_argument("--out-tokens", help="write the token stream, one token per line")
    p.add_argument("--out-vocab", required=True, help="write the STEGOVOCAB file")
    p.add_argument("--lowercase", action=argparse.BooleanOptionalAction)
    p.add_argument("--replace-users-urls", action=argparse.BooleanOptionalAction)
    p.add_argument("--drop-retweets", action=argparse.BooleanOptionalAction)
    p.add_argument("--max-vocab", type=int)
    p.add_argument("--min-count", type=int)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train a language model on a token stream")
    p.add_argument("--backend", choices=["ngram", "lstm"], required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, help="ngram order")
    p.add_argument("--add-k", type=float, help="ngram smoothing constant")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="lstm hyperparameters the other lstm flags override "
                        "(unset: the LstmHyperparams defaults, named desk)")
    p.add_argument("--layers", type=int)
    p.add_argument("--units", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--unroll", dest="unroll_steps", metavar="UNROLL", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="lr_init", metavar="LR", type=float)
    p.add_argument("--lr-decay", type=float)
    p.add_argument("--clip-norm", type=float, help="0 disables clipping")
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("keygen", help="generate the shared bin-partition key")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-bits", type=int, required=True,
                   help="bits per block; the key has 2**block_bits bins")
    p.add_argument("--common", type=int, default=0,
                   help="number of most-frequent tokens shared across all bins")
    p.add_argument("--common-eos", action="store_true",
                   help="also add <eos> to the common set")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encode", help="embed payload bytes into generated text")
    p.add_argument("--vocab", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", help="payload bytes (default: stdin)")
    p.add_argument("--out", help="rendered stegotext (default: stdout)")
    p.add_argument("--emit-tokens", help="sidecar token file, one token per line")
    p.add_argument("--mode", **_choice(Mode))
    p.add_argument("--temp", dest="temperature", metavar="TEMP", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--framing", **_choice(Framing))
    p.add_argument("--max-common-run", type=int)
    p.add_argument("--capitalize", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover payload bits from stegotext (no model)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--key", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tokens", help="token sidecar file (canonical input)")
    src.add_argument("--text", help="rendered text file (best-effort re-tokenization)")
    p.add_argument("--lowercase-text", dest="lowercase", action=argparse.BooleanOptionalAction,
                   help="lowercase when re-tokenizing --text input")
    p.add_argument("--framing", **_choice(Framing), default=Payload.framing)
    p.add_argument("--out", help="payload bytes (length framing) or bit string (raw)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="perplexity, stego perplexity and capacity reports")
    p.add_argument("--vocab", help="needed for --ppl/--stego-ppl/--capacity-empirical")
    p.add_argument("--model")
    p.add_argument("--key")
    p.add_argument("--tokens", help="validation token stream / stegotext tokens")
    p.add_argument("--ppl", action="store_true")
    p.add_argument("--stego-ppl", action="store_true")
    p.add_argument("--capacity", action="store_true")
    p.add_argument("--capacity-empirical", action="store_true")
    p.add_argument("--block-bits", type=int)
    p.add_argument("--common-fraction", type=float)
    p.add_argument("--mean-length", type=float)
    p.add_argument("--json", help="also write a machine-readable JSON report")
    p.set_defaults(func=cmd_eval)
    for p in sub.choices.values():  # a refusal names each flag, not its dest
        p.set_defaults(flags={a.dest: a.option_strings[0] for a in p._actions if a.option_strings})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StegolmError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
