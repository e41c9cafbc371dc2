"""Span tracer that wraps the public functions of the stegolm layers from outside.

Nothing in the package is edited: ``Tracer.install`` swaps each hooked
function for a timing wrapper in every loaded ``stegolm`` module namespace
(and on the owning class, for methods), and ``Tracer.uninstall`` puts the
originals back. A hook whose module or attribute no longer exists is recorded
as absent instead of failing, so a later change that folds or renames a
function still gets a trace.

Self time of a span is its wall time minus the wall time of the traced spans
it called; spans nest through a plain stack because the benchmark is one
thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: layer -> [(span name, module, attribute path)]; span names are
#: ``<layer>.<function>`` in the reported metrics.
SPANS: dict[str, list[tuple[str, str, str]]] = {
    "corpus": [
        ("tokenize", "stegolm.corpus", "tokenize"),
        ("build_vocab", "stegolm.corpus", "build_vocab"),
        ("Vocabulary.load", "stegolm.corpus", "Vocabulary.load"),
    ],
    "keying": [
        ("generate_key", "stegolm.keying", "generate_key"),
        ("serialize_key", "stegolm.keying", "serialize_key"),
        ("deserialize_key", "stegolm.keying", "deserialize_key"),
    ],
    "lm.ngram": [
        ("train_ngram", "stegolm.lm.ngram", "train_ngram"),
        ("next_distribution", "stegolm.lm.ngram", "NgramModel.next_distribution"),
        ("advance", "stegolm.lm.ngram", "NgramModel.advance"),
    ],
    "lm.lstm": [
        ("train_lstm", "stegolm.lm.lstm", "train_lstm"),
        ("window_loss_and_grads", "stegolm.lm.lstm", "window_loss_and_grads"),
        ("window_forward", "stegolm.lm.lstm", "window_forward"),
        ("sgd_step", "stegolm.lm.lstm", "sgd_step"),
        ("next_distribution", "stegolm.lm.lstm", "LstmModel.next_distribution"),
        ("advance", "stegolm.lm.lstm", "LstmModel.advance"),
    ],
    "lm.store": [
        ("serialize_model", "stegolm.lm.store", "serialize_model"),
        ("deserialize_model", "stegolm.lm.store", "deserialize_model"),
    ],
    "codec": [
        ("encode", "stegolm.codec", "encode"),
        ("constrained_select", "stegolm.codec", "constrained_select"),
        ("render", "stegolm.codec", "render"),
        ("decode", "stegolm.codec", "decode"),
    ],
    "metrics": [
        ("perplexity", "stegolm.metrics", "perplexity"),
        ("stego_perplexity", "stegolm.metrics", "stego_perplexity"),
        ("stego_distribution", "stegolm.metrics", "stego_distribution"),
        ("capacity_empirical", "stegolm.metrics", "capacity_empirical"),
    ],
}


def span_names() -> list[str]:
    return [f"{layer}.{span}" for layer, spans in SPANS.items() for span, _, _ in spans]


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs timing wrappers on the hooks in ``SPANS`` and collects stats."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name in span_names()}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, spans in SPANS.items():
            for span, module_name, path in spans:
                name = f"{layer}.{span}"
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(name)
                    continue
                if "." in path:
                    self._install_method(name, module, path)
                else:
                    self._install_function(name, module, path)

    def _install_function(self, name: str, module, attr: str) -> None:
        original = module.__dict__.get(attr)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original)
        # Callers bind the function by name in their own namespace
        # (``from .codec import encode``), so every alias is swapped.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stegolm" or mod_name.startswith("stegolm.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, wrapper)

    def _install_method(self, name: str, module, path: str) -> None:
        cls_name, attr = path.split(".", 1)
        cls = module.__dict__.get(cls_name)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
        elif callable(raw):
            self._set(cls, attr, self._wrap(name, raw))
        else:
            self.absent.append(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def metrics(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.total_ms`` and ``<span>.self_ms`` for every span."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = float(st.calls)
            out[f"{name}.total_ms"] = st.total * 1e3
            out[f"{name}.self_ms"] = st.self_time * 1e3
        return out
