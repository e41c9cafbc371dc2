"""Host speed, read from fixed reference kernels timed between units of work.

The benchmark's host is shared, and other tenants slow it down by up to half
for seconds to minutes at a time without taking CPU time from it. A run that
falls in such a period reads every rate low, whatever the program does. So
the timed loops call ``HostSpeed.sample`` between units of work (never inside
one); it times a reference kernel, a fixed piece of benchmark-owned work,
with a small memory footprint, made of the same kind of operation as the
work it brackets:

* ``interp`` (``interpreter_kernel``): dict and list work in the interpreter
  and small numpy calls on vocabulary-sized arrays, as in selection, the
  n-gram model, LSTM inference one token at a time, scoring and set-up;
* ``blas`` (``batched_kernel``): batched array products and reductions of
  the size of an LSTM training window, as in ``train_lstm``.

The two kinds slow down by different amounts when the host is slow (batched
BLAS work less than interpreter work), so each phase is normalised by the
kind that matches it.

``factor`` over a window of samples is the mean kernel time over the
kernel's ``REFERENCE_MS``: above 1 when the host ran slow. A time divided by
the factor is the time at the reference host speed. The kernels are the same
code on every commit, so a change to the program moves the normalised
numbers just as it moves the raw ones; only the host's speed drops out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(12345)
_VOCAB = 529
_WORDS = [f"w{i}" for i in range(_VOCAB)]
_BIN = [int(i) for i in _RNG.permutation(_VOCAB)[:_VOCAB // 4]]
_PROBS = _RNG.random(_VOCAB)
_EMBED = _RNG.random((_VOCAB, 32))
_GATES = _RNG.random((96, 256)) * 0.1
_OUT = _RNG.random((64, _VOCAB)) * 0.1
_WINDOW = _RNG.random((16, 16, 64)) * 0.1


def interpreter_kernel() -> float:
    """Fixed work: counting, selection-like and LSTM-step-like operations."""
    counts: dict[str, int] = {}
    for i in range(3000):
        word = _WORDS[(i * 7) % _VOCAB]
        counts[word] = counts.get(word, 0) + 1
    acc = 0.0
    for step in range(32):
        allowed = list(_BIN)
        allowed.extend(range(10))
        allowed.sort()
        mass = _PROBS[np.asarray(allowed, dtype=np.int64)]
        acc += float(np.cumsum(mass / mass.sum()).searchsorted(0.5))
        h = np.tanh(np.concatenate([_EMBED[step], _PROBS[:64]]) @ _GATES)[:64]
        logits = h @ _OUT
        acc += float(np.exp(logits - logits.max()).sum())
    return acc + len(counts)


def batched_kernel() -> float:
    """Fixed work: the output layer of an LSTM training window, forward and back."""
    logits = _WINDOW @ _OUT  # (batch, steps, vocab)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=-1, keepdims=True)
    grad_out = np.tensordot(_WINDOW, probs, axes=([0, 1], [0, 1]))
    back = np.tensordot(probs, _OUT.T, axes=([2], [0]))
    return float(grad_out.sum() + np.tanh(back).sum())


KERNELS = {"interp": interpreter_kernel, "blas": batched_kernel}
#: Median kernel times in ms in the host's fast state (2 vCPU Xeon, Python
#: 3.11.7, numpy 2.4.6, one BLAS thread). Any fixed values would do; these
#: keep normalised numbers close to the host's fast-state ones.
REFERENCE_MS = {"interp": 1.7, "blas": 2.6}
#: The loops sample at most this often, so sampling costs a few per cent.
SAMPLE_EVERY_S = 0.1


class HostSpeed:
    """Kernel times, each sample with the wall it took."""

    def __init__(self):
        #: (wall of the sample, {kind: kernel seconds}) per sample.
        self.samples: list[tuple[float, dict[str, float]]] = []
        self._last = -SAMPLE_EVERY_S

    def sample(self, force: bool = False, kinds: tuple[str, ...] = ("interp",)) -> None:
        """Time the kernels, unless a sample was taken under SAMPLE_EVERY_S ago.

        Each kernel runs twice and the second run is timed: the work before
        it (or a child process) has evicted its data from the caches, and how
        much varies; the warm run reads the host's speed alone.
        """
        start = perf_counter()
        if not force and start - self._last < SAMPLE_EVERY_S:
            return
        times = {}
        for kind in kinds:
            KERNELS[kind]()
            begin = perf_counter()
            KERNELS[kind]()
            times[kind] = perf_counter() - begin
        self._last = perf_counter()
        self.samples.append((self._last - start, times))

    def mark(self) -> int:
        """A position to pass to ``factor``: samples taken from here on."""
        return len(self.samples)

    def spent(self, since: int = 0) -> float:
        """Seconds spent sampling since ``mark``."""
        return sum(wall for wall, _ in self.samples[since:])

    def kernel_ms(self, kind: str = "interp", since: int = 0, until: int | None = None) -> float:
        """Mean time of the ``kind`` kernel over the samples from mark
        ``since`` up to mark ``until``.

        The mean, not the median: the host flips between speeds within a
        phase, and a wall is the sum over the time spent at each speed.
        """
        return 1e3 * statistics.fmean(times[kind] for _, times in self.samples[since:until]
                                      if kind in times)

    def factor(self, since: int = 0, until: int | None = None, kind: str = "interp") -> float:
        """``kernel_ms`` over the kernel's REFERENCE_MS."""
        return self.kernel_ms(kind, since, until) / REFERENCE_MS[kind]
