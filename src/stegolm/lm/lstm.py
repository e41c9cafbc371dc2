"""Word-level LSTM language model, trained from scratch in numpy.

Standard cell (input/forget/output gates, tanh candidate, untied weights),
trained with truncated backpropagation through time over ``batch_size``
parallel streams, plain SGD, global gradient-norm clipping, and dropout on
the non-recurrent connections only (embedding output and every layer output,
training time only). The learning rate is divided by ``lr_decay`` after any
epoch whose validation loss fails to improve on the best seen so far by more
than 1e-4 nats. Training, encoding and scoring share one cell function. A
training window keeps one (batch, steps, |V|) array, worked in place from the
logits to the softmax gradient.

All state is float64 and every source of randomness is derived from the
training seed, so a (seed, corpus, hyperparams) triple reproduces the exact
same parameters on a given platform.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ..corpus import Vocabulary
from ..errors import ConfigError, ModelFormatError, TrainingError, check_int, check_real
from .base import LanguageModel, softmax

#: Validation-loss slack below which an epoch counts as "did not improve".
IMPROVE_TOLERANCE = 1e-4
VAL_FRACTION = 0.1
#: Bytes of arrays that training may hold: the machine's physical memory.
MEMORY_CEILING = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class LstmHyperparams:
    layers: int = 1
    units: int = 64
    embed_dim: int = 32
    unroll_steps: int = 16
    batch_size: int = 16
    lr_init: float = 4.0
    lr_decay: float = 2.0
    clip_norm: float | None = 0.25
    dropout: float = 0.0

    def __post_init__(self):
        for name in ("layers", "units", "embed_dim", "unroll_steps", "batch_size"):
            check_int(name, getattr(self, name), 1)
        check_real("lr_init", self.lr_init, 0, low_open=True)
        check_real("lr_decay", self.lr_decay, 1, low_open=True)
        if self.clip_norm is not None:
            check_real("clip_norm", self.clip_norm, 0, low_open=True)
        check_real("dropout", self.dropout, 0, 1)


#: Named hyperparameter presets. "desk" trains in minutes on a ~100k-token
#: corpus. The two paper-* presets record full-scale recipes (hours of GPU
#: training on tens of millions of tokens); they exist for configurability
#: and make no promises at desk scale.
PRESETS: dict[str, LstmHyperparams] = {
    "desk": LstmHyperparams(),
    "paper-twitter": LstmHyperparams(
        layers=2, units=600, embed_dim=200, unroll_steps=25, batch_size=20,
        lr_init=20.0, lr_decay=4.0, clip_norm=0.25, dropout=0.2,
    ),
    "paper-enron": LstmHyperparams(
        layers=3, units=600, embed_dim=200, unroll_steps=20, batch_size=20,
        lr_init=20.0, lr_decay=4.0, clip_norm=None, dropout=0.0,
    ),
}


@dataclass(frozen=True)
class EpochStats:
    """One epoch of ``train_lstm``; a model file's history holds one per epoch."""

    epoch: int
    train_nll: float
    val_nll: float
    lr_after: float
    decayed: bool

    def __post_init__(self):
        check_int("epoch", self.epoch, 0)
        for name in ("train_nll", "val_nll", "lr_after"):
            value = getattr(self, name)
            if not isinstance(value, float) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite float, not {value!r}")
        if type(self.decayed) is not bool:
            raise ConfigError(f"decayed must be a bool, not {self.decayed!r}")


def param_shapes(vocab_size: int, hp: LstmHyperparams) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter array, in initialisation order."""
    shapes = {"embed": (vocab_size, hp.embed_dim)}
    for layer in range(hp.layers):
        in_dim = hp.embed_dim if layer == 0 else hp.units
        shapes[f"wx{layer}"] = (in_dim, 4 * hp.units)
        shapes[f"wh{layer}"] = (hp.units, 4 * hp.units)
        shapes[f"b{layer}"] = (4 * hp.units,)
    shapes["wo"] = (hp.units, vocab_size)
    shapes["bo"] = (vocab_size,)
    return shapes


def training_bytes(vocab_size: int, hp: LstmHyperparams) -> int:
    """Bytes of the float64 arrays training holds at once, counted in Python ints
    before any is built: every ``param_shapes`` array and its gradient, and per
    window the (B, T, |V|) array, the inputs and each layer's per-step caches."""
    shapes = param_shapes(vocab_size, replace(hp, layers=min(hp.layers, 2)))
    params = sum(math.prod(shape) for shape in shapes.values())
    if hp.layers > 2:  # every layer past the second has the second's shapes
        params += (hp.layers - 2) * sum(math.prod(shapes[f"{name}1"]) for name in ("wx", "wh", "b"))
    # per layer and step: h, c, the (B, 4U) gate block, the g gate and the output row
    per_position = vocab_size + hp.embed_dim + 8 * hp.units * hp.layers
    return 8 * (2 * params + hp.batch_size * hp.unroll_steps * per_position)


def init_params(vocab_size: int, hp: LstmHyperparams, seed: int) -> dict[str, np.ndarray]:
    """Uniform [-0.1, 0.1] weights, zero biases, from a seeded generator."""
    rng = np.random.default_rng(seed)
    return {
        name: np.zeros(shape) if name.startswith("b") else rng.uniform(-0.1, 0.1, size=shape)
        for name, shape in param_shapes(vocab_size, hp).items()
    }


def _zero_states(hp: LstmHyperparams, *batch: int) -> tuple:
    """Zero per-layer (hidden, cell) pairs of shape ``(*batch, units)``: an LSTM
    context (no batch) or the carried state of a training window."""
    return tuple((np.zeros((*batch, hp.units)), np.zeros((*batch, hp.units)))
                 for _ in range(hp.layers))


def _layer_weights(params, layers: int) -> tuple:
    """Each layer's ``(wx, wh, b)``, read once from ``params``."""
    return tuple(tuple(params[f"{name}{layer}"] for name in ("wx", "wh", "b"))
                 for layer in range(layers))


def _cell(xw, h_prev, c_prev, wh, b, units: int):
    """One LSTM step from the input product ``xw = x @ wx``: pre-activations
    ``z = (xw + h_prev @ wh) + b``, sigmoid gates ``exp(min(z, 0)) / (1 + exp(-|z|))``
    (no exponent is positive, so nothing overflows). Returns the new (hidden,
    cell) and the gates (i, f, g, o); the arguments are only read."""
    z = h_prev @ wh
    np.add(xw, z, out=z)
    z += b
    gg = np.tanh(z[..., 2 * units:3 * units])
    sig = np.minimum(z, 0.0)  # the i, f and o gates; its g quarter is unused
    np.exp(sig, out=sig)
    np.exp(np.negative(np.abs(z, out=z), out=z), out=z)  # exp(-|z|)
    z += 1.0
    sig /= z
    gi, gf, go = sig[..., :units], sig[..., units:2 * units], sig[..., 3 * units:]
    c = gf * c_prev
    c += np.multiply(gi, gg, out=z[..., :units])
    h = np.tanh(c)
    h *= go
    return h, c, (gi, gf, gg, go)


def window_forward(params, hp, inputs, targets, states, drop_masks=None):
    """Forward pass over one (batch, steps) window.

    Returns (mean NLL in nats/token, caches, final states); the caches end
    with the exponentiated shifted logits and their row sums, the softmax's
    parts. ``states`` is consumed read-only; ``drop_masks`` is the structure
    produced by :func:`_sample_drop_masks` or None for inference.
    """
    batch, steps = inputs.shape
    xin = params["embed"][inputs]  # (B, T, E)
    if drop_masks is not None:
        xin = xin * drop_masks[0]
    caches, new_states = [], []
    for layer, (wx, wh, b) in enumerate(_layer_weights(params, hp.layers)):
        h_prev, c_prev = states[layer]
        hs = np.empty((batch, steps, hp.units))
        layer_cache = []
        for t in range(steps):
            h, c, gates = _cell(xin[:, t] @ wx, h_prev, c_prev, wh, b, hp.units)
            layer_cache.append((xin[:, t], h_prev, c_prev, c, gates))
            h_prev, c_prev = h, c
            hs[:, t] = h
        caches.append(layer_cache)
        new_states.append((h_prev, c_prev))
        xin = hs if drop_masks is None else hs * drop_masks[layer + 1]
    # One (B, T, V) array, worked in place: the logits, the shifted logits (read
    # for ``picked``), their exponentials and, in the backward, the softmax gradient.
    expd = xin @ params["wo"]
    expd += params["bo"]
    np.subtract(expd, expd.max(axis=-1, keepdims=True), out=expd)
    picked = np.take_along_axis(expd, targets[..., None], axis=-1)[..., 0]
    np.exp(expd, out=expd)
    sums = expd.sum(axis=-1)
    loss = float((np.log(sums) - picked).mean())
    return loss, (caches, xin, expd, sums), tuple(new_states)


def _sample_drop_masks(hp, rng, batch, steps):
    """Inverted-dropout masks for every non-recurrent boundary, or None."""
    if hp.dropout == 0.0:
        return None
    keep = 1.0 - hp.dropout
    dims = [hp.embed_dim] + [hp.units] * hp.layers
    return [(rng.random((batch, steps, dim)) < keep) / keep for dim in dims]


def window_loss_and_grads(params, hp, inputs, targets, states, drop_masks=None):
    """Loss, analytic parameter gradients, and carried states for one window."""
    loss, (caches, top_out, expd, sums), new_states = window_forward(
        params, hp, inputs, targets, states, drop_masks)
    batch, steps = inputs.shape
    grads = {k: np.zeros_like(v) for k, v in params.items()}

    dlogits = np.divide(expd, sums[..., None], out=expd)  # the softmax
    dlogits[np.arange(batch)[:, None], np.arange(steps), targets] -= 1.0
    dlogits /= batch * steps

    grads["wo"] = np.tensordot(top_out, dlogits, axes=([0, 1], [0, 1]))
    grads["bo"] = dlogits.sum(axis=(0, 1))
    d_out = np.tensordot(dlogits, params["wo"].T, axes=([2], [0]))  # (B, T, H)

    for layer in reversed(range(hp.layers)):
        if drop_masks is not None:
            d_out = d_out * drop_masks[layer + 1]
        dh_next, dc_next = np.zeros((2, batch, hp.units))
        in_dim = hp.embed_dim if layer == 0 else hp.units
        d_in = np.empty((batch, steps, in_dim))
        wh_t = params[f"wh{layer}"].T
        wx_t = params[f"wx{layer}"].T
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev, c, (gi, gf, gg, go) = caches[layer][t]
            dh = d_out[:, t] + dh_next
            tc = np.tanh(c)
            d_go = dh * tc
            dc = dh * go * (1.0 - tc * tc) + dc_next
            d_gi = dc * gg
            d_gg = dc * gi
            d_gf = dc * c_prev
            dc_next = dc * gf
            dz = np.concatenate([
                d_gi * gi * (1.0 - gi),
                d_gf * gf * (1.0 - gf),
                d_gg * (1.0 - gg * gg),
                d_go * go * (1.0 - go),
            ], axis=1)
            grads[f"wx{layer}"] += x_t.T @ dz
            grads[f"wh{layer}"] += h_prev.T @ dz
            grads[f"b{layer}"] += dz.sum(axis=0)
            dh_next = dz @ wh_t
            d_in[:, t] = dz @ wx_t
        d_out = d_in
    if drop_masks is not None:
        d_out = d_out * drop_masks[0]
    np.add.at(grads["embed"], inputs.reshape(-1), d_out.reshape(-1, hp.embed_dim))
    return loss, grads, new_states


def sgd_step(params, grads, lr: float, clip_norm: float | None = None) -> float:
    """In-place update: scale ``grads`` so their global norm is at most
    ``clip_norm``, then theta <- theta - lr * grad. Returns the pre-clip norm."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if clip_norm is not None and norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    for name, grad in grads.items():
        params[name] -= lr * grad
    return norm


def _batchify(ids: np.ndarray, batch: int) -> np.ndarray:
    stream_len = len(ids) // batch
    if stream_len < 2:
        raise TrainingError(
            f"stream of {len(ids)} tokens is too small for batch_size={batch}"
        )
    return ids[: batch * stream_len].reshape(batch, stream_len)


def _windows(data: np.ndarray, unroll_steps: int):
    """(inputs, targets) of each truncated-BPTT window over a batchified stream."""
    inputs, targets = data[:, :-1], data[:, 1:]
    for start in range(0, inputs.shape[1], unroll_steps):
        yield inputs[:, start:start + unroll_steps], targets[:, start:start + unroll_steps]


def _mean_nll(params, hp, data: np.ndarray) -> float:
    """Forward-only mean NLL over a batchified stream (no dropout)."""
    states = _zero_states(hp, data.shape[0])
    total, count = 0.0, 0
    for inputs, targets in _windows(data, hp.unroll_steps):
        batch, steps = inputs.shape
        loss, _, states = window_forward(params, hp, inputs, targets, states)
        total += loss * batch * steps
        count += batch * steps
    return total / count


def _train_epoch(params, hp, data: np.ndarray, drop_rng, lr: float) -> float:
    """One SGD pass over a batchified stream; returns its mean training NLL."""
    states = _zero_states(hp, hp.batch_size)
    total, count = 0.0, 0
    for inputs, targets in _windows(data, hp.unroll_steps):
        steps = inputs.shape[1]
        masks = _sample_drop_masks(hp, drop_rng, hp.batch_size, steps)
        loss, grads, states = window_loss_and_grads(params, hp, inputs, targets, states, masks)
        sgd_step(params, grads, lr, hp.clip_norm)
        total += loss * hp.batch_size * steps
        count += hp.batch_size * steps
    return total / count


class LstmModel(LanguageModel):
    """``params`` must not change once the model is built: the overflow bound is
    checked then, and ``advance`` memoises each index's ``embed[i] @ wx0`` row."""

    backend = "lstm"

    def __init__(self, vocab: Vocabulary, hp: LstmHyperparams,
                 params: dict[str, np.ndarray], history: Sequence[EpochStats] = ()):
        """``params`` must hold exactly the finite float64 arrays, by name and
        shape, that ``param_shapes`` calls for, and no gate pre-activation or
        logit they can produce may overflow; otherwise ``ConfigError``."""
        # embed, wx/wh/b per layer, wo, bo; counted first, since a huge ``layers``
        # would make building the expected shapes slow
        if len(params) != 3 * hp.layers + 3:
            raise ConfigError(f"{len(params)} lstm arrays, not {3 * hp.layers + 3}, "
                              f"for {hp.layers} layers")
        expected = {n: ("float64", shape) for n, shape in param_shapes(len(vocab), hp).items()}
        found = {n: (str(array.dtype), array.shape) for n, array in params.items()
                 if isinstance(array, np.ndarray)}
        wrong = sorted(n for n in expected.keys() | found.keys() if found.get(n) != expected.get(n))
        if wrong:
            raise ConfigError(f"lstm arrays missing, extra or misshapen: {wrong[:3]}")
        # Worst case of every gate pre-activation and logit: input bound @ |w| plus
        # |wh| column sums (|h| <= 1) and |b|; a NaN or inf in any array shows here too.
        with np.errstate(over="ignore", invalid="ignore"):
            # Layer 0 reads an embedding row; later layers and the logits read h.
            x_bound, worst = np.abs(params["embed"]).max(axis=0, initial=0.0), {}
            for layer in range(hp.layers):
                wx, wh, b = (np.abs(params[f"{name}{layer}"]) for name in ("wx", "wh", "b"))
                worst[f"layer {layer} gates"] = x_bound @ wx + wh.sum(axis=0) + b
                x_bound = np.ones(hp.units)
            worst["logits"] = x_bound @ np.abs(params["wo"]) + np.abs(params["bo"])
        overflowing = [part for part, bound in worst.items() if not np.isfinite(bound).all()]
        if overflowing:
            raise ConfigError(f"lstm arrays hold NaN or inf or can overflow: {overflowing}")
        super().__init__(vocab)
        self.hp = hp
        self.params = params
        self.history = list(history)
        self._weights = _layer_weights(params, hp.layers)
        self._rows: dict[int, np.ndarray] = {}  # index -> embed[index] @ wx0, as 1-D products

    def initial_context(self) -> tuple:
        """Per-layer (hidden, cell) vectors; treated as an immutable value."""
        return _zero_states(self.hp)

    def advance(self, ctx: tuple, token_index: int) -> tuple:
        xw = self._rows.get(token_index) if type(token_index) is int else None  # True, 1.0 hash as 1
        if xw is None:
            token_index = self.check_index(token_index)
            xw = self._rows[token_index] = self.params["embed"][token_index] @ self._weights[0][0]
        states = []
        for (wx, wh, b), (h, c) in zip(self._weights, ctx):
            if states:  # the layer below's new hidden state is this layer's input
                xw = states[-1][0] @ wx
            states.append(_cell(xw, h, c, wh, b, self.hp.units)[:2])
        return tuple(states)

    def next_distribution(self, ctx: tuple) -> np.ndarray:
        return softmax(ctx[-1][0] @ self.params["wo"] + self.params["bo"])

    def next_distributions(self, ctx: tuple, ids) -> tuple[np.ndarray, tuple]:
        """The recurrence through ``advance``, then one output-layer product and
        one row-wise softmax. Rows may differ from ``next_distribution`` in the
        last bits; ``ctx_after`` is the ``advance`` chain's, bit for bit."""
        tops = np.empty((len(ids), self.hp.units))
        for t, token_index in enumerate(ids):
            tops[t] = ctx[-1][0]
            ctx = self.advance(ctx, token_index)
        return softmax(tops @ self.params["wo"] + self.params["bo"]), ctx

    def header_config(self) -> dict:
        """The ``config:`` header of a model file: hyperparameters and history."""
        return {"hyperparams": asdict(self.hp), "history": [asdict(s) for s in self.history]}

    def to_payload(self) -> bytes:
        """An uncompressed npz archive of C-order arrays in ``param_shapes`` order."""
        buf = io.BytesIO()
        names = param_shapes(len(self.vocab), self.hp)
        np.savez(buf, **{name: np.ascontiguousarray(self.params[name]) for name in names})
        return buf.getvalue()

    @classmethod
    def from_payload(cls, vocab: Vocabulary, header: dict, payload: bytes) -> "LstmModel":
        """Inverse of ``header_config``/``to_payload``: the npz archive must hold
        exactly the finite float64 arrays the hyperparameters call for."""
        try:
            hp = LstmHyperparams(**header["hyperparams"])
            history = [EpochStats(**s) for s in header["history"]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad lstm config: {exc}") from None
        try:
            with np.load(io.BytesIO(payload)) as stash:
                params = {name: stash[name] for name in stash.files}
        except Exception as exc:
            raise ModelFormatError(f"bad lstm payload: {exc}") from None
        try:
            return cls(vocab, hp, params, history)
        except ConfigError as exc:
            raise ModelFormatError(f"bad lstm payload: {exc}") from None


def train_lstm(tokens: Sequence[str], vocab: Vocabulary, hp: LstmHyperparams,
               epochs: int = 3, seed: int = 0) -> LstmModel:
    """Train on a token stream (OOV folded to <unk>), last 10% held out. Sizes
    whose ``training_bytes`` pass ``MEMORY_CEILING`` are refused before anything
    is allocated, and a ``MemoryError`` while training ends as ``TrainingError``."""
    check_int("seed", seed, 0)
    check_int("epochs", epochs, 1)
    if len(tokens) < hp.unroll_steps * hp.batch_size:
        raise TrainingError(
            f"corpus of {len(tokens)} tokens is smaller than "
            f"unroll_steps*batch_size = {hp.unroll_steps * hp.batch_size}"
        )
    need = training_bytes(len(vocab), hp)
    if need > MEMORY_CEILING:
        raise TrainingError(f"training needs {need} bytes of arrays, more than the "
                            f"{MEMORY_CEILING} bytes of physical memory")
    try:
        return _train(tokens, vocab, hp, epochs, seed)
    except MemoryError as exc:
        raise TrainingError(f"out of memory while training: {exc}") from None


def _train(tokens: Sequence[str], vocab: Vocabulary, hp: LstmHyperparams,
           epochs: int, seed: int) -> LstmModel:
    """``train_lstm`` once its arguments are checked."""
    ids = vocab.indices_or_unk(tokens)
    split = int(round(len(ids) * (1.0 - VAL_FRACTION)))
    train_data = _batchify(ids[:split], hp.batch_size)
    val_batch = max(1, min(hp.batch_size, len(ids[split:]) // (hp.unroll_steps + 1)))
    val_data = _batchify(ids[split:], val_batch)

    params = init_params(len(vocab), hp, seed)
    drop_rng = np.random.default_rng([seed, 0xD0])
    lr = hp.lr_init
    best_val = np.inf
    history: list[EpochStats] = []
    for epoch in range(epochs):
        try:
            # Parameters start finite, so an overflow or invalid operation is
            # the only way to a non-finite loss: stop on the first one.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                train_nll = _train_epoch(params, hp, train_data, drop_rng, lr)
                val_nll = _mean_nll(params, hp, val_data)
        except FloatingPointError as exc:
            raise TrainingError(
                f"training diverged at epoch {epoch} ({exc}); "
                "lower lr_init or enable clip_norm"
            ) from None
        decayed = val_nll >= best_val - IMPROVE_TOLERANCE
        if decayed:
            lr /= hp.lr_decay
        else:
            best_val = val_nll
        history.append(EpochStats(epoch, train_nll, val_nll, lr, decayed))
    return LstmModel(vocab, hp, params, history)
