"""A small decoder-only transformer exposing the two attention hook points:
attention over the generated prefix and attention over target words.  The
third shift, on the next-word prediction, is the decoder's log-domain
``pre_activation(p, I, alpha3)`` call on the distribution ``step`` returns.

Target words are fed through the network individually and without positional
offsets, producing position-invariant key/value pairs per layer and head.  At
every step each attention head scores the concatenation ``[targets :
prefix]`` with a single softmax; a hook bundle may then boost the two
segments with their truth vectors and intensities, after which the whole row
is renormalised.  Because softmax is shift-invariant, the boost is applied
directly to the pre-softmax scores: ``row = softmax(s + alpha * I * p)``
where ``p`` is the unshifted joint attention.  With zero truth vectors the
shifted pass reproduces the plain pass exactly.

``step_batch`` runs one forward for a batch of equal-length sessions: each
layer scores one (batch, heads, targets + prefix) block and applies the
shift to the whole block at once; ``step`` is a batch of one.  A session's
key/value cache is one read-only ``(targets + T, d_model)`` array per layer,
the targets' rows first.  Nothing writes to it, so a clone shares its
parent's arrays; a step stacks the batch's arrays and appends the new row,
giving each session a view of the result.

Weights are seeded-random (no training here) or loaded from a flat binary
file; see ``save_weights`` for the layout.  ``load_weights`` keeps each tensor
as a read-only view of one ``kb.SectionReader`` read, as the snapshot loader
does, and raises ``WeightsError`` (a ``kb.FormatError``) for a bad file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .decision import softmax
from .kb import FormatError, SectionReader
from .lm import Scorer, _check_token

__all__ = [
    "TransformerConfig", "TinyTransformer", "TransformerSession",
    "TransformerScorer", "AttentionHookBundle", "precompute_target_kv",
    "save_weights", "load_weights", "WeightsError",
]

_WEIGHTS_MAGIC = b"LDTW"
_WEIGHTS_VERSION = 1
_WEIGHTS_HEADER = struct.Struct("<H6I")  # after the magic: version, six dims
_LN_EPS = 1e-5


@dataclass(frozen=True)
class TransformerConfig:
    vocab_size: int
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    d_ff: int = 128
    max_len: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class AttentionHookBundle:
    """Per-step attention intensities plus the truth vectors they consume.

    ``truth_prefix`` holds one value per prefix position (position-level:
    repeated tokens share a value but occupy distinct slots) and must match
    the prefix length at the step it is used for.  ``truth_targets`` aligns
    with the session's target words.
    """
    alpha1: float = 0.0                       # prefix-attention intensity
    alpha2: float = 0.0                       # target-attention intensity
    truth_prefix: Optional[np.ndarray] = None
    truth_targets: Optional[np.ndarray] = None


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # np.mean and np.var along the last axis, with the centring shared
    n = x.shape[-1]
    centred = x - x.sum(axis=-1, keepdims=True) / n
    var = (centred * centred).sum(axis=-1, keepdims=True) / n
    return centred / np.sqrt(var + _LN_EPS) * gain + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def _block(w: dict[str, np.ndarray], x: np.ndarray, layer: int, attend) -> np.ndarray:
    """One pre-norm block on one position per row of ``x``.  ``attend(layer,
    q, k, v)`` maps the rows' queries, keys and values to the concatenated
    head outputs."""
    u = _layer_norm(x, w[f"ln1_g_{layer}"], w[f"ln1_b_{layer}"])
    a = attend(layer, u @ w[f"wq_{layer}"], u @ w[f"wk_{layer}"], u @ w[f"wv_{layer}"])
    x = x + a @ w[f"wo_{layer}"]
    u2 = _layer_norm(x, w[f"ln2_g_{layer}"], w[f"ln2_b_{layer}"])
    return x + _gelu(u2 @ w[f"w1_{layer}"] + w[f"b1_{layer}"]) @ w[f"w2_{layer}"] + w[f"b2_{layer}"]


def _hook_coefficients(hooks: Sequence[Optional[AttentionHookBundle]],
                       n_targets: int, length: int) -> Optional[np.ndarray]:
    """(B, 1, targets + prefix) intensities times truth values, zero where a
    session has no hook or no truth vector; None when no session is hooked."""
    if all(h is None for h in hooks):
        return None
    coef = np.zeros((len(hooks), 1, n_targets + length))
    for b, h in enumerate(hooks):
        if h is None:
            continue
        if n_targets and h.truth_targets is not None:
            if len(h.truth_targets) != n_targets:
                raise ValueError("target truth vector does not match target count")
            coef[b, 0, :n_targets] = h.alpha2 * h.truth_targets
        if h.truth_prefix is not None:
            if len(h.truth_prefix) != length:
                raise ValueError("prefix truth vector does not match prefix length")
            coef[b, 0, n_targets:] = h.alpha1 * h.truth_prefix
    return coef


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, d_model) -> (B, heads, T, head_dim) view."""
    B, T, d = a.shape
    return a.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _extend(cached: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Stack equal-length caches and append one new row each, read-only."""
    out = np.empty((len(cached), len(cached[0]) + 1, rows.shape[1]))
    for b, c in enumerate(cached):
        out[b, :-1] = c
    out[:, -1] = rows
    out.flags.writeable = False
    return out


class TinyTransformer:
    """Pre-norm GPT-style decoder over a closed vocabulary."""

    def __init__(self, config: TransformerConfig,
                 weights: Optional[dict[str, np.ndarray]] = None):
        self.config = config
        self.weights = weights if weights is not None else _init_weights(config)
        _validate_shapes(config, self.weights)

    # -- sessions ------------------------------------------------------------

    def begin_session(self, targets: Sequence[int] = ()) -> "TransformerSession":
        """A session whose caches start with the targets' keys and values."""
        kv = precompute_target_kv(self, targets) if len(targets) else \
            [(np.empty((0, self.config.d_model)),) * 2] * self.config.n_layers
        for k, v in kv:
            k.flags.writeable = v.flags.writeable = False
        return TransformerSession(tokens=[], keys=tuple(k for k, _ in kv),
                                  values=tuple(v for _, v in kv), targets=tuple(targets))

    # -- forward -------------------------------------------------------------

    def step(self, session: "TransformerSession", token: int,
             hooks: Optional[AttentionHookBundle] = None,
             record_attention: bool = False) -> np.ndarray:
        return self.step_batch([session], [token], [hooks], record_attention)[0]

    def step_batch(self, sessions: Sequence["TransformerSession"], tokens: Sequence[int],
                   hooks: Optional[Sequence[Optional[AttentionHookBundle]]] = None,
                   record_attention: bool = False) -> list[np.ndarray]:
        """Consume ``tokens[b]`` in ``sessions[b]`` for every b with one
        forward; return each session's next-position distribution.  The
        sessions must have equal length and equal target counts.  A session
        is changed only when the whole step succeeds."""
        cfg = self.config
        w = self.weights
        if hooks is None:
            hooks = [None] * len(sessions)
        if not len(sessions) == len(tokens) == len(hooks):
            raise ValueError("sessions, tokens and hooks differ in number")
        if not sessions:
            return []
        pos = len(sessions[0].tokens)
        n_targets = len(sessions[0].targets)
        if any(len(s.tokens) != pos for s in sessions):
            raise ValueError("batched sessions must have equal length")
        if any(len(s.targets) != n_targets for s in sessions):
            raise ValueError("batched sessions must have equal target counts")
        if pos >= cfg.max_len:
            raise ValueError(f"prefix exceeds max length {cfg.max_len}")
        _check_token(tokens, cfg.vocab_size)
        coef = _hook_coefficients(hooks, n_targets, pos + 1)

        H, dh = cfg.n_heads, cfg.head_dim
        keys, values, rows_per_layer = [], [], []

        def attend(layer, q, k, v):
            K = _extend([s.keys[layer] for s in sessions], k)
            V = _extend([s.values[layer] for s in sessions], v)
            keys.append(K)
            values.append(V)
            # (B, H, targets + prefix): the caches hold [targets : prefix].
            # The two parts are scored apart: one product over both rounds
            # some scores differently from the per-part products.
            Kh, qh = _heads(K, H), q.reshape(-1, H, dh, 1)
            scores = np.concatenate([Kh[:, :, :n_targets] @ qh, Kh[:, :, n_targets:] @ qh],
                                    axis=2)[..., 0] / np.sqrt(dh)
            rows = softmax(scores)
            if coef is not None:
                rows = softmax(scores + coef * rows)
                if not np.isfinite(rows).all() or (np.abs(rows.sum(axis=-1) - 1.0) > 1e-6).any():
                    raise ValueError("attention hook produced a non-distribution row")
            rows_per_layer.append(rows)
            return (rows[:, :, None, :] @ _heads(V, H)).reshape(len(sessions), -1)

        x = w["emb"][list(tokens)] + w["pos"][pos]
        for layer in range(cfg.n_layers):
            x = _block(w, x, layer, attend)
        logits = _layer_norm(x, w["lnf_g"], w["lnf_b"]) @ w["wout"]
        dists = softmax(logits, out=logits)
        for b, (session, token) in enumerate(zip(sessions, tokens)):
            session.keys = tuple(K[b] for K in keys)
            session.values = tuple(V[b] for V in values)
            session.tokens.append(token)
            session.attention_rows = [(layer, head, rows[b, head])
                                      for layer, rows in enumerate(rows_per_layer)
                                      for head in range(H)] if record_attention else None
        return list(dists)


@dataclass
class TransformerSession:
    tokens: list[int]
    keys: tuple[np.ndarray, ...]     # per layer, (targets + T, d_model), read-only
    values: tuple[np.ndarray, ...]
    targets: tuple[int, ...]
    attention_rows: Optional[list] = None

    def clone(self) -> "TransformerSession":
        # the caches are never written, so parent and clone share them
        return TransformerSession(tokens=list(self.tokens), keys=self.keys,
                                  values=self.values, targets=self.targets)


def precompute_target_kv(model: TinyTransformer, targets: Sequence[int]
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer stacked key/value pairs for target words fed individually,
    with no positional offsets."""
    if not len(targets):
        raise ValueError("target word list is empty")
    cfg = model.config
    _check_token(targets, cfg.vocab_size, "target id")
    w = model.weights
    per_layer_k = [[] for _ in range(cfg.n_layers)]
    per_layer_v = [[] for _ in range(cfg.n_layers)]

    def attend(layer, q, k, v):
        per_layer_k[layer].append(k)
        per_layer_v[layer].append(v)
        return v  # single-position self-attention mixes nothing

    for tid in targets:
        x = w["emb"][tid].copy()
        for layer in range(cfg.n_layers):
            x = _block(w, x, layer, attend)
    return [(np.stack(per_layer_k[l]), np.stack(per_layer_v[l]))
            for l in range(cfg.n_layers)]


class TransformerScorer(Scorer):
    supports_attention_hooks = True

    def __init__(self, model: TinyTransformer):
        self.model = model
        self.vocab_size = model.config.vocab_size

    def begin_session(self, targets: Sequence[int] = ()) -> TransformerSession:
        return self.model.begin_session(targets)

    def step(self, session: TransformerSession, token: int,
             hooks: Optional[AttentionHookBundle] = None) -> np.ndarray:
        return self.model.step(session, token, hooks=hooks)

    def step_batch(self, sessions, tokens, hooks=None) -> list[np.ndarray]:
        return self.model.step_batch(sessions, tokens, hooks)


# ---------------------------------------------------------------------------
# Weight init and the flat binary format

def _weight_spec(cfg: TransformerConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Tensor names and shapes in file order, generated lazily so that a
    loader can stop at the first tensor a file cannot hold."""
    yield "emb", (cfg.vocab_size, cfg.d_model)
    yield "pos", (cfg.max_len, cfg.d_model)
    for layer in range(cfg.n_layers):
        yield from [
            (f"ln1_g_{layer}", (cfg.d_model,)), (f"ln1_b_{layer}", (cfg.d_model,)),
            (f"wq_{layer}", (cfg.d_model, cfg.d_model)),
            (f"wk_{layer}", (cfg.d_model, cfg.d_model)),
            (f"wv_{layer}", (cfg.d_model, cfg.d_model)),
            (f"wo_{layer}", (cfg.d_model, cfg.d_model)),
            (f"ln2_g_{layer}", (cfg.d_model,)), (f"ln2_b_{layer}", (cfg.d_model,)),
            (f"w1_{layer}", (cfg.d_model, cfg.d_ff)), (f"b1_{layer}", (cfg.d_ff,)),
            (f"w2_{layer}", (cfg.d_ff, cfg.d_model)), (f"b2_{layer}", (cfg.d_model,)),
        ]
    yield from [("lnf_g", (cfg.d_model,)), ("lnf_b", (cfg.d_model,)),
                ("wout", (cfg.d_model, cfg.vocab_size))]


def _init_weights(cfg: TransformerConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    weights = {}
    for name, shape in _weight_spec(cfg):
        if name.startswith(("ln1_g", "ln2_g", "lnf_g")):
            weights[name] = np.ones(shape)
        elif name.startswith(("ln1_b", "ln2_b", "lnf_b", "b1", "b2")):
            weights[name] = np.zeros(shape)
        else:
            weights[name] = rng.normal(0.0, 0.02, size=shape)
    return weights


def _validate_shapes(cfg: TransformerConfig, weights: dict[str, np.ndarray]) -> None:
    for name, shape in _weight_spec(cfg):
        if name not in weights:
            raise ValueError(f"missing weight tensor '{name}'")
        if tuple(weights[name].shape) != shape:
            raise ValueError(f"weight '{name}' has shape {weights[name].shape}, expected {shape}")


class WeightsError(FormatError):
    """A transformer weight file that is truncated, oversized or inconsistent."""


def save_weights(model: TinyTransformer, path) -> None:
    """Flat binary layout: magic, version, six u32 dims (vocab, layers,
    heads, d_model, d_ff, max_len), then the tensors of ``_weight_spec`` as
    little-endian float64, row-major, in order."""
    cfg = model.config
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC)
        fh.write(_WEIGHTS_HEADER.pack(_WEIGHTS_VERSION, cfg.vocab_size, cfg.n_layers,
                                      cfg.n_heads, cfg.d_model, cfg.d_ff, cfg.max_len))
        for name, _ in _weight_spec(cfg):
            fh.write(np.ascontiguousarray(model.weights[name], dtype="<f8").tobytes())


def load_weights(path) -> TinyTransformer:
    """Load a file written by ``save_weights``, or raise ``WeightsError``
    naming the path and the header section or tensor at fault.  Each tensor
    is a read-only view of the file's one read, 8-byte aligned: the read ends
    on an 8-byte boundary and every tensor is a multiple of 8 bytes."""
    reader = SectionReader(path, WeightsError)
    if reader.take("header", len(_WEIGHTS_MAGIC)) != _WEIGHTS_MAGIC:
        raise WeightsError(path, "header", "not a transformer weight file")
    version, *dims = _WEIGHTS_HEADER.unpack(reader.take("header", _WEIGHTS_HEADER.size))
    if version != _WEIGHTS_VERSION:
        raise WeightsError(path, "header", f"unsupported weight version {version}")
    try:
        cfg = TransformerConfig(*dims)
    except ValueError as exc:
        raise WeightsError(path, "header", str(exc)) from None
    # a forged dim asks for more bytes than the file holds, and take refuses it
    weights = {name: np.frombuffer(reader.take(f"tensor '{name}'", 8 * math.prod(shape)),
                                   dtype="<f8").reshape(shape)
               for name, shape in _weight_spec(cfg)}
    reader.end()
    return TinyTransformer(cfg, weights)
