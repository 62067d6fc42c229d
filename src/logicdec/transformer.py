"""A small decoder-only transformer exposing the two attention hook points:
attention over the generated prefix and attention over target words.  The
third shift, on the next-word prediction, is the decoder's ``decide`` call
on the distribution ``step`` returns.

Target words are fed through the network individually and without positional
offsets, producing position-invariant key/value pairs per layer and head.  At
every step each attention head scores the concatenation ``[targets :
prefix]`` with a single softmax; a hook bundle may then boost the two
segments with their truth vectors and intensities, after which the whole row
is renormalised.  Because softmax is shift-invariant, the boost is applied
directly to the pre-softmax scores: ``row = softmax(s + alpha * I * p)``
where ``p`` is the unshifted joint attention.  With zero truth vectors the
shifted pass reproduces the plain pass exactly.

Weights are seeded-random (no training here) or loaded from a flat binary
file; see ``save_weights`` for the layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decision import softmax
from .lm import Scorer

__all__ = [
    "TransformerConfig", "TinyTransformer", "TransformerSession",
    "TransformerScorer", "AttentionHookBundle", "precompute_target_kv",
    "save_weights", "load_weights",
]

_WEIGHTS_MAGIC = b"LDTW"
_WEIGHTS_VERSION = 1
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

    def shift_row(self, scores_targets: np.ndarray,
                  scores_prefix: np.ndarray) -> np.ndarray:
        """Shifted joint attention row over ``[targets : prefix]``."""
        scores = np.concatenate([scores_targets, scores_prefix])
        joint = softmax(scores)
        m = len(scores_targets)
        boost = np.zeros_like(scores)
        if m and self.truth_targets is not None:
            if len(self.truth_targets) != m:
                raise ValueError("target truth vector does not match target count")
            boost[:m] = self.alpha2 * self.truth_targets * joint[:m]
        if self.truth_prefix is not None:
            if len(self.truth_prefix) != len(scores_prefix):
                raise ValueError("prefix truth vector does not match prefix length")
            boost[m:] = self.alpha1 * self.truth_prefix * joint[m:]
        row = softmax(scores + boost)
        if not np.isfinite(row).all() or abs(float(row.sum()) - 1.0) > 1e-6:
            raise ValueError("attention hook produced a non-distribution row")
        return row


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean()
    var = x.var()
    return (x - mu) / np.sqrt(var + _LN_EPS) * gain + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _block(w: dict[str, np.ndarray], x: np.ndarray, layer: int, attend) -> np.ndarray:
    """One pre-norm block on one position.  ``attend(layer, q, k, v)`` maps
    the position's query, key and value to the concatenated head outputs."""
    u = _layer_norm(x, w[f"ln1_g_{layer}"], w[f"ln1_b_{layer}"])
    a = attend(layer, u @ w[f"wq_{layer}"], u @ w[f"wk_{layer}"], u @ w[f"wv_{layer}"])
    x = x + a @ w[f"wo_{layer}"]
    u2 = _layer_norm(x, w[f"ln2_g_{layer}"], w[f"ln2_b_{layer}"])
    return x + _gelu(u2 @ w[f"w1_{layer}"] + w[f"b1_{layer}"]) @ w[f"w2_{layer}"] + w[f"b2_{layer}"]


class TinyTransformer:
    """Pre-norm GPT-style decoder over a closed vocabulary."""

    def __init__(self, config: TransformerConfig,
                 weights: Optional[dict[str, np.ndarray]] = None):
        self.config = config
        self.weights = weights if weights is not None else _init_weights(config)
        _validate_shapes(config, self.weights)

    # -- sessions ------------------------------------------------------------

    def begin_session(self, targets: Sequence[int] = ()) -> "TransformerSession":
        target_kv = precompute_target_kv(self, targets) if len(targets) else None
        return TransformerSession(tokens=[], keys=[[] for _ in range(self.config.n_layers)],
                                  values=[[] for _ in range(self.config.n_layers)],
                                  targets=tuple(targets), target_kv=target_kv)

    # -- forward -------------------------------------------------------------

    def step(self, session: "TransformerSession", token: int,
             hooks: Optional[AttentionHookBundle] = None,
             record_attention: bool = False) -> np.ndarray:
        cfg = self.config
        w = self.weights
        pos = len(session.tokens)
        if pos >= cfg.max_len:
            raise ValueError(f"prefix exceeds max length {cfg.max_len}")
        if not (0 <= token < cfg.vocab_size):
            raise ValueError(f"token id {token} outside vocabulary")
        session.attention_rows = [] if record_attention else None

        H, dh = cfg.n_heads, cfg.head_dim

        def attend(layer, q, k, v):
            session.keys[layer].append(k)
            session.values[layer].append(v)
            qh = q.reshape(H, dh, 1)
            # (H, T, dh) per-head views of the cached keys and values
            K = np.stack(session.keys[layer]).reshape(-1, H, dh).transpose(1, 0, 2)
            V = np.stack(session.values[layer]).reshape(-1, H, dh).transpose(1, 0, 2)
            scores_prefix = (K @ qh)[:, :, 0] / np.sqrt(dh)
            scores_targets = np.empty((H, 0))
            if session.target_kv is not None:
                kc, vc = (a.reshape(-1, H, dh).transpose(1, 0, 2)
                          for a in session.target_kv[layer])
                scores_targets = (kc @ qh)[:, :, 0] / np.sqrt(dh)
                V = np.concatenate([vc, V], axis=1)
            rows = np.empty((H, V.shape[1]))
            for head in range(H):
                if hooks is not None:
                    rows[head] = hooks.shift_row(scores_targets[head], scores_prefix[head])
                else:
                    rows[head] = softmax(np.concatenate([scores_targets[head],
                                                         scores_prefix[head]]))
                if session.attention_rows is not None:
                    session.attention_rows.append((layer, head, rows[head]))
            return (rows[:, None, :] @ V).reshape(-1)

        x = w["emb"][token] + w["pos"][pos]
        for layer in range(cfg.n_layers):
            x = _block(w, x, layer, attend)
        h = _layer_norm(x, w["lnf_g"], w["lnf_b"])
        logits = h @ w["wout"]
        session.tokens.append(token)
        return softmax(logits)


@dataclass
class TransformerSession:
    tokens: list[int]
    keys: list[list[np.ndarray]]
    values: list[list[np.ndarray]]
    targets: tuple[int, ...]
    target_kv: Optional[list[tuple[np.ndarray, np.ndarray]]]
    attention_rows: Optional[list] = None

    def clone(self) -> "TransformerSession":
        return TransformerSession(
            tokens=list(self.tokens),
            keys=[list(per_layer) for per_layer in self.keys],
            values=[list(per_layer) for per_layer in self.values],
            targets=self.targets,
            target_kv=self.target_kv,  # immutable, shared
        )


def precompute_target_kv(model: TinyTransformer, targets: Sequence[int]
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer stacked key/value pairs for target words fed individually,
    with no positional offsets."""
    if not len(targets):
        raise ValueError("target word list is empty")
    cfg = model.config
    w = model.weights
    per_layer_k = [[] for _ in range(cfg.n_layers)]
    per_layer_v = [[] for _ in range(cfg.n_layers)]

    def attend(layer, q, k, v):
        per_layer_k[layer].append(k)
        per_layer_v[layer].append(v)
        return v  # single-position self-attention mixes nothing

    for tid in targets:
        if not (0 <= tid < cfg.vocab_size):
            raise ValueError(f"target id {tid} outside vocabulary")
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


# ---------------------------------------------------------------------------
# Weight init and the flat binary format

def _weight_spec(cfg: TransformerConfig) -> list[tuple[str, tuple[int, ...]]]:
    spec: list[tuple[str, tuple[int, ...]]] = [
        ("emb", (cfg.vocab_size, cfg.d_model)),
        ("pos", (cfg.max_len, cfg.d_model)),
    ]
    for layer in range(cfg.n_layers):
        spec += [
            (f"ln1_g_{layer}", (cfg.d_model,)), (f"ln1_b_{layer}", (cfg.d_model,)),
            (f"wq_{layer}", (cfg.d_model, cfg.d_model)),
            (f"wk_{layer}", (cfg.d_model, cfg.d_model)),
            (f"wv_{layer}", (cfg.d_model, cfg.d_model)),
            (f"wo_{layer}", (cfg.d_model, cfg.d_model)),
            (f"ln2_g_{layer}", (cfg.d_model,)), (f"ln2_b_{layer}", (cfg.d_model,)),
            (f"w1_{layer}", (cfg.d_model, cfg.d_ff)), (f"b1_{layer}", (cfg.d_ff,)),
            (f"w2_{layer}", (cfg.d_ff, cfg.d_model)), (f"b2_{layer}", (cfg.d_model,)),
        ]
    spec += [("lnf_g", (cfg.d_model,)), ("lnf_b", (cfg.d_model,)),
             ("wout", (cfg.d_model, cfg.vocab_size))]
    return spec


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


def save_weights(model: TinyTransformer, path) -> None:
    """Flat binary layout: magic, version, six u32 dims (vocab, layers,
    heads, d_model, d_ff, max_len), then the tensors of ``_weight_spec`` as
    little-endian float64, row-major, in order."""
    cfg = model.config
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC)
        fh.write(struct.pack("<H", _WEIGHTS_VERSION))
        fh.write(struct.pack("<6I", cfg.vocab_size, cfg.n_layers, cfg.n_heads,
                             cfg.d_model, cfg.d_ff, cfg.max_len))
        for name, _ in _weight_spec(cfg):
            fh.write(np.ascontiguousarray(model.weights[name], dtype="<f8").tobytes())


def load_weights(path) -> TinyTransformer:
    with open(path, "rb") as fh:
        if fh.read(4) != _WEIGHTS_MAGIC:
            raise ValueError(f"{path}: not a transformer weight file")
        (version,) = struct.unpack("<H", fh.read(2))
        if version != _WEIGHTS_VERSION:
            raise ValueError(f"{path}: unsupported weight version {version}")
        vocab, layers, heads, d_model, d_ff, max_len = struct.unpack("<6I", fh.read(24))
        cfg = TransformerConfig(vocab_size=vocab, n_layers=layers, n_heads=heads,
                                d_model=d_model, d_ff=d_ff, max_len=max_len)
        weights = {}
        for name, shape in _weight_spec(cfg):
            n = int(np.prod(shape))
            blob = fh.read(8 * n)
            if len(blob) != 8 * n:
                raise ValueError(f"{path}: truncated tensor '{name}'")
            weights[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after weight tensors")
    return TinyTransformer(cfg, weights)
