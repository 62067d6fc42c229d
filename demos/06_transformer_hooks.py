#!/usr/bin/env python3
"""Attention-level shifts inside the tiny transformer.

Target words get position-invariant key/value pairs and are attended next to
the generated prefix; a hook bundle boosts the two attention segments with
their truth vectors, and ``decide`` then boosts the final prediction, as the
decoder does.  With zero truth vectors the hooked pass reproduces the plain
pass -- the shifts, not the architecture, carry the rule signal.
"""

import numpy as np

from logicdec import (AttentionHookBundle, TinyTransformer, TransformerConfig,
                      decide, precompute_target_kv)

cfg = TransformerConfig(vocab_size=24, n_layers=2, n_heads=2, d_model=32,
                        d_ff=128, max_len=16, seed=11)
model = TinyTransformer(cfg)
targets = [5, 9]

kv = precompute_target_kv(model, targets)
print(f"per-layer target KV shapes: {[tuple(k.shape) for k, _ in kv]}")

plain = model.begin_session(targets)
hooked = model.begin_session(targets)
boosted = model.begin_session(targets)

truth_vocab = np.zeros(cfg.vocab_size)
truth_vocab[5] = 1.0

for t, token in enumerate([1, 3, 7]):
    p_plain = model.step(plain, token, record_attention=True)
    zero = AttentionHookBundle(alpha1=12, alpha2=24,
                               truth_prefix=np.zeros(t + 1),
                               truth_targets=np.zeros(2))
    p_zero = decide(model.step(hooked, token, hooks=zero),
                    np.zeros(cfg.vocab_size), 24)
    live = AttentionHookBundle(alpha1=12, alpha2=24,
                               truth_prefix=np.zeros(t + 1),
                               truth_targets=np.array([1.0, 0.0]))
    p_live = decide(model.step(boosted, token, hooks=live, record_attention=True),
                    truth_vocab, 24)

    row = boosted.attention_rows[0][2]
    print(f"\nstep {t}: attention row length = {len(row)} "
          f"({len(targets)} targets + {t + 1} prefix), sum = {row.sum():.6f}")
    print(f"  zero-truth pass deviates from plain by "
          f"{np.abs(p_plain - p_zero).max():.2e}")
    print(f"  P(token 5): plain {p_plain[5]:.4f} -> boosted {p_live[5]:.4f}")
