import numpy as np
import pytest

from logicdec.decision import softmax
from logicdec.transformer import (AttentionHookBundle, TinyTransformer,
                                  TransformerConfig, TransformerScorer,
                                  _gelu, _layer_norm, load_weights,
                                  precompute_target_kv, save_weights)

CFG = TransformerConfig(vocab_size=40, n_layers=2, n_heads=2, d_model=32,
                        d_ff=64, max_len=32, seed=7)


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(CFG)


def zero_hooks(prefix_len, n_targets, alpha=(12.0, 24.0)):
    return AttentionHookBundle(
        alpha1=alpha[0], alpha2=alpha[1],
        truth_prefix=np.zeros(prefix_len),
        truth_targets=np.zeros(n_targets) if n_targets else None,
    )


class TestTargetKV:
    def test_shapes(self, model):
        kv = precompute_target_kv(model, [3, 5, 7])
        assert len(kv) == CFG.n_layers
        for keys, values in kv:
            assert keys.shape == (3, CFG.d_model)
            assert values.shape == (3, CFG.d_model)

    def test_positional_invariance(self, model):
        kv_a = precompute_target_kv(model, [3, 5, 7])
        kv_b = precompute_target_kv(model, [7, 3, 5])
        perm = [1, 2, 0]  # positions of tokens 3, 5, 7 within [7, 3, 5]
        for (ka, va), (kb, vb) in zip(kv_a, kv_b):
            assert np.allclose(ka, kb[perm])
            assert np.allclose(va, vb[perm])

    def test_empty_targets_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            precompute_target_kv(model, [])

    def test_single_target_attention_is_one(self, model):
        session = model.begin_session([4])
        model.step(session, 1, record_attention=True)
        for _layer, _head, row in session.attention_rows:
            assert len(row) == 1 + 1  # one target, one prefix position
            assert row.sum() == pytest.approx(1.0, abs=1e-9)


class TestForward:
    def test_distribution_is_valid(self, model):
        session = model.begin_session()
        p = model.step(session, 2)
        assert p.shape == (CFG.vocab_size,)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert (p >= 0).all()

    def test_hooked_pass_with_zero_truth_matches_unhooked(self, model):
        plain = model.begin_session([3, 5])
        hooked = model.begin_session([3, 5])
        for t, token in enumerate([1, 4, 9, 2]):
            p_plain = model.step(plain, token)
            hooks = zero_hooks(t + 1, 2)
            p_hooked = model.step(hooked, token, hooks=hooks)
            assert np.abs(p_plain - p_hooked).max() <= 1e-6

    def test_attention_row_lengths_and_sums(self, model):
        session = model.begin_session([3, 5, 7])
        for t, token in enumerate([1, 4, 9]):
            hooks = zero_hooks(t + 1, 3)
            model.step(session, token, hooks=hooks, record_attention=True)
            rows = session.attention_rows
            assert len(rows) == CFG.n_layers * CFG.n_heads
            for _l, _h, row in rows:
                assert len(row) == 3 + t + 1
                assert abs(row.sum() - 1.0) <= 1e-6

    def test_causality(self, model):
        a = model.begin_session()
        b = model.begin_session()
        p_a = [model.step(a, tok) for tok in [1, 2, 3, 4]]
        p_b = [model.step(b, tok) for tok in [1, 2, 9, 8]]
        # distributions at steps before the divergence are identical
        assert (p_a[0] == p_b[0]).all()
        assert (p_a[1] == p_b[1]).all()
        assert not np.allclose(p_a[2], p_b[2])

    def test_attention_shift_moves_mass_toward_true_targets(self, model):
        session = model.begin_session([3, 5])
        ref = model.begin_session([3, 5])
        model.step(ref, 1, record_attention=True)
        plain_rows = list(ref.attention_rows)
        hooks = AttentionHookBundle(alpha1=0.0, alpha2=30.0,
                                    truth_prefix=np.zeros(1),
                                    truth_targets=np.array([1.0, 0.0]))
        model.step(session, 1, hooks=hooks, record_attention=True)
        for (_, _, plain_row), (_, _, hooked_row) in zip(plain_rows, session.attention_rows):
            assert hooked_row[0] > plain_row[0] - 1e-12

    def test_bad_hook_lengths_rejected(self, model):
        session = model.begin_session([3])
        hooks = AttentionHookBundle(alpha1=1.0, truth_prefix=np.zeros(5),
                                    truth_targets=np.zeros(1))
        with pytest.raises(ValueError, match="prefix truth vector"):
            model.step(session, 1, hooks=hooks)

    def test_sessions_clone_for_forking(self, model):
        session = model.begin_session()
        model.step(session, 1)
        fork = session.clone()
        p_main = model.step(session, 2)
        p_fork = model.step(fork, 2)
        assert (p_main == p_fork).all()
        assert len(session.tokens) == len(fork.tokens) == 2

    def test_scorer_interface(self, model):
        scorer = TransformerScorer(model)
        assert scorer.supports_attention_hooks
        session = scorer.begin_session([3])
        p = scorer.step(session, 1)
        assert abs(p.sum() - 1.0) <= 1e-9


def per_head_loop_reference(model, targets, tokens, hooks):
    """The layer math written out per position and per head over column
    slices; yields each step's distribution and attention rows."""
    cfg, w = model.config, model.weights
    dh = cfg.head_dim

    def mlp(x, layer):
        u2 = _layer_norm(x, w[f"ln2_g_{layer}"], w[f"ln2_b_{layer}"])
        return x + _gelu(u2 @ w[f"w1_{layer}"] + w[f"b1_{layer}"]) @ w[f"w2_{layer}"] + w[f"b2_{layer}"]

    target_k = [[] for _ in range(cfg.n_layers)]
    target_v = [[] for _ in range(cfg.n_layers)]
    for tid in targets:
        x = w["emb"][tid]
        for layer in range(cfg.n_layers):
            u = _layer_norm(x, w[f"ln1_g_{layer}"], w[f"ln1_b_{layer}"])
            target_k[layer].append(u @ w[f"wk_{layer}"])
            target_v[layer].append(u @ w[f"wv_{layer}"])
            x = mlp(x + target_v[layer][-1] @ w[f"wo_{layer}"], layer)
    keys = [[] for _ in range(cfg.n_layers)]
    values = [[] for _ in range(cfg.n_layers)]
    for pos, (token, hook) in enumerate(zip(tokens, hooks)):
        x = w["emb"][token] + w["pos"][pos]
        rows = []
        for layer in range(cfg.n_layers):
            u = _layer_norm(x, w[f"ln1_g_{layer}"], w[f"ln1_b_{layer}"])
            q = u @ w[f"wq_{layer}"]
            keys[layer].append(u @ w[f"wk_{layer}"])
            values[layer].append(u @ w[f"wv_{layer}"])
            K, V = np.stack(keys[layer]), np.stack(values[layer])
            heads = []
            for head in range(cfg.n_heads):
                sl = slice(head * dh, (head + 1) * dh)
                scores_prefix = K[:, sl] @ q[sl] / np.sqrt(dh)
                scores_targets, v_all = np.empty(0), V[:, sl]
                if targets:
                    kc, vc = np.stack(target_k[layer]), np.stack(target_v[layer])
                    scores_targets = kc[:, sl] @ q[sl] / np.sqrt(dh)
                    v_all = np.concatenate([vc[:, sl], V[:, sl]], axis=0)
                row = (hook.shift_row(scores_targets, scores_prefix) if hook is not None
                       else softmax(np.concatenate([scores_targets, scores_prefix])))
                rows.append(row)
                heads.append(row @ v_all)
            x = mlp(x + np.concatenate(heads) @ w[f"wo_{layer}"], layer)
        yield softmax(_layer_norm(x, w["lnf_g"], w["lnf_b"]) @ w["wout"]), rows


class TestBatchedHeads:
    @pytest.mark.parametrize("n_heads, targets", [(2, ()), (2, (3, 9)), (4, (5,)), (1, (2, 8, 11))])
    def test_step_equals_per_head_loop_bitwise(self, n_heads, targets):
        model = TinyTransformer(TransformerConfig(vocab_size=40, n_layers=2, n_heads=n_heads,
                                                  d_model=32, d_ff=64, max_len=32, seed=3))
        rng = np.random.default_rng(n_heads + len(targets))
        tokens = rng.integers(0, 40, size=9).tolist()
        hooks = [AttentionHookBundle(12.0, 24.0, rng.random(t + 1),
                                     rng.random(len(targets)) if targets else None)
                 if t % 3 else None for t in range(len(tokens))]
        session = model.begin_session(targets)
        expected = per_head_loop_reference(model, targets, tokens, hooks)
        for token, hook, (dist, rows) in zip(tokens, hooks, expected):
            got = model.step(session, token, hooks=hook, record_attention=True)
            assert got.tobytes() == dist.tobytes()
            assert [r.tobytes() for _l, _h, r in session.attention_rows] == \
                [r.tobytes() for r in rows]


class TestWeightFile:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        loaded = load_weights(path)
        # the seed is not part of the file; every structural dim must survive
        for attr in ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff", "max_len"):
            assert getattr(loaded.config, attr) == getattr(CFG, attr)
        for name, tensor in model.weights.items():
            assert (loaded.weights[name] == tensor).all()
        a = model.step(model.begin_session(), 1)
        b = loaded.step(loaded.begin_session(), 1)
        assert (a == b).all()

    def test_truncated_file_rejected(self, model, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_weights(path)

    def test_seeded_init_reproducible(self):
        a = TinyTransformer(CFG)
        b = TinyTransformer(CFG)
        for name in a.weights:
            assert (a.weights[name] == b.weights[name]).all()
