import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logicdec.decision import softmax
from logicdec.transformer import (AttentionHookBundle, TinyTransformer,
                                  TransformerConfig, TransformerScorer,
                                  WeightsError, _gelu, _layer_norm, load_weights,
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

    @pytest.mark.parametrize("target", [-1, CFG.vocab_size])
    def test_target_outside_the_vocabulary_rejected(self, model, target):
        with pytest.raises(ValueError, match=f"target id {target} outside vocabulary"):
            precompute_target_kv(model, [3, target])

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


def shift_row(hooks, scores_targets: np.ndarray, scores_prefix: np.ndarray) -> np.ndarray:
    """Shifted joint attention row over ``[targets : prefix]``: the per-row
    form of the hooked softmax that ``step_batch`` applies to a whole block."""
    scores = np.concatenate([scores_targets, scores_prefix])
    joint = softmax(scores)
    m = len(scores_targets)
    boost = np.zeros_like(scores)
    if m and hooks.truth_targets is not None:
        if len(hooks.truth_targets) != m:
            raise ValueError("target truth vector does not match target count")
        boost[:m] = hooks.alpha2 * hooks.truth_targets * joint[:m]
    if hooks.truth_prefix is not None:
        if len(hooks.truth_prefix) != len(scores_prefix):
            raise ValueError("prefix truth vector does not match prefix length")
        boost[m:] = hooks.alpha1 * hooks.truth_prefix * joint[m:]
    row = softmax(scores + boost)
    if not np.isfinite(row).all() or abs(float(row.sum()) - 1.0) > 1e-6:
        raise ValueError("attention hook produced a non-distribution row")
    return row


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
                row = (shift_row(hook, scores_targets, scores_prefix) if hook is not None
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


# A batched row may differ from the same row stepped alone in the last bits:
# the batch multiplies by a matrix (BLAS gemm) where one row uses gemv.
# Measured differences are a few 1e-16; anything near this bound is a bug.
BATCH_TOLERANCE = 1e-12


class TestStepBatch:
    def test_empty_batch_is_empty(self, model):
        assert model.step_batch([], []) == []

    @pytest.mark.parametrize("tokens, hooks", [([1], None), ([1, 2], [None])])
    def test_counts_must_agree(self, model, tokens, hooks):
        sessions = [model.begin_session(), model.begin_session()]
        with pytest.raises(ValueError, match="differ in number"):
            model.step_batch(sessions, tokens, hooks)

    def test_target_counts_must_agree(self, model):
        sessions = [model.begin_session([3]), model.begin_session([3, 5])]
        with pytest.raises(ValueError, match="equal target counts"):
            model.step_batch(sessions, [1, 2])

    def test_step_at_max_len_rejected(self, model):
        session = model.begin_session()
        for token in range(CFG.max_len):
            model.step(session, token % CFG.vocab_size)
        with pytest.raises(ValueError, match=f"exceeds max length {CFG.max_len}"):
            model.step(session, 1)
        assert len(session.tokens) == CFG.max_len  # unchanged by the refused step

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 24), n_targets=st.integers(0, 3),
           prefix_len=st.integers(1, 6), hooked=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_step_batch_equals_loop_of_step(self, model, batch, n_targets, prefix_len,
                                            hooked, seed):
        rng = np.random.default_rng(seed)
        targets = tuple(int(t) for t in rng.integers(0, CFG.vocab_size, size=n_targets))
        parent = model.begin_session(targets)
        for token in rng.integers(0, CFG.vocab_size, size=prefix_len):
            model.step(parent, int(token))
        tokens = [int(t) for t in rng.integers(0, CFG.vocab_size, size=batch)]
        length = prefix_len + 1
        hooks = [AttentionHookBundle(float(rng.uniform(0, 30)), float(rng.uniform(0, 30)),
                                     rng.random(length),
                                     rng.random(n_targets) if n_targets else None)
                 if hooked and rng.random() < 0.8 else None for _ in range(batch)]
        cache = [k.copy() for k in parent.keys] + [v.copy() for v in parent.values]
        parent_tokens = list(parent.tokens)

        batched = [parent.clone() for _ in range(batch)]
        got = model.step_batch(batched, tokens, hooks, record_attention=True)
        looped = [parent.clone() for _ in range(batch)]
        want = [model.step(s, t, hooks=h, record_attention=True)
                for s, t, h in zip(looped, tokens, hooks)]

        assert len(got) == batch
        for b in range(batch):
            rows_got = [r for _l, _h, r in batched[b].attention_rows]
            rows_want = [r for _l, _h, r in looped[b].attention_rows]
            assert len(rows_got) == len(rows_want) == CFG.n_layers * CFG.n_heads
            if batch == 1:
                assert got[b].tobytes() == want[b].tobytes()
                assert [r.tobytes() for r in rows_got] == [r.tobytes() for r in rows_want]
            else:
                assert np.abs(got[b] - want[b]).max() <= BATCH_TOLERANCE
                for r_got, r_want in zip(rows_got, rows_want):
                    assert np.abs(r_got - r_want).max() <= BATCH_TOLERANCE
            assert batched[b].tokens == parent_tokens + [tokens[b]]
        assert parent.tokens == parent_tokens
        assert all((a == b).all() for a, b in zip(list(parent.keys) + list(parent.values), cache))

    def test_unequal_lengths_rejected(self, model):
        short, long = model.begin_session(), model.begin_session()
        model.step(long, 1)
        with pytest.raises(ValueError, match="equal length"):
            model.step_batch([short, long], [2, 3])
        assert short.tokens == [] and long.tokens == [1]

    @pytest.mark.parametrize("bad", [True, 1.0, np.float64(1.0)],
                             ids=["bool", "float", "numpy-float"])
    def test_tokens_that_are_not_integers_rejected(self, model, bad):
        # True once ran as token 1 and 1.0 raised a bare IndexError
        sessions = [model.begin_session(), model.begin_session()]
        with pytest.raises(ValueError, match=f"token id {re.escape(repr(bad))} is not an integer"):
            model.step_batch(sessions, [bad, 2])
        assert all(s.tokens == [] for s in sessions)

    @pytest.mark.parametrize("alpha1, prefix, targets, problem", [
        (1.0, np.zeros(3), np.zeros(2), "prefix truth vector"),
        (1.0, np.zeros(2), np.zeros(1), "target truth vector"),
        (np.inf, np.ones(2), np.zeros(2), "non-distribution row"),
    ])
    def test_bad_hooks_rejected_in_a_batch(self, model, alpha1, prefix, targets, problem):
        parent = model.begin_session([3, 5])
        model.step(parent, 1)
        sessions = [parent.clone(), parent.clone()]
        hooks = [None, AttentionHookBundle(alpha1, 1.0, prefix, targets)]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=problem):
            model.step_batch(sessions, [2, 4], hooks)
        assert all(s.tokens == [1] for s in sessions)


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

    @pytest.mark.parametrize("cut, dims, problem", [
        (4, None, "truncated"),                       # the magic alone
        (20, None, "truncated"),                      # header cut inside the dims
        (None, (40, 2, 0, 32, 64, 32), "n_heads must be >= 1"),
        (None, (0, 0, 0, 0, 0, 0), "must be >= 1"),
        (None, (40, 2, 3, 32, 64, 32), "divisible"),
        (None, (40, 2**32 - 1, 2, 32, 64, 32), "truncated"),
        (None, (2**32 - 1, 2, 2, 2**32 - 2, 64, 32), "truncated"),
    ])
    def test_malformed_header_rejected(self, model, tmp_path, cut, dims, problem):
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        blob = path.read_bytes()
        if cut is not None:
            blob = blob[:cut]
        if dims is not None:
            blob = blob[:6] + struct.pack("<6I", *dims) + blob[30:]
        path.write_bytes(blob)
        with pytest.raises(WeightsError, match=problem) as err:
            load_weights(path)
        assert str(path) in str(err.value)

    def test_named_tensor_and_trailing_bytes(self, model, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(WeightsError, match="truncated") as err:
            load_weights(path)
        assert err.value.section == "tensor 'wout'"
        path.write_bytes(blob + b"\0")
        with pytest.raises(WeightsError, match="trailing bytes"):
            load_weights(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupt_weights_load_or_raise_weights_error(self, model, tmp_path, data):
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        blob = path.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "append", "dims"]))
        if kind == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        elif kind == "append":
            blob = blob + data.draw(st.binary(min_size=1, max_size=16))
        else:
            dims = data.draw(st.lists(st.one_of(st.integers(0, 80), st.integers(0, 2**32 - 1)),
                                      min_size=6, max_size=6))
            blob = blob[:6] + struct.pack("<6I", *dims) + blob[30:]
        path.write_bytes(blob)
        try:
            loaded = load_weights(path)
        except WeightsError:
            return
        assert isinstance(loaded, TinyTransformer)

    def test_missing_or_misshaped_tensor_rejected(self, model):
        weights = dict(model.weights)
        del weights["wout"]
        with pytest.raises(ValueError, match="missing weight tensor 'wout'"):
            TinyTransformer(CFG, weights)
        weights["wout"] = model.weights["wout"][:, :-1]
        with pytest.raises(ValueError, match="weight 'wout' has shape"):
            TinyTransformer(CFG, weights)

    def test_unsupported_version_rejected(self, model, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<H", 2) + blob[6:])
        with pytest.raises(WeightsError, match="unsupported weight version 2") as err:
            load_weights(path)
        assert err.value.section == "header"

    def test_seeded_init_reproducible(self):
        a = TinyTransformer(CFG)
        b = TinyTransformer(CFG)
        for name in a.weights:
            assert (a.weights[name] == b.weights[name]).all()
