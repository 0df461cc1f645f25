import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit import cli, data_io, trainer
from marginfit.data_io import FeatureBundle, save_class_ids, save_labels, save_matrix
from marginfit.errors import (
    ConfigError,
    DimMismatch,
    DivergenceError,
    FormatError,
    InvariantViolation,
    MarginfitError,
    NonFiniteData,
    ZeroNorm,
)
from marginfit.evaluation import _decode_bits, sign_bits
from marginfit.losses import (
    KIND_ADAPTIVE,
    KIND_LMCL,
    KIND_NORM_SOFTMAX,
    MODE_DIVIDE,
    MODE_MULTIPLY,
    LossConfig,
    ProxyBank,
    max_relative_error,
)
from marginfit.margins import (
    ClassTextEmbeddings,
    MarginMatrix,
    build_margin_matrix,
    save_margin_matrix,
)
from marginfit.sampler import BalancedSampler, SamplerConfig
from marginfit.trainer import (
    Checkpoint,
    EmbeddingHead,
    TrainConfig,
    forward_head,
    init,
    load_checkpoint,
    load_train_config,
    lr_at,
    parse_train_config,
    save_checkpoint,
    train,
)


def small_bundle(classes=6, per_class=8, dim=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    feats = rng.standard_normal((labels.size, dim)).astype(np.float32)
    return FeatureBundle(feats, labels, [f"c{i}" for i in range(classes)])


def small_config(**overrides):
    base = dict(
        embed_dim=4,
        lr0=0.05,
        momentum=0.9,
        warmup_iters=2,
        total_iters=10,
        loss=LossConfig(kind=KIND_NORM_SOFTMAX, sigma=20.0),
        sampler=SamplerConfig(batch_size=6, k=2, seed=5),
        proxy_init_seed=11,
        head_init_seed=12,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSchedule:
    def cfg(self, **kw):
        return small_config(lr0=0.01, warmup_iters=3000, total_iters=500_000, **kw)

    def test_reaches_base_lr_at_warmup_end(self):
        assert lr_at(self.cfg(), 3000) == pytest.approx(0.01)

    def test_linear_ramp_start(self):
        assert lr_at(self.cfg(), 0) == pytest.approx(0.01 / 3000)

    def test_gamma_one_is_constant(self):
        cfg = self.cfg(decay_gamma=1.0)
        assert lr_at(cfg, 400_000) == pytest.approx(0.01)

    def test_default_gamma_shrinks_100x(self):
        cfg = self.cfg()
        assert lr_at(cfg, cfg.total_iters) == pytest.approx(0.01 * 0.01, rel=1e-6)

    def test_decay_is_exponential(self):
        cfg = self.cfg(decay_gamma=0.999)
        assert lr_at(cfg, 3001) == pytest.approx(0.01 * 0.999)
        assert lr_at(cfg, 3010) == pytest.approx(0.01 * 0.999**10)


def momentum_step(p, g, v, lr, momentum):
    """trainer._momentum_step on copies; returns the new (p, v)."""
    p, g, v = (np.array(a, np.float32) for a in (p, g, v))
    trainer._momentum_step(p, g, v, lr, momentum)
    return p, v


class TestSgdStep:
    def test_plain_gradient_step(self):
        p, v = momentum_step([2.0], [1.0], [0.0], lr=1.0, momentum=0.0)
        assert p[0] == pytest.approx(1.0)

    def test_velocity_decays_geometrically(self):
        v = np.array([1.0], np.float32)
        p = np.zeros(1, np.float32)
        g = np.zeros(1, np.float32)
        for i in range(1, 4):
            p, v = momentum_step(p, g, v, lr=0.1, momentum=0.9)
            assert v[0] == pytest.approx(0.9**i, rel=1e-5)

    def test_two_step_displacement(self):
        # v1 = 1, v2 = 1.9, total displacement 2.9 (hand-unrolled)
        p = np.array([0.0], np.float32)
        v = np.zeros(1, np.float32)
        g = np.ones(1, np.float32)
        for _ in range(2):
            p, v = momentum_step(p, g, v, lr=1.0, momentum=0.9)
        assert p[0] == pytest.approx(-2.9, rel=1e-6)

    def test_updates_in_place(self):
        p = np.array([2.0, -1.0], np.float32)
        v = np.array([0.5, 0.0], np.float32)
        p_buf, v_buf = p, v
        trainer._momentum_step(p, np.array([1.0, 2.0], np.float32), v, lr=0.5, momentum=0.5)
        assert p is p_buf and v is v_buf
        np.testing.assert_allclose(v, [1.25, 2.0])
        np.testing.assert_allclose(p, [2.0 - 0.625, -2.0])


def hand_head_oracle(rows):
    """Independent pure-python centring + L2 for the orthonormal-weight case."""
    out = []
    for row in rows:
        mu = sum(row) / len(row)
        t = [x - mu for x in row]
        norm = math.sqrt(sum(x * x for x in t))
        out.append([x / norm for x in t])
    return np.array(out, dtype=np.float32)


class TestForwardHead:
    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        head = EmbeddingHead(rng.standard_normal((8, 5)).astype(np.float32),
                             rng.standard_normal(5).astype(np.float32))
        out = forward_head(head, rng.standard_normal((12, 8)).astype(np.float32))
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-5)

    def test_identity_weight_matches_hand_oracle(self):
        feats = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -1.5, 2.0, 0.0]], np.float32)
        head = EmbeddingHead(np.eye(4, dtype=np.float32), np.zeros(4, np.float32))
        np.testing.assert_allclose(forward_head(head, feats), hand_head_oracle(feats), atol=1e-5)

    def test_identical_rows_identical_outputs(self):
        rng = np.random.default_rng(2)
        head = EmbeddingHead(rng.standard_normal((6, 4)).astype(np.float32),
                             np.zeros(4, np.float32))
        row = rng.standard_normal(6).astype(np.float32)
        out = forward_head(head, np.stack([row, row]))
        np.testing.assert_array_equal(out[0], out[1])

    def test_feature_dim_mismatch(self):
        head = EmbeddingHead(np.eye(4, dtype=np.float32), np.zeros(4, np.float32))
        with pytest.raises(DimMismatch):
            forward_head(head, np.ones((2, 5), np.float32))

    def test_constant_row_collapses(self):
        # a row equal in every coordinate is zero after centring
        head = EmbeddingHead(np.eye(4, dtype=np.float32), np.full(4, 0.5, np.float32))
        with pytest.raises(ZeroNorm):
            forward_head(head, np.zeros((2, 4), np.float32))

    def test_float32_norm_overflow_refused_without_warning(self):
        # 3e38 squared overflows float32, so the row's norm is inf; pytest
        # turns any numpy warning into an error
        feats = np.arange(12, dtype=np.float32).reshape(3, 4)
        feats[1, 0] = 3e38
        eye = np.eye(4, dtype=np.float32)
        with pytest.raises(ZeroNorm, match="row 1 has norm inf") as info:
            trainer._head_core(feats, eye, np.zeros(4, np.float32))
        assert info.value.row == 1

    def test_float64_head_normalizes_a_huge_row(self):
        feats = np.zeros((1, 4), np.float32)
        feats[0, 0] = 3e38
        out = forward_head(EmbeddingHead(np.eye(4, dtype=np.float32), np.zeros(4, np.float32)), feats)
        assert abs(np.linalg.norm(out.astype(np.float64)) - 1.0) <= 1e-6


def float64_head(head, feats):
    """The head in float64 numpy: features @ W + b, centred, L2 normalized."""
    h = feats.astype(np.float64) @ head.weight.astype(np.float64) + head.bias.astype(np.float64)
    t = h - h.mean(axis=1, keepdims=True)
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def random_head(rng, features=64, dim=32):
    weight = rng.standard_normal((features, dim)) / math.sqrt(features)
    return EmbeddingHead(weight.astype(np.float32), rng.standard_normal(dim).astype(np.float32))


class TestFloat32Head:
    """forward_head runs the training step's float32 kernel; float64 only for a block it refuses."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_within_1e6_of_float64_head(self, scale):
        rng = np.random.default_rng(11)
        for _ in range(5):
            head = random_head(rng)
            feats = (scale * rng.standard_normal((200, 64))).astype(np.float32)
            out = forward_head(head, feats)
            assert out.dtype == np.float32
            assert np.max(np.abs(out - float64_head(head, feats))) <= 1e-6

    def test_huge_row_in_an_ordinary_block(self):
        rng = np.random.default_rng(12)
        head = random_head(rng)
        feats = rng.standard_normal((9, 64)).astype(np.float32)
        feats[4, 3] = 3e38  # its float32 norm overflows, so the block is redone in float64
        out = forward_head(head, feats)
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)
        assert np.max(np.abs(out - float64_head(head, feats))) <= 1e-6

    def test_float64_runs_only_for_a_refused_block(self, monkeypatch):
        dtypes = []
        real = trainer._head_core

        def spy(feats, w, b):
            dtypes.append((feats.dtype, w.dtype, b.dtype))
            return real(feats, w, b)

        monkeypatch.setattr(trainer, "_head_core", spy)
        head = random_head(np.random.default_rng(13))
        feats = np.ones((3, 64), np.float32)
        forward_head(head, feats)
        assert dtypes == [(np.float32,) * 3]
        feats[1, 0] = 3e38
        dtypes.clear()
        forward_head(head, feats)
        assert dtypes == [(np.float32,) * 3, (np.float64,) * 3]

    def test_peak_allocation_below_the_block(self):
        # a float64 copy of the block alone would take twice its bytes
        rows, cols = 512, 512
        rng = np.random.default_rng(14)
        head = random_head(rng, cols, 128)
        feats = rng.standard_normal((rows, cols)).astype(np.float32)
        forward_head(head, feats)
        tracemalloc.start()
        try:
            forward_head(head, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * cols * 4


def identity_head(m):
    """The embedding head with an identity weight and zero bias: centring, then L2."""
    n = m.shape[1]
    return forward_head(EmbeddingHead(np.eye(n, dtype=np.float32), np.zeros(n, np.float32)), m)


class TestLayerNorm:
    """The head equals a parameterless layer norm followed by L2 normalization."""

    def test_two_four(self):
        # centring gives [-1, 1]; the L2 step rescales it
        out = identity_head(np.array([[2.0, 4.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-math.sqrt(0.5), math.sqrt(0.5)]], atol=1e-6)

    def test_constant_input_collapses(self):
        # centring maps a constant row to zeros, which the L2 step rejects
        with pytest.raises(ZeroNorm):
            identity_head(np.full((1, 4), 7.5, dtype=np.float32))

    def test_one_two_three(self):
        # hand computation: mean 2, centred [-1, 0, 1], then unit norm
        out = identity_head(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-math.sqrt(0.5), 0.0, math.sqrt(0.5)]], atol=1e-6)

    @given(
        hnp.arrays(
            np.float32,
            st.integers(2, 24),
            elements=st.floats(-1e3, 1e3, width=32),
        ).filter(lambda v: np.ptp(v.astype(np.float64)) > 1e-3)
    )
    def test_output_mean_near_zero(self, v):
        out = identity_head(v[None, :])
        assert abs(float(np.mean(out.astype(np.float64)))) <= 1e-5
        assert np.all(np.isfinite(out))

    def test_rows_variant(self):
        # a layer norm's division by the row's standard deviation cancels in the L2 step
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6)).astype(np.float32)
        m64 = m.astype(np.float64)
        t = m64 - m64.mean(axis=1, keepdims=True)
        t /= np.sqrt(np.mean(t**2, axis=1, keepdims=True))
        want = t / np.linalg.norm(t, axis=1, keepdims=True)
        np.testing.assert_allclose(identity_head(m), want, atol=1e-7)


def head_gradients(w, b, feats, cot):
    """The step's head backward on one float32 ``_head_core`` call's t and ||t||."""
    t, tn, _ = trainer._head_core(
        feats.astype(np.float32), w.astype(np.float32), b.astype(np.float32)
    )
    return trainer._head_backward(feats.astype(np.float32), t, tn, cot.astype(np.float32))


class TestBackwardHead:
    def test_zero_cotangent_zero_grads(self):
        rng = np.random.default_rng(3)
        gw, gb = head_gradients(rng.standard_normal((8, 6)), rng.standard_normal(6),
                                rng.standard_normal((4, 8)), np.zeros((4, 6)))
        assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((8, 6))
        b = rng.standard_normal(6)
        feats = rng.standard_normal((4, 8))
        cot = rng.standard_normal((4, 6))
        gw, gb = head_gradients(w, b, feats, cot)

        def f(wv, bv):
            out = trainer._head_core(feats, wv, bv)[2]
            return float(np.sum(cot * out))

        h = 1e-3
        fd_w = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd_w[i, j] = (f(wp, b) - f(wm, b)) / (2 * h)
        fd_b = np.zeros_like(b)
        for j in range(b.size):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            fd_b[j] = (f(w, bp) - f(w, bm)) / (2 * h)

        assert max_relative_error(gw.astype(np.float64), fd_w) <= 1e-4
        assert max_relative_error(gb.astype(np.float64), fd_b) <= 1e-4

    def test_radial_gradient_component_annihilated(self):
        # the output is unit-norm, so a cotangent along it moves nothing
        rng = np.random.default_rng(5)
        w = rng.standard_normal((8, 6))
        b = rng.standard_normal(6)
        feats = rng.standard_normal((4, 8))
        out = trainer._head_core(feats, w, b)[2]
        gw, gb = head_gradients(w, b, feats, rng.standard_normal((4, 1)) * out)
        assert np.max(np.abs(gw)) <= 1e-5 and np.max(np.abs(gb)) <= 1e-5


def quantization_term(p):
    """The float64 oracle of the term in the trainer docstring:
    QUANT_WEIGHT * mean_c ||p_c - s(p_c) / sqrt(D)||^2, s(p) = +1 where p > 0, else -1."""
    p = np.asarray(p, np.float64)
    code = np.where(p > 0.0, 1.0, -1.0) / np.sqrt(p.shape[1])
    return trainer.QUANT_WEIGHT * float(np.sum((p - code) ** 2)) / p.shape[0]


class TestQuantizationPenalty:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal((7, 16))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        h = 1e-4
        # the sign code is piecewise constant; no step may cross a zero
        assert np.min(np.abs(p)) > h
        grad = trainer.quantization_gradient(p)
        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                pp, pm = p.copy(), p.copy()
                pp[i, j] += h
                pm[i, j] -= h
                fd[i, j] = (quantization_term(pp) - quantization_term(pm)) / (2 * h)
        assert max_relative_error(grad, fd) <= 1e-4

    def test_target_code_maps_zeros_like_binarize(self):
        p = np.array([[0.0, 0.5, -0.5, 0.0], [-0.0, -1e-30, 1e-30, 0.7]])
        grad = trainer.quantization_gradient(p)
        code = p - grad / (2.0 * trainer.QUANT_WEIGHT / p.shape[0])
        signs = _decode_bits(sign_bits(p))[:, : p.shape[1]]
        np.testing.assert_array_equal(code, signs / np.sqrt(p.shape[1]))

    def test_training_pulls_proxies_toward_codes(self, monkeypatch):
        bundle, cfg = small_bundle(), small_config(total_iters=200)
        with_term = train(bundle, cfg).proxies.proxies
        monkeypatch.setattr(trainer, "QUANT_WEIGHT", 0.0)
        without_term = train(bundle, cfg).proxies.proxies
        monkeypatch.undo()
        assert quantization_term(with_term) < quantization_term(without_term)


class TestInit:
    def test_proxies_unit_norm(self):
        _, bank = init(small_config(), feature_dim=10, num_classes=6)
        norms = np.linalg.norm(bank.proxies.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-5)

    def test_proxies_are_normalized_draws(self):
        # the Philox draws, rounded to float32, divided by their float64 row norms
        cfg = small_config()
        rng = np.random.Generator(np.random.Philox(key=cfg.proxy_init_seed))
        draws = rng.standard_normal((6, cfg.embed_dim)).astype(np.float32).astype(np.float64)
        want = (draws / np.linalg.norm(draws, axis=1, keepdims=True)).astype(np.float32)
        _, bank = init(cfg, feature_dim=10, num_classes=6)
        np.testing.assert_array_equal(bank.proxies, want)

    def test_bias_exactly_zero(self):
        head, _ = init(small_config(), feature_dim=10, num_classes=6)
        assert np.all(head.bias == 0.0)

    def test_weight_within_bound(self):
        head, _ = init(small_config(), feature_dim=16, num_classes=6)
        assert np.max(np.abs(head.weight)) <= 1.0 / 4.0

    def test_same_seed_same_init(self):
        a_head, a_bank = init(small_config(), 10, 6)
        b_head, b_bank = init(small_config(), 10, 6)
        np.testing.assert_array_equal(a_head.weight, b_head.weight)
        np.testing.assert_array_equal(a_bank.proxies, b_bank.proxies)


class TestTrainLoop:
    def test_zero_iterations_equals_init(self):
        bundle = small_bundle()
        cfg = small_config(total_iters=0, warmup_iters=0)
        ckpt = train(bundle, cfg)
        head, bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
        np.testing.assert_array_equal(ckpt.head.weight, head.weight)
        np.testing.assert_array_equal(ckpt.proxies.proxies, bank.proxies)
        assert ckpt.iteration == 0

    def test_deterministic_checkpoints(self, tmp_path):
        bundle = small_bundle()
        cfg = small_config(total_iters=12)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(train(bundle, cfg), p1)
        save_checkpoint(train(bundle, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_lr_never_changes_params(self):
        bundle = small_bundle()
        cfg = small_config(lr0=0.0, total_iters=8)
        ckpt = train(bundle, cfg)
        head, bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
        np.testing.assert_array_equal(ckpt.head.weight, head.weight)
        np.testing.assert_array_equal(ckpt.head.bias, head.bias)
        np.testing.assert_array_equal(ckpt.proxies.proxies, bank.proxies)

    def test_proxies_stay_unit_norm(self):
        ckpt = train(small_bundle(), small_config(total_iters=15))
        norms = np.linalg.norm(ckpt.proxies.proxies.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-5)

    def test_loss_history_sampling_and_callback(self):
        seen = []
        cfg = small_config(total_iters=250)
        train(small_bundle(), cfg, on_iteration=lambda t, lr, loss: seen.append((t, lr, loss)))
        assert [t for t, _, _ in seen] == list(range(250))
        assert all(lr == lr_at(cfg, t) for t, lr, _ in seen)
        assert all(np.isfinite(loss) for _, _, loss in seen)

    def test_identical_loss_history_across_runs(self):
        cfg = small_config(total_iters=30)
        h1, h2 = [], []
        train(small_bundle(), cfg, on_iteration=lambda t, lr, loss: h1.append(loss))
        train(small_bundle(), cfg, on_iteration=lambda t, lr, loss: h2.append(loss))
        assert len(h1) == 30 and h1 == h2

    def test_validates_the_bundle(self):
        bundle = small_bundle()
        bundle.features[3, 1] = np.nan
        with pytest.raises(NonFiniteData):
            train(bundle, small_config())

    def test_first_non_finite_row_named_across_blocks(self, monkeypatch):
        bundle = small_bundle()
        bundle.features[[20, 31]] = np.nan  # blocks of 3 rows: row 20 is row 2 of block 7
        bundle.features[11, 4] = np.inf
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 3 * bundle.feature_dim * 4)
        with pytest.raises(NonFiniteData, match=r"^feature row 11 contains NaN or Inf$"):
            train(bundle, small_config())

    def test_finiteness_scan_holds_no_row_mask_of_the_features(self):
        rows, cols = 16384, 64
        feats = np.ones((rows, cols), np.float32)
        feats[rows - 1, cols - 1] = np.nan
        bundle = FeatureBundle(feats, np.arange(rows) % 4, ["a", "b", "c", "d"])
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteData, match=f"feature row {rows - 1} "):
                train(bundle, small_config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * cols / 2  # an N x F bool mask is rows * cols bytes

    def test_zero_row_warns(self):
        # small classes warn first, then all-zero rows; a zero row drawn in a
        # batch collapses the head (ZeroNorm), so no iteration runs here
        labels = np.array([0] * 8 + [1] * 8 + [2])
        feats = np.random.default_rng(0).standard_normal((labels.size, 10)).astype(np.float32)
        feats[1] = 0.0
        warnings = []
        train(
            FeatureBundle(feats, labels, ["a", "b", "c"]),
            small_config(total_iters=0, warmup_iters=0),
            on_warning=warnings.append,
        )
        assert any("all zeros" in w for w in warnings)
        assert warnings == [
            "class 'c' has 1 samples < k=2; sampler will draw with replacement",
            "feature row 1 is all zeros",
        ]

    @pytest.mark.parametrize("huge", [False, True], ids=["zero_row", "3e38"])
    def test_row_the_head_cannot_normalize_named_in_the_bundle(self, huge):
        # the batch row the head refuses is reported as its bundle row and
        # the iteration that drew it
        bundle, cfg = small_bundle(), small_config()
        batch = BalancedSampler(bundle, cfg.sampler).batches(0, 1)
        pos, row = 3, int(batch.sample_indices[0, 3])
        if huge:
            bundle.features[row, 0] = 3e38
        else:
            bundle.features[row] = 0.0
        with pytest.raises(ZeroNorm) as info:
            train(bundle, cfg)
        assert str(info.value).startswith(
            f"feature row {row} cannot be normalized by the head at iteration 0: batch row {pos} "
        )

    def test_warnings_reach_callback_before_first_iteration(self):
        labels = np.array([0] * 8 + [1] * 8 + [2])
        feats = np.random.default_rng(0).standard_normal((labels.size, 10)).astype(np.float32)
        events = []
        train(
            FeatureBundle(feats, labels, ["a", "b", "c"]),
            small_config(total_iters=2, warmup_iters=1),
            on_iteration=lambda t, lr, loss: events.append(t),
            on_warning=events.append,
        )
        assert events == [
            "class 'c' has 1 samples < k=2; sampler will draw with replacement", 0, 1
        ]

    def test_adaptive_requires_margins(self):
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE))
        with pytest.raises(ConfigError):
            train(small_bundle(), cfg)

    def test_margin_rule_checked_before_the_data(self):
        bundle = small_bundle()
        bundle.features[3, 1] = np.nan
        with pytest.raises(ConfigError, match="requires a margin matrix"):
            train(bundle, small_config(loss=LossConfig(kind=KIND_ADAPTIVE)))

    def test_margins_rejected_for_plain_loss(self):
        with pytest.raises(ConfigError):
            train(small_bundle(), small_config(), margin_matrix=np.zeros((6, 6), np.float32))

    def test_margin_shape_checked(self):
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE))
        with pytest.raises(InvariantViolation):
            train(small_bundle(), cfg, margin_matrix=np.zeros((3, 3), np.float32))

    def test_raw_margins_checked_before_the_first_iteration(self, bad_margins):
        bundle = small_bundle()
        d = bad_margins(bundle.num_classes)
        with pytest.raises(MarginfitError) as expected:
            MarginMatrix(d, bundle.class_ids)
        iterations = []
        with pytest.raises(MarginfitError, match=re.escape(str(expected.value))) as raised:
            train(
                bundle,
                small_config(loss=LossConfig(kind=KIND_ADAPTIVE)),
                margin_matrix=d,
                on_iteration=lambda t, lr, loss: iterations.append(t),
            )
        assert type(raised.value) is type(expected.value)
        assert iterations == []

    def test_class_without_rows_rejected(self):
        labels = np.repeat([0, 2], 8)
        feats = np.random.default_rng(0).standard_normal((labels.size, 10)).astype(np.float32)
        with pytest.raises(InvariantViolation, match=r"no samples: \['b'\]"):
            train(FeatureBundle(feats, labels, ["a", "b", "c"]), small_config())

    def test_margin_rows_follow_bundle_ids(self, tmp_path):
        bundle = small_bundle()
        text = np.random.default_rng(4).standard_normal((6, 5)).astype(np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(text, bundle.class_ids))
        perm = [3, 1, 5, 0, 2, 4]
        permuted = MarginMatrix(
            m.d[np.ix_(perm, perm)], [m.class_ids[i] for i in perm], m.metric, m.norm_mode
        )
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4))
        save_checkpoint(train(bundle, cfg, m), tmp_path / "aligned.ckpt")
        save_checkpoint(train(bundle, cfg, permuted), tmp_path / "permuted.ckpt")
        assert (tmp_path / "aligned.ckpt").read_bytes() == (tmp_path / "permuted.ckpt").read_bytes()

    def test_margins_only_read(self):
        bundle = small_bundle()
        text = np.random.default_rng(4).standard_normal((6, 5)).astype(np.float32)
        m = build_margin_matrix(ClassTextEmbeddings(text, bundle.class_ids))
        before = m.d.copy()
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4))
        head, bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
        step = trainer._Step(head, bank, cfg, m.d, bundle.features)
        assert step.margins is m.d
        train(bundle, cfg, m)
        assert m.d.tobytes() == before.tobytes()

    def test_adaptive_train_holds_one_margin_matrix(self, tmp_path):
        # the CLI's adaptive run against its lmcl run on the same data: the
        # difference is the margins, held once, and their (B, C) slope rows
        c, per_class = 2000, 2
        rng = np.random.default_rng(15)
        save_matrix(rng.standard_normal((c * per_class, 8)).astype(np.float32), tmp_path / "f.emb")
        save_labels(np.repeat(np.arange(c), per_class), c, tmp_path / "f.lbl")
        ids = [f"c{i}" for i in range(c)]
        save_class_ids(ids, tmp_path / "ids.txt")
        text = rng.standard_normal((c, 8)).astype(np.float32)
        save_margin_matrix(build_margin_matrix(ClassTextEmbeddings(text, ids)), tmp_path / "m.mgn")
        peaks = {}
        for kind, extra in (("lmcl", []), ("adaptive", ["--margins", str(tmp_path / "m.mgn")])):
            (tmp_path / f"{kind}.cfg").write_text(
                f"embed_dim = 4\nwarmup_iters = 1\ntotal_iters = 3\nloss_kind = {kind}\n"
                "batch_size = 4\nk = 2\n",
                encoding="utf-8",
            )
            argv = ["train", "--config", str(tmp_path / f"{kind}.cfg"),
                    "--features", str(tmp_path / "f.emb"), "--labels", str(tmp_path / "f.lbl"),
                    "--class-ids", str(tmp_path / "ids.txt"), *extra,
                    "--out", str(tmp_path / f"{kind}.ckpt")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["adaptive"] < peaks["lmcl"] + 1.25 * c * c * 4

    def test_adaptive_training_runs(self):
        bundle = small_bundle()
        dmat = np.full((6, 6), 0.3, np.float32)
        np.fill_diagonal(dmat, 0.0)
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4))
        ckpt = train(bundle, cfg, margin_matrix=dmat)
        assert ckpt.iteration == cfg.total_iters

    def test_call_runs_iteration_t_on_batch_t(self):
        # oracle: manual gradients, then per-array momentum (v = m * v + g;
        # p -= lr * v) and renorm, on batches 3, 4 and 5 in turn; from the
        # second step on the velocities are nonzero
        bundle = small_bundle()
        text = np.random.default_rng(4).standard_normal((6, 5)).astype(np.float32)
        dmat = build_margin_matrix(ClassTextEmbeddings(text, bundle.class_ids)).d
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4))

        head, bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
        manual = trainer._Step(head, bank, cfg, dmat, bundle.features)
        params = (head.weight, head.bias, bank.proxies)
        velocities = [np.zeros_like(a) for a in params]
        fresh_head, fresh_bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
        step = trainer._Step(fresh_head, fresh_bank, cfg, dmat, bundle.features)
        block = BalancedSampler(bundle, cfg.sampler).batches(3, 3)
        for t, rows, labels in zip(range(3, 6), block.sample_indices, block.labels):
            losses, gw, gb, gp = manual.gradients(bundle.features[rows], labels)
            lr = lr_at(cfg, t)
            gq = trainer.quantization_gradient(bank.proxies) + gp
            for param, grad, velocity in zip(params, (gw, gb, gq), velocities):
                velocity *= cfg.momentum
                velocity += grad
                param -= lr * velocity
            trainer._renormalize_rows(bank.proxies)

            assert step(t, rows, labels) == (lr, float(losses.mean()))
            np.testing.assert_array_equal(fresh_head.weight, head.weight)
            np.testing.assert_array_equal(fresh_head.bias, head.bias)
            np.testing.assert_array_equal(fresh_bank.proxies, bank.proxies)
            assert step.velocity.tobytes() == b"".join(v.tobytes() for v in velocities)
        assert all(v.any() for v in velocities)

    def test_blocks_and_resume_match_single_iterations(self):
        # batch t is keyed by (seed, t) alone, so the block a batch comes from
        # must not matter: train's loop across two block boundaries, a fresh
        # step per iteration, and a fresh step resumed mid-block at t = 19,
        # each drawing every batch alone, agree bit for bit. Each fresh step
        # starts from copies of the running parameters and velocities.
        bundle = small_bundle()
        text = np.random.default_rng(4).standard_normal((6, 5)).astype(np.float32)
        dmat = build_margin_matrix(ClassTextEmbeddings(text, bundle.class_ids)).d
        end = 2 * trainer.BATCH_BLOCK + 3
        cfg = small_config(
            total_iters=end, loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4)
        )
        sampler = BalancedSampler(bundle, cfg.sampler)

        def run(fresh_at):
            head, bank = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
            step = trainer._Step(head, bank, cfg, dmat, bundle.features)
            for t in range(end):
                if t in fresh_at:
                    params = [a.copy() for a in (step.w, step.b, step.p)]
                    velocity = step.velocity.copy()
                    head = EmbeddingHead(params[0], params[1])
                    bank = ProxyBank(params[2], bank.class_ids)
                    step = trainer._Step(head, bank, cfg, dmat, bundle.features)
                    step.velocity[...] = velocity
                batch = sampler.batches(t, 1)
                step(t, batch.sample_indices[0], batch.labels[0])
            return [a.tobytes() for a in (step.w, step.b, step.p)]

        ckpt = train(bundle, cfg, dmat)
        whole = [a.tobytes() for a in (ckpt.head.weight, ckpt.head.bias, ckpt.proxies.proxies)]
        assert run(set(range(end))) == whole
        assert run({19}) == whole

    @pytest.mark.parametrize("block", [1, 7, 16])
    def test_batch_block_size_changes_no_byte(self, tmp_path, monkeypatch, block):
        # 35 iterations leave every one of these block sizes a short last block
        bundle = small_bundle()
        text = np.random.default_rng(4).standard_normal((6, 5)).astype(np.float32)
        dmat = build_margin_matrix(ClassTextEmbeddings(text, bundle.class_ids)).d
        cfg = small_config(
            total_iters=35, loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4)
        )

        def run(name):
            stream = []
            ckpt = train(bundle, cfg, dmat, on_iteration=lambda *event: stream.append(event))
            save_checkpoint(ckpt, tmp_path / name)
            return (tmp_path / name).read_bytes(), stream

        expected = run("default.ckpt")
        monkeypatch.setattr(trainer, "BATCH_BLOCK", block)
        got = run(f"block{block}.ckpt")
        assert got == expected
        assert [t for t, _, _ in got[1]] == list(range(35))

    def test_divergence_detected(self, monkeypatch):
        real = trainer._forward_backward

        def nan_loss(*args, **kwargs):
            losses, grad_x, grad_p = real(*args, **kwargs)
            return np.full_like(losses, np.nan), grad_x, grad_p

        monkeypatch.setattr(trainer, "_forward_backward", nan_loss)
        with pytest.raises(DivergenceError):
            train(small_bundle(), small_config(total_iters=3))

    def test_end_to_end_gradient_through_head(self):
        # criterion-4 shape: the step's loss(head(features)) gradient vs
        # finite differences on W
        rng = np.random.default_rng(9)
        batch, feat_dim, embed_dim, classes = 4, 8, 6, 5
        feats = rng.standard_normal((batch, feat_dim))
        w = rng.standard_normal((feat_dim, embed_dim)) * 0.5
        b = rng.standard_normal(embed_dim) * 0.1
        labels = rng.integers(0, classes, batch)
        proxies32 = np.linalg.qr(rng.standard_normal((embed_dim, embed_dim)))[0][
            :classes
        ].astype(np.float32)
        bank = ProxyBank(proxies32)
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, sigma=20.0)

        head = EmbeddingHead(w.astype(np.float32), b.astype(np.float32))
        train_cfg = TrainConfig(embed_dim=embed_dim, loss=cfg, sampler=SamplerConfig(batch, 1))
        step = trainer._Step(head, bank, train_cfg, None, feats.astype(np.float32))
        _, gw, _, _ = step.gradients(feats.astype(np.float32), labels)

        from marginfit import losses as losses_mod

        p64 = proxies32.astype(np.float64)
        pos = losses_mod._positives(labels, classes)

        def f(wv):
            emb64 = trainer._head_core(feats, wv, b)[2]
            per = losses_mod._forward(emb64, p64, pos, cfg.tau, 0.0, cfg.tau)[3]
            return float(per.mean())

        h = 1e-3
        fd_w = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd_w[i, j] = (f(wp) - f(wm)) / (2 * h)
        assert max_relative_error(gw.astype(np.float64), fd_w) <= 1e-4


    @pytest.mark.parametrize("mode", [MODE_MULTIPLY, MODE_DIVIDE])
    def test_adaptive_with_zero_margins_is_lmcl_bit_for_bit(self, mode):
        # d = 0 makes every adaptive logit the constant-margin one, so the
        # float32 step must run the very same arithmetic for both kinds
        batch, feat_dim, embed_dim, classes = 12, 10, 6, 7
        for seed in range(25):
            rng = np.random.default_rng(seed)
            feats = rng.standard_normal((batch, feat_dim)).astype(np.float32)
            labels = rng.integers(0, classes, batch)
            head = EmbeddingHead(
                rng.standard_normal((feat_dim, embed_dim)).astype(np.float32),
                rng.standard_normal(embed_dim).astype(np.float32),
            )
            proxies = rng.standard_normal((classes, embed_dim))
            bank = ProxyBank(proxies / np.linalg.norm(proxies, axis=1, keepdims=True))
            got = {}
            zero_d = np.zeros((classes, classes))
            for kind, margins in ((KIND_LMCL, None), (KIND_ADAPTIVE, zero_d)):
                loss = LossConfig(kind=kind, sigma=20.0, margin=0.4, temperature_mode=mode)
                cfg = TrainConfig(embed_dim=embed_dim, loss=loss, sampler=SamplerConfig(batch, 1))
                step = trainer._Step(head, bank, cfg, margins, feats)
                got[kind] = [a.copy() for a in step.gradients(feats, labels)]
            for want, have in zip(got[KIND_LMCL], got[KIND_ADAPTIVE]):
                assert have.tobytes() == want.tobytes()


class TestCheckpointFile:
    def make_ckpt(self):
        bundle = small_bundle()
        return train(bundle, small_config(total_iters=5))

    def test_round_trip(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.head.weight, ckpt.head.weight)
        np.testing.assert_array_equal(loaded.head.bias, ckpt.head.bias)
        np.testing.assert_array_equal(loaded.proxies.proxies, ckpt.proxies.proxies)
        assert loaded.iteration == ckpt.iteration

    def test_round_trip_byte_identical(self, tmp_path):
        ckpt = self.make_ckpt()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"ZZZZ" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_block_names_path(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        # magic (4) + weight block magic and shape (12), then 14 payload bytes
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(FormatError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        assert "weight payload" in message and "got 14" in message

    def test_proxies_not_head_wide_refused(self, tmp_path):
        head, _ = init(TrainConfig(embed_dim=3), 4, 5)  # a 4 x 3 head
        path = tmp_path / "c.ckpt"
        save_checkpoint(Checkpoint(head, ProxyBank(np.eye(5, dtype=np.float32)), 0), path)
        with pytest.raises(FormatError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == f"{path}: proxies block must be 3 wide, got (5, 5)"


class TestConfigFile:
    GOOD = """
# synthetic run
embed_dim = 32
lr0 = 0.01
momentum = 0.9
warmup_iters = 100
total_iters = 2000
loss_kind = adaptive
sigma = 20
margin = 0.4
temperature_mode = multiply
batch_size = 75
k = 5
seed = 3
proxy_init_seed = 4
head_init_seed = 5
"""

    def test_parse_good_config(self):
        cfg = parse_train_config(self.GOOD)
        assert cfg.embed_dim == 32
        assert cfg.loss.kind == KIND_ADAPTIVE
        assert cfg.sampler.batch_size == 75
        assert cfg.decay_gamma is None
        assert cfg.resolved_decay_gamma == pytest.approx(0.01 ** (1 / 1900))

    def test_defaults_come_from_the_dataclasses(self):
        assert parse_train_config("embed_dim = 8") == TrainConfig(embed_dim=8)

    def test_every_key_lands_on_its_field(self):
        text = """
embed_dim = 16
lr0 = 0.25
momentum = 0.5
warmup_iters = 7
decay_gamma = 0.75
total_iters = 70
loss_kind = lmcl
sigma = 3.5
margin = 0.125
temperature_mode = divide
batch_size = 12
k = 3
seed = 9
proxy_init_seed = 10
head_init_seed = 11
"""
        assert parse_train_config(text) == TrainConfig(
            embed_dim=16,
            lr0=0.25,
            momentum=0.5,
            warmup_iters=7,
            decay_gamma=0.75,
            total_iters=70,
            loss=LossConfig(kind="lmcl", sigma=3.5, margin=0.125, temperature_mode="divide"),
            sampler=SamplerConfig(batch_size=12, k=3, seed=9),
            proxy_init_seed=10,
            head_init_seed=11,
        )

    @pytest.mark.parametrize("lr0", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_lr0_rejected(self, lr0):
        with pytest.raises(ConfigError):
            parse_train_config(f"embed_dim = 8\nlr0 = {lr0}\n")

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("embed_dim = 1", "embed_dim must be at least 2 (centring needs it)"),
            ("embed_dim = 8\nmomentum = 1", "momentum must be in [0, 1), got 1.0"),
            ("embed_dim = 8\nmomentum = -0.1", "momentum must be in [0, 1), got -0.1"),
            ("embed_dim = 8\nwarmup_iters = -1", "iteration counts must be non-negative"),
            ("embed_dim = 8\ntotal_iters = -1", "iteration counts must be non-negative"),
            (
                "embed_dim = 8\nwarmup_iters = 11\ntotal_iters = 10",
                "warmup_iters must not exceed total_iters",
            ),
            ("embed_dim = 8\ndecay_gamma = 0", "decay_gamma must be in (0, 1], got 0.0"),
            ("embed_dim = 8\ndecay_gamma = 1.5", "decay_gamma must be in (0, 1], got 1.5"),
            ("embed_dim = 8\nlr0 0.1", "line 2: expected 'key = value', got 'lr0 0.1'"),
        ],
    )
    def test_config_rule_refused_with_its_message(self, lines, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_train_config(lines + "\n")

    def test_no_decay_span_keeps_lr_flat(self):
        cfg = parse_train_config("embed_dim = 8\nwarmup_iters = 10\ntotal_iters = 10\n")
        assert cfg.resolved_decay_gamma == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_train_config("embed_dim = 8\nnesterov = yes\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_train_config("embed_dim = 8\nembed_dim = 9\n")

    def test_missing_embed_dim_rejected(self):
        with pytest.raises(ConfigError):
            parse_train_config("lr0 = 0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_train_config("embed_dim = eight\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(self.GOOD, encoding="utf-8")
        assert load_train_config(path).embed_dim == 32
