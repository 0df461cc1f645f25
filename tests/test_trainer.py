import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginfit import trainer
from marginfit.data_io import FeatureBundle
from marginfit.errors import (
    ConfigError,
    DimMismatch,
    DivergenceError,
    FormatError,
    MarginShapeMismatch,
    NonFiniteData,
    ZeroNorm,
)
from marginfit.evaluation import sign_codes
from marginfit.losses import (
    KIND_ADAPTIVE,
    KIND_NORM_SOFTMAX,
    LossConfig,
    ProxyBank,
    max_relative_error,
)
from marginfit.sampler import SamplerConfig
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


class TestQuantizationPenalty:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal((7, 16))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        h = 1e-4
        # the sign code is piecewise constant; no step may cross a zero
        assert np.min(np.abs(p)) > h
        _, grad = trainer.quantization_penalty(p)
        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                pp, pm = p.copy(), p.copy()
                pp[i, j] += h
                pm[i, j] -= h
                fd[i, j] = (
                    trainer.quantization_penalty(pp)[0] - trainer.quantization_penalty(pm)[0]
                ) / (2 * h)
        assert max_relative_error(grad, fd) <= 1e-4

    def test_target_code_maps_zeros_like_binarize(self):
        p = np.array([[0.0, 0.5, -0.5, 0.0], [-0.0, -1e-30, 1e-30, 0.7]])
        _, grad = trainer.quantization_penalty(p)
        code = p - grad / (2.0 * trainer.QUANT_WEIGHT / p.shape[0])
        np.testing.assert_array_equal(code, sign_codes(p) / np.sqrt(p.shape[1]))

    def test_training_pulls_proxies_toward_codes(self, monkeypatch):
        bundle, cfg = small_bundle(), small_config(total_iters=200)
        with_term = train(bundle, cfg).proxies.proxies
        monkeypatch.setattr(trainer, "QUANT_WEIGHT", 0.0)
        without_term = train(bundle, cfg).proxies.proxies
        monkeypatch.undo()

        def penalty(p):
            return trainer.quantization_penalty(p.astype(np.float64))[0]

        assert penalty(with_term) < penalty(without_term)


class TestInit:
    def test_proxies_unit_norm(self):
        _, bank, _ = init(small_config(), feature_dim=10, num_classes=6)
        norms = np.linalg.norm(bank.proxies.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-5)

    def test_proxies_are_normalized_draws(self):
        # the Philox draws, rounded to float32, divided by their float64 row norms
        cfg = small_config()
        rng = np.random.Generator(np.random.Philox(key=cfg.proxy_init_seed))
        draws = rng.standard_normal((6, cfg.embed_dim)).astype(np.float32).astype(np.float64)
        want = (draws / np.linalg.norm(draws, axis=1, keepdims=True)).astype(np.float32)
        _, bank, _ = init(cfg, feature_dim=10, num_classes=6)
        np.testing.assert_array_equal(bank.proxies, want)

    def test_bias_exactly_zero(self):
        head, _, _ = init(small_config(), feature_dim=10, num_classes=6)
        assert np.all(head.bias == 0.0)

    def test_weight_within_bound(self):
        head, _, _ = init(small_config(), feature_dim=16, num_classes=6)
        assert np.max(np.abs(head.weight)) <= 1.0 / 4.0

    def test_same_seed_same_init(self):
        a_head, a_bank, _ = init(small_config(), 10, 6)
        b_head, b_bank, _ = init(small_config(), 10, 6)
        np.testing.assert_array_equal(a_head.weight, b_head.weight)
        np.testing.assert_array_equal(a_bank.proxies, b_bank.proxies)


class TestTrainLoop:
    def test_zero_iterations_equals_init(self):
        bundle = small_bundle()
        cfg = small_config(total_iters=0, warmup_iters=0)
        ckpt = train(bundle, cfg)
        head, bank, _ = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
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
        head, bank, _ = init(cfg, bundle.feature_dim, bundle.num_classes, bundle.class_ids)
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

    def test_margins_rejected_for_plain_loss(self):
        with pytest.raises(ConfigError):
            train(small_bundle(), small_config(), margin_matrix=np.zeros((6, 6), np.float32))

    def test_margin_shape_checked(self):
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE))
        with pytest.raises(MarginShapeMismatch):
            train(small_bundle(), cfg, margin_matrix=np.zeros((3, 3), np.float32))

    def test_adaptive_training_runs(self):
        bundle = small_bundle()
        dmat = np.full((6, 6), 0.3, np.float32)
        np.fill_diagonal(dmat, 0.0)
        cfg = small_config(loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4))
        ckpt = train(bundle, cfg, margin_matrix=dmat)
        assert ckpt.iteration == cfg.total_iters

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
        train_cfg = TrainConfig(embed_dim=embed_dim, loss=cfg)
        _, _, velocities = init(train_cfg, feat_dim, classes)
        step = trainer._Step(head, bank, velocities, train_cfg, None, batch)
        _, gw, _, _ = step.gradients(feats.astype(np.float32), labels)

        from marginfit import losses as losses_mod

        p64 = proxies32.astype(np.float64)

        def f(wv):
            emb64 = trainer._head_core(feats, wv, b)[2]
            per = losses_mod._forward(emb64, p64, labels, cfg.tau, 0.0, None)[3]
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
