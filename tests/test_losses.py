import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginfit import losses
from marginfit.errors import (
    ConfigError,
    DimMismatch,
    InvalidLabel,
    InvariantViolation,
    MarginfitError,
    UnknownClass,
)
from marginfit.losses import (
    KIND_ADAPTIVE,
    KIND_LMCL,
    KIND_NORM_SOFTMAX,
    MODE_DIVIDE,
    MODE_MULTIPLY,
    LossConfig,
    ProxyBank,
    compute_loss,
    loss_backward_check,
    max_relative_error,
)
from marginfit.margins import MarginMatrix

# Scalar oracles, hand-computed: one positive at cos 1, one negative at cos 0,
# sigma = 1 multiply mode.
NS_ORACLE = math.log(1 + math.exp(-1.0))  # 0.31326168751822286
LMCL_ORACLE = math.log(1 + math.exp(-0.6))  # 0.4374879504858857
ADAPTIVE_ORACLE = math.log(1 + math.exp(-0.1))  # 0.6443966600735709


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def random_margins(rng, c):
    d = rng.uniform(0.0, 1.0, size=(c, c))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d.astype(np.float32)


def random_instance(seed, batch=8, dim=16, classes=10):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, batch, dim)
    bank = ProxyBank(unit_rows(rng, classes, dim))
    labels = rng.integers(0, classes, size=batch)
    dmat = random_margins(rng, classes)
    return x, bank, labels, dmat


def two_class_instance():
    """x aligned with its proxy, one orthogonal negative proxy."""
    x = np.array([[1.0, 0.0]], dtype=np.float32)
    bank = ProxyBank(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
    labels = np.array([0])
    return x, bank, labels


class TestConfig:
    def test_scaled_logit_multiply(self):
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, sigma=20.0, temperature_mode=MODE_MULTIPLY)
        assert 0.5 * cfg.tau == pytest.approx(10.0)

    def test_scaled_logit_divide(self):
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, sigma=20.0, temperature_mode=MODE_DIVIDE)
        assert 0.5 * cfg.tau == pytest.approx(0.025)

    def test_scaled_logit_zero(self):
        # the default mode multiplies, so tau is sigma itself
        assert LossConfig(sigma=7.0).tau == 7.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.0),
            dict(sigma=-1.0),
            dict(margin=1.0),
            dict(margin=-0.1),
            dict(kind="triplet"),
            dict(temperature_mode="add"),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            LossConfig(**kwargs)

    def test_norm_softmax_kind_forces_zero_margin(self):
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, margin=0.4)
        assert cfg.effective_margin == 0.0


class TestProxyBank:
    def test_non_unit_rows_rejected(self):
        from marginfit.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            ProxyBank(np.array([[2.0, 0.0]], dtype=np.float32))

    def test_non_unit_row_named_with_its_norm(self):
        from marginfit.errors import InvariantViolation

        p = np.eye(3, dtype=np.float32)
        p[1, 1] = 2.0
        with pytest.raises(InvariantViolation, match=r"^proxy row 1 has norm 2\.00000000, expected 1$"):
            ProxyBank(p)

    def test_norm_check_makes_no_float64_copy(self):
        p = np.random.default_rng(0).standard_normal((1000, 128)).astype(np.float32)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        ids = [str(c) for c in range(1000)]
        tracemalloc.start()
        try:
            ProxyBank(p, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes

    def test_duplicate_ids_rejected(self):
        from marginfit.errors import InvariantViolation

        p = np.eye(2, dtype=np.float32)
        with pytest.raises(InvariantViolation):
            ProxyBank(p, class_ids=["a", "a"])


class TestForwardOracles:
    def test_norm_softmax_scalar_oracle(self):
        x, bank, labels = two_class_instance()
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, sigma=1.0, temperature_mode=MODE_MULTIPLY)
        out = compute_loss(x, bank, labels, cfg)
        assert out.per_sample_loss[0] == pytest.approx(NS_ORACLE, abs=1e-6)
        assert out.mean_loss == pytest.approx(NS_ORACLE, abs=1e-6)

    def test_lmcl_scalar_oracle(self):
        x, bank, labels = two_class_instance()
        cfg = LossConfig(kind=KIND_LMCL, sigma=1.0, margin=0.4, temperature_mode=MODE_MULTIPLY)
        out = compute_loss(x, bank, labels, cfg)
        assert out.per_sample_loss[0] == pytest.approx(LMCL_ORACLE, abs=1e-6)

    def test_adaptive_scalar_oracle(self):
        x, bank, labels = two_class_instance()
        cfg = LossConfig(kind=KIND_ADAPTIVE, sigma=1.0, margin=0.4, temperature_mode=MODE_MULTIPLY)
        dmat = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.float32)
        out = compute_loss(x, bank, labels, cfg, dmat)
        assert out.per_sample_loss[0] == pytest.approx(ADAPTIVE_ORACLE, abs=1e-6)

    def test_full_margin_saturates_negative_logit(self):
        # d = 1 forces the negative's modified cosine to 1 no matter the raw
        # cosine; with the positive at cos 1 and m = 0 the loss is log 2.
        x = np.array([[1.0, 0.0]], dtype=np.float32)
        v = np.array([-0.3, math.sqrt(1 - 0.09)], dtype=np.float32)
        bank = ProxyBank(np.stack([np.array([1.0, 0.0], np.float32), v]))
        cfg = LossConfig(kind=KIND_ADAPTIVE, sigma=1.0, margin=0.0)
        dmat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        out = compute_loss(x, bank, np.array([0]), cfg, dmat)
        assert out.per_sample_loss[0] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_single_class_loss_and_grads_zero(self):
        rng = np.random.default_rng(7)
        x = unit_rows(rng, 4, 6)
        bank = ProxyBank(unit_rows(rng, 1, 6))
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, sigma=20.0)
        out = compute_loss(x, bank, np.zeros(4, dtype=np.int64), cfg)
        assert out.mean_loss == 0.0
        assert np.all(out.grad_embeddings == 0.0)
        assert np.all(out.grad_proxies == 0.0)

    def test_orthogonal_to_all_proxies_gives_log_c(self):
        c, d = 5, 8
        bank = ProxyBank(np.eye(c, d, dtype=np.float32))
        x = np.zeros((1, d), dtype=np.float32)
        x[0, d - 1] = 1.0
        cfg = LossConfig(kind=KIND_NORM_SOFTMAX, sigma=20.0)
        out = compute_loss(x, bank, np.array([2]), cfg)
        assert out.per_sample_loss[0] == pytest.approx(math.log(c), abs=1e-6)


class TestValidation:
    def test_dim_mismatch(self):
        x, bank, labels = two_class_instance()
        with pytest.raises(DimMismatch):
            compute_loss(np.ones((1, 3), np.float32), bank, labels, LossConfig(kind=KIND_NORM_SOFTMAX))

    def test_invalid_label(self):
        x, bank, labels = two_class_instance()
        with pytest.raises(InvalidLabel):
            compute_loss(x, bank, np.array([5]), LossConfig(kind=KIND_NORM_SOFTMAX))

    def test_margin_shape_mismatch(self):
        x, bank, labels = two_class_instance()
        cfg = LossConfig(kind=KIND_ADAPTIVE)
        with pytest.raises(InvariantViolation):
            compute_loss(x, bank, labels, cfg, np.zeros((3, 3), np.float32))

    def test_raw_margins_checked_as_margin_matrix(self, bad_margins):
        x, bank, labels = two_class_instance()
        d = bad_margins(bank.num_classes)
        with pytest.raises(MarginfitError) as expected:
            MarginMatrix(d, bank.class_ids)
        with pytest.raises(MarginfitError, match=re.escape(str(expected.value))) as raised:
            compute_loss(x, bank, labels, LossConfig(kind=KIND_ADAPTIVE), d)
        assert type(raised.value) is type(expected.value)

    @pytest.mark.parametrize("kind", [KIND_LMCL, KIND_NORM_SOFTMAX])
    def test_margins_refused_for_non_adaptive_kinds(self, kind):
        # the same rule as trainer.train: only the adaptive kind takes margins,
        # whatever their shape
        x, bank, labels = two_class_instance()
        with pytest.raises(ConfigError):
            compute_loss(x, bank, labels, LossConfig(kind=kind), np.zeros((7, 7), np.float32))

    def test_adaptive_requires_margins(self):
        x, bank, labels = two_class_instance()
        with pytest.raises(ConfigError):
            compute_loss(x, bank, labels, LossConfig(kind=KIND_ADAPTIVE))


class TestReductions:
    @pytest.mark.parametrize("mode", [MODE_MULTIPLY, MODE_DIVIDE])
    def test_chain_on_random_instances(self, mode):
        for seed in range(100):
            x, bank, labels, _ = random_instance(seed, batch=6, dim=8, classes=7)
            sigma = 20.0 if seed % 2 else 1.0
            zero_d = np.zeros((7, 7), dtype=np.float32)

            ada = compute_loss(
                x, bank, labels,
                LossConfig(kind=KIND_ADAPTIVE, sigma=sigma, margin=0.4, temperature_mode=mode),
                zero_d,
            )
            lm = compute_loss(
                x, bank, labels,
                LossConfig(kind=KIND_LMCL, sigma=sigma, margin=0.4, temperature_mode=mode),
            )
            np.testing.assert_allclose(ada.per_sample_loss, lm.per_sample_loss, atol=1e-6)

            lm0 = compute_loss(
                x, bank, labels,
                LossConfig(kind=KIND_LMCL, sigma=sigma, margin=0.0, temperature_mode=mode),
            )
            ns = compute_loss(
                x, bank, labels,
                LossConfig(kind=KIND_NORM_SOFTMAX, sigma=sigma, temperature_mode=mode),
            )
            np.testing.assert_allclose(lm0.per_sample_loss, ns.per_sample_loss, atol=1e-6)

    def test_positive_margin_strictly_increases_loss(self):
        x, bank, labels, _ = random_instance(3, batch=8, dim=8, classes=6)
        ns = compute_loss(x, bank, labels, LossConfig(kind=KIND_NORM_SOFTMAX, sigma=1.0))
        lm = compute_loss(x, bank, labels, LossConfig(kind=KIND_LMCL, sigma=1.0, margin=0.4))
        assert np.all(lm.per_sample_loss > ns.per_sample_loss)


class TestProperties:
    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            x, bank, labels, dmat = random_instance(seed)
            cfg = LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4)
            base = compute_loss(x, bank, labels, cfg, dmat)

            perm = rng.permutation(bank.num_classes)
            inv = np.argsort(perm)
            bank_p = ProxyBank(bank.proxies[perm])
            labels_p = inv[labels]
            dmat_p = dmat[np.ix_(perm, perm)]
            out_p = compute_loss(x, bank_p, labels_p, cfg, dmat_p)
            np.testing.assert_allclose(out_p.per_sample_loss, base.per_sample_loss, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sigma=st.sampled_from([1.0, 20.0]),
        margin=st.sampled_from([0.0, 0.4]),
        mode=st.sampled_from([MODE_MULTIPLY, MODE_DIVIDE]),
    )
    def test_losses_non_negative(self, seed, sigma, margin, mode):
        x, bank, labels, dmat = random_instance(seed, batch=5, dim=8, classes=6)
        cfg = LossConfig(kind=KIND_ADAPTIVE, sigma=sigma, margin=margin, temperature_mode=mode)
        out = compute_loss(x, bank, labels, cfg, dmat)
        assert np.all(out.per_sample_loss >= 0.0)
        assert np.all(np.isfinite(out.grad_embeddings))
        assert np.all(np.isfinite(out.grad_proxies))

    def test_mean_matches_per_sample(self):
        for seed in range(10):
            x, bank, labels, dmat = random_instance(seed)
            out = compute_loss(
                x, bank, labels, LossConfig(kind=KIND_ADAPTIVE, sigma=20.0), dmat
            )
            assert out.mean_loss == pytest.approx(
                float(np.mean(out.per_sample_loss.astype(np.float64))), abs=1e-6
            )

    def test_margin_monotonicity(self):
        # Bumping one off-diagonal entry d[y, z] can only raise the loss of
        # samples labeled y; strictly when cos(x, p_z) < 1.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x, bank, labels, _ = random_instance(seed)
            dmat = (random_margins(rng, bank.num_classes) * 0.85).astype(np.float64)
            y = int(labels[0])
            z = (y + 1 + rng.integers(0, bank.num_classes - 1)) % bank.num_classes
            if z == y:
                continue
            sigma = 20.0 if seed % 2 else 1.0
            cfg = LossConfig(kind=KIND_ADAPTIVE, sigma=sigma, margin=0.4)

            bumped = dmat.copy()
            bumped[y, z] += 0.1
            bumped[z, y] += 0.1
            pos = losses._positives(labels, bank.num_classes)

            base64 = losses._forward(
                x.astype(np.float64), bank.proxies.astype(np.float64),
                pos, cfg.tau, cfg.margin,
                losses._slope_rows(dmat, labels, pos, cfg.tau, np.float64),
            )[3]
            bump64 = losses._forward(
                x.astype(np.float64), bank.proxies.astype(np.float64),
                pos, cfg.tau, cfg.margin,
                losses._slope_rows(bumped, labels, pos, cfg.tau, np.float64),
            )[3]

            affected = labels == y
            assert np.all(bump64[affected] >= base64[affected])
            cos_xz = x.astype(np.float64) @ bank.proxies[z].astype(np.float64)
            strict = affected & (cos_xz < 1.0 - 1e-6)
            assert np.all(bump64[strict] > base64[strict])

            # public float32 surface never decreases either
            pub_base = compute_loss(x, bank, labels, cfg, dmat.astype(np.float32))
            pub_bump = compute_loss(x, bank, labels, cfg, bumped.astype(np.float32))
            assert np.all(
                pub_bump.per_sample_loss[affected] >= pub_base.per_sample_loss[affected]
            )


class TestSlopeTable:
    @pytest.mark.parametrize("table_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("zero_diagonal", [True, False])
    def test_label_rows_match_per_row_transform(self, table_dtype, d_dtype, zero_diagonal):
        rng = np.random.default_rng(6)
        d = rng.uniform(0.0, 1.0, size=(9, 9)).astype(d_dtype)
        if zero_diagonal:
            np.fill_diagonal(d, 0.0)
        labels = rng.integers(0, 9, 40)
        for tau in (20.0, 1.0 / 20.0):
            # oracle: tau * (1 - d[y_i, :]) in the table's dtype, then tau at (i, y_i)
            want = np.subtract(1.0, d[labels].astype(table_dtype)) * tau
            want[np.arange(labels.size), labels] = tau
            got = losses._slope_rows(d, labels, losses._positives(labels, 9), tau, table_dtype)
            assert got.dtype == table_dtype
            assert got.tobytes() == want.tobytes()
            # a whole-table call holds the same rows at the labels
            every = np.arange(9)
            table = losses._slope_rows(d, every, losses._positives(every, 9), tau, table_dtype)
            assert table[labels].tobytes() == want.tobytes()

    def test_rows_into_a_buffer(self):
        # the training step's form: float32 margins, rows written into its (B, C) buffer
        rng = np.random.default_rng(7)
        d = rng.uniform(0.0, 1.0, size=(9, 9)).astype(np.float32)
        before = d.copy()
        labels = rng.integers(0, 9, 40)
        out = np.empty((40, 9), np.float32)
        pos = losses._positives(labels, 9)
        got = losses._slope_rows(d, labels, pos, 20.0, np.float32, out=out)
        assert got is out
        assert out.tobytes() == losses._slope_rows(d, labels, pos, 20.0, np.float32).tobytes()
        assert d.tobytes() == before.tobytes()


class TestGradients:
    @pytest.mark.parametrize("kind", [KIND_NORM_SOFTMAX, KIND_LMCL, KIND_ADAPTIVE])
    @pytest.mark.parametrize("mode", [MODE_MULTIPLY, MODE_DIVIDE])
    def test_backward_check_small_error(self, kind, mode):
        for seed in range(5):
            cfg = LossConfig(kind=kind, sigma=20.0, margin=0.4, temperature_mode=mode)
            assert loss_backward_check(cfg, seed) <= 1e-4

    def test_stacked_forward_matches_separate_calls(self):
        # loss_backward_check evaluates stacks of perturbed parameters in one
        # broadcast call, so every slice must equal the unstacked forward
        x, bank, labels, dmat = random_instance(4)
        rng = np.random.default_rng(4)
        x64 = x.astype(np.float64)
        p64 = bank.proxies.astype(np.float64)
        xs = x64 + 1e-3 * rng.standard_normal((6,) + x64.shape)
        ps = p64 + 1e-3 * rng.standard_normal((6,) + p64.shape)
        pos = losses._positives(labels, bank.num_classes)
        for slope in (20.0, losses._slope_rows(dmat, labels, pos, 20.0, np.float64)):
            for stacked_x, stacked_p in [(xs, p64[None]), (x64[None], ps)]:
                stacked = losses._forward(stacked_x, stacked_p, pos, 20.0, 0.4, slope)
                for i in range(6):
                    xi = stacked_x[min(i, stacked_x.shape[0] - 1)]
                    pi = stacked_p[min(i, stacked_p.shape[0] - 1)]
                    single = losses._forward(xi, pi, pos, 20.0, 0.4, slope)
                    for got, want in zip(stacked, single):
                        np.testing.assert_array_equal(got[i], want)

    def test_public_grads_match_fd(self):
        # independent differencing loop over the float64 forward, compared
        # against the float32 gradients the public op reports
        x, bank, labels, dmat = random_instance(21, batch=4, dim=6, classes=5)
        cfg = LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4)
        out = compute_loss(x, bank, labels, cfg, dmat)

        x64 = x.astype(np.float64)
        p64 = bank.proxies.astype(np.float64)
        pos = losses._positives(labels, bank.num_classes)
        slope = losses._slope_rows(dmat, labels, pos, cfg.tau, np.float64)
        h = 1e-3

        def f(xv, pv):
            return float(
                losses._forward(xv, pv, pos, cfg.tau, cfg.margin, slope)[3].mean()
            )

        fd_x = np.zeros_like(x64)
        for i in range(x64.shape[0]):
            for j in range(x64.shape[1]):
                xp, xm = x64.copy(), x64.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd_x[i, j] = (f(xp, p64) - f(xm, p64)) / (2 * h)
        assert max_relative_error(out.grad_embeddings.astype(np.float64), fd_x) <= 1e-4

        fd_p = np.zeros_like(p64)
        for i in range(p64.shape[0]):
            for j in range(p64.shape[1]):
                pp, pm = p64.copy(), p64.copy()
                pp[i, j] += h
                pm[i, j] -= h
                fd_p[i, j] = (f(x64, pp) - f(x64, pm)) / (2 * h)
        assert max_relative_error(out.grad_proxies.astype(np.float64), fd_p) <= 1e-4

    def test_single_class_fd_noise_only(self):
        rng = np.random.default_rng(5)
        x64 = unit_rows(rng, 3, 4).astype(np.float64)
        p64 = unit_rows(rng, 1, 4).astype(np.float64)
        pos = losses._positives(np.zeros(3, dtype=np.int64), 1)
        h = 1e-3

        def f(xv):
            return float(losses._forward(xv, p64, pos, 20.0, 0.0, 20.0)[3].mean())

        for i in range(3):
            for j in range(4):
                xp, xm = x64.copy(), x64.copy()
                xp[i, j] += h
                xm[i, j] -= h
                assert abs(f(xp) - f(xm)) / (2 * h) <= 1e-6


class TestMarginAlignment:
    """A MarginMatrix's rows are matched to the bank's class ids, not taken in file order."""

    def instance(self):
        x, bank, labels, dmat = random_instance(3, classes=6)
        ids = [f"k{i}" for i in range(6)]
        return x, ProxyBank(bank.proxies, ids), labels, dmat, ids

    def test_permuted_ids_match_aligned(self):
        x, bank, labels, dmat, ids = self.instance()
        cfg = LossConfig(kind=KIND_ADAPTIVE)
        perm = [4, 0, 5, 2, 1, 3]
        permuted = MarginMatrix(dmat[np.ix_(perm, perm)], [ids[i] for i in perm])
        want = compute_loss(x, bank, labels, cfg, dmat)
        for margins in (MarginMatrix(dmat, ids), permuted):
            got = compute_loss(x, bank, labels, cfg, margins)
            assert got.mean_loss == want.mean_loss
            for name in ("per_sample_loss", "grad_embeddings", "grad_proxies"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_other_ids_named(self):
        x, bank, labels, _, ids = self.instance()
        m = MarginMatrix(np.zeros((6, 6), np.float32), ids[:5] + ["zz"])
        with pytest.raises(UnknownClass, match=r"missing \['k5'\], extra \['zz'\]"):
            compute_loss(x, bank, labels, LossConfig(kind=KIND_ADAPTIVE), m)
