"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic fixtures are fixed-seed and deterministic, so every
number here reproduces exactly.
"""

import io
import struct
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy.stats import spearmanr

from marginfit import cli, losses
from marginfit.data_io import save_labels, save_matrix
from marginfit.errors import FormatError
from marginfit.evaluation import MODE_BINARY, MODE_FLOAT, compare_float_binary, recall_at_k
from marginfit.losses import (
    KIND_ADAPTIVE,
    KIND_LMCL,
    KIND_NORM_SOFTMAX,
    LOSS_KINDS,
    TEMPERATURE_MODES,
    LossConfig,
    ProxyBank,
    compute_loss,
    loss_backward_check,
    max_relative_error,
)
from marginfit.margins import build_margin_matrix, load_margin_matrix, save_margin_matrix
from marginfit.sampler import SamplerConfig
from marginfit.synthetic import (
    clustered_features,
    equidistant_text_embeddings,
    hierarchical_text_embeddings,
)
from marginfit.trainer import (
    Checkpoint,
    TrainConfig,
    init,
    load_checkpoint,
    save_checkpoint,
    train,
)


def report(num, name, ok, detail):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for kind in LOSS_KINDS:
        for mode in TEMPERATURE_MODES:
            for seed in range(100):
                cfg = LossConfig(
                    kind=kind,
                    sigma=[1.0, 20.0][seed % 2],
                    margin=[0.0, 0.4][(seed // 2) % 2],
                    temperature_mode=mode,
                )
                worst = max(worst, loss_backward_check(cfg, seed))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    assert report(
        1,
        "gradient correctness",
        ok,
        f"600 instances, max relative error {worst:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_reduction_identities():
    worst_chain = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = unit_rows(rng, 6, 12)
        bank = ProxyBank(unit_rows(rng, 8, 12))
        labels = rng.integers(0, 8, 6)
        sigma = [1.0, 20.0][seed % 2]
        mode = TEMPERATURE_MODES[seed % 2]
        zero_d = np.zeros((8, 8), np.float32)

        ada = compute_loss(x, bank, labels, LossConfig(KIND_ADAPTIVE, sigma, 0.4, mode), zero_d)
        lm = compute_loss(x, bank, labels, LossConfig(KIND_LMCL, sigma, 0.4, mode))
        lm0 = compute_loss(x, bank, labels, LossConfig(KIND_LMCL, sigma, 0.0, mode))
        ns = compute_loss(x, bank, labels, LossConfig(KIND_NORM_SOFTMAX, sigma, 0.0, mode))
        worst_chain = max(
            worst_chain,
            float(np.max(np.abs(ada.per_sample_loss - lm.per_sample_loss))),
            float(np.max(np.abs(lm0.per_sample_loss - ns.per_sample_loss))),
        )
    ok = worst_chain <= 1e-6
    assert report(
        2,
        "reduction identities",
        ok,
        f"adaptive(D=0)==lmcl and lmcl(m=0)==norm_softmax, max dev {worst_chain:.2e} (tol 1e-6)",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_margin_monotonicity():
    violations = 0
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = unit_rows(rng, 8, 16).astype(np.float64)
        p = unit_rows(rng, 10, 16).astype(np.float64)
        labels = rng.integers(0, 10, 8)
        d = rng.uniform(0.0, 0.85, (10, 10))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        cfg = LossConfig(KIND_ADAPTIVE, [1.0, 20.0][seed % 2], 0.4)

        y = int(labels[0])
        z = int((y + 1 + rng.integers(0, 9)) % 10)
        if z == y:
            continue
        bumped = d.copy()
        bumped[y, z] += 0.1
        bumped[z, y] += 0.1

        pos = losses._positives(labels, 10)
        base = losses._forward(
            x, p, pos, cfg.tau, cfg.margin,
            losses._slope_rows(d, labels, pos, cfg.tau, np.float64),
        )[3]
        bump = losses._forward(
            x, p, pos, cfg.tau, cfg.margin,
            losses._slope_rows(bumped, labels, pos, cfg.tau, np.float64),
        )[3]
        affected = labels == y
        strict = affected & (x @ p[z] < 1.0 - 1e-6)
        checked += int(affected.sum())
        violations += int(np.sum(bump[affected] < base[affected]))
        violations += int(np.sum(bump[strict] <= base[strict]))
    ok = violations == 0
    assert report(
        3,
        "margin monotonicity",
        ok,
        f"{checked} affected samples over 100 instances, {violations} violations",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_end_to_end_head_gradient():
    from marginfit.trainer import EmbeddingHead, _head_core, _Step

    rng = np.random.default_rng(0)
    batch, feat_dim, embed_dim, classes = 4, 8, 6, 5
    feats = rng.standard_normal((batch, feat_dim))
    w = rng.standard_normal((feat_dim, embed_dim)) * 0.5
    b = rng.standard_normal(embed_dim) * 0.1
    labels = rng.integers(0, classes, batch)
    proxies = unit_rows(rng, classes, embed_dim)
    bank = ProxyBank(proxies)
    cfg = LossConfig(KIND_NORM_SOFTMAX, 20.0)

    # the training step's float32 gradients: one head forward, the loss
    # forward/backward in its buffers, the head backward on the same t, ||t||
    head = EmbeddingHead(w.astype(np.float32), b.astype(np.float32))
    train_cfg = TrainConfig(embed_dim=embed_dim, loss=cfg, sampler=SamplerConfig(batch, 1))
    step = _Step(head, bank, train_cfg, None, feats.astype(np.float32))
    _, gw, gb, _ = step.gradients(feats.astype(np.float32), labels)

    p64 = proxies.astype(np.float64)
    pos = losses._positives(labels, classes)

    def f(wv, bv):
        emb = _head_core(feats, wv, bv)[2]
        return float(losses._forward(emb, p64, pos, cfg.tau, 0.0, cfg.tau)[3].mean())

    h = 1e-3
    fd_w = np.zeros_like(w)
    for i in range(feat_dim):
        for j in range(embed_dim):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd_w[i, j] = (f(wp, b) - f(wm, b)) / (2 * h)
    fd_b = np.zeros_like(b)
    for j in range(embed_dim):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        fd_b[j] = (f(w, bp) - f(w, bm)) / (2 * h)

    err = max(
        max_relative_error(gw.astype(np.float64), fd_w),
        max_relative_error(gb.astype(np.float64), fd_b),
    )
    ok = err <= 1e-4
    assert report(
        4,
        "end-to-end head gradient",
        ok,
        f"B=4 F=8 D=6, max relative error {err:.2e} (tol 1e-4)",
    )


# ------------------------------------------------------- criteria 5 and 8


@pytest.fixture(scope="module")
def convergence_run():
    """Fixed-seed desk-scale run shared by criteria 5 and 8."""
    data = clustered_features(
        num_classes=50,
        feature_dim=64,
        cluster_std=0.15,
        train_per_class=40,
        query_per_class=10,
        gallery_per_class=10,
        seed=7,
    )
    margins = build_margin_matrix(equidistant_text_embeddings(seed=8))
    cfg = TrainConfig(
        embed_dim=32,
        lr0=0.05,
        momentum=0.9,
        warmup_iters=100,
        total_iters=2000,
        loss=LossConfig(kind=KIND_ADAPTIVE, sigma=20.0, margin=0.4),
        sampler=SamplerConfig(batch_size=75, k=5, seed=3),
        proxy_init_seed=4,
        head_init_seed=5,
    )
    head0, bank0 = init(cfg, data.train.feature_dim, data.train.num_classes)
    base_float, _ = compare_float_binary(Checkpoint(head0, bank0, 0), data.split, ks=[1])

    curve = []
    t0 = time.time()
    ckpt = train(data.train, cfg, margins, on_iteration=lambda t, lr, lo: curve.append(lo))
    train_seconds = time.time() - t0
    float_report, binary_report = compare_float_binary(ckpt, data.split, ks=[1, 5, 10])
    return {
        "baseline_r1": base_float.recall[0],
        "float_r1": float_report.recall[0],
        "binary_r1": binary_report.recall[0],
        "train_seconds": train_seconds,
        "curve": curve,
    }


def test_criterion_5_synthetic_retrieval_convergence(convergence_run):
    r = convergence_run
    improvement = r["float_r1"] - r["baseline_r1"]
    early, late = np.mean(r["curve"][:100]), np.mean(r["curve"][-100:])
    ok = (
        r["float_r1"] >= 0.90
        and improvement >= 0.15
        and late < early
        and r["train_seconds"] < 120.0
    )
    assert report(
        5,
        "synthetic retrieval convergence",
        ok,
        f"Recall@1 {r['float_r1']:.3f} (>=0.90), untrained {r['baseline_r1']:.3f}, "
        f"improvement {100 * improvement:.1f}pts (>=15), loss first-100 {early:.2f} -> "
        f"last-100 {late:.2f}, {r['train_seconds']:.1f}s (<120s)",
    )


def test_criterion_8_binarization_degradation(convergence_run):
    r = convergence_run
    gap = abs(r["float_r1"] - r["binary_r1"])
    ok = gap <= 0.10
    assert report(
        8,
        "binarization degradation bound",
        ok,
        f"float Recall@1 {r['float_r1']:.3f} vs binary {r['binary_r1']:.3f}, "
        f"gap {100 * gap:.1f}pts (tol 10pts)",
    )


# ---------------------------------------------------------------- criterion 6


@pytest.fixture(scope="module")
def transfer_runs():
    data = clustered_features(seed=3)
    margins = build_margin_matrix(hierarchical_text_embeddings(num_groups=5, seed=8))

    def run(kind):
        cfg = TrainConfig(
            embed_dim=32,
            lr0=0.1,
            momentum=0.9,
            warmup_iters=100,
            decay_gamma=1.0,
            total_iters=2000,
            loss=LossConfig(kind=kind, sigma=20.0, margin=0.4),
            sampler=SamplerConfig(batch_size=75, k=5, seed=3),
            proxy_init_seed=4,
            head_init_seed=5,
        )
        ckpt = train(data.train, cfg, margins if kind == KIND_ADAPTIVE else None)
        proxies = ckpt.proxies.proxies.astype(np.float64)
        iu = np.triu_indices(data.train.num_classes, 1)
        proxy_dist = (1.0 - proxies @ proxies.T)[iu]
        return spearmanr(proxy_dist, margins.d.astype(np.float64)[iu]).statistic

    return run(KIND_ADAPTIVE), run(KIND_NORM_SOFTMAX)


def test_criterion_6_modality_structure_transfer(transfer_runs):
    rho_adaptive, rho_plain = transfer_runs
    ok = rho_adaptive > 0.3 and rho_adaptive > rho_plain
    assert report(
        6,
        "modality structure transfer",
        ok,
        f"Spearman(proxy distances, margins): adaptive {rho_adaptive:.3f} (>0.3), "
        f"norm_softmax {rho_plain:.3f}",
    )


# ---------------------------------------------------------------- criterion 7


def brute_force_recall(q, qlab, g, glab, ks, mode):
    q64, g64 = q.astype(np.float64), g.astype(np.float64)
    hits = {k: 0 for k in ks}
    for qi in range(q64.shape[0]):
        if mode == MODE_FLOAT:
            key = [(-float(q64[qi] @ g64[gi]), gi) for gi in range(g64.shape[0])]
        else:
            qbits = q64[qi] > 0
            key = [
                (int(np.sum(qbits != (g64[gi] > 0))), gi) for gi in range(g64.shape[0])
            ]
        ranked = [glab[gi] for _, gi in sorted(key)]
        for k in ks:
            if qlab[qi] in ranked[:k]:
                hits[k] += 1
    return [hits[k] / q64.shape[0] for k in ks]


def test_criterion_7_recall_oracle():
    ks = [1, 5, 10]
    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        nq, ng = int(rng.integers(1, 21)), int(rng.integers(5, 101))
        dim, classes = int(rng.integers(3, 12)), int(rng.integers(2, 8))
        q = rng.standard_normal((nq, dim)).astype(np.float32)
        g = rng.standard_normal((ng, dim)).astype(np.float32)
        qlab, glab = rng.integers(0, classes, nq), rng.integers(0, classes, ng)
        for mode in (MODE_FLOAT, MODE_BINARY):
            got = recall_at_k(q, qlab, g, glab, ks=ks, mode=mode).recall
            if got != brute_force_recall(q, qlab, g, glab, ks, mode):
                mismatches += 1
    ok = mismatches == 0
    assert report(
        7,
        "recall oracle equivalence",
        ok,
        f"50 instances x 2 modes vs full-sort oracle, {mismatches} mismatches",
    )


# ---------------------------------------------------------------- criterion 9


def write_small_dataset(tmp_path):
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(6), 8)
    feats = rng.standard_normal((labels.size, 10)).astype(np.float32)
    save_matrix(feats, tmp_path / "train.emb")
    save_labels(labels, 6, tmp_path / "train.lbl")
    qlab = np.repeat(np.arange(6), 3)
    save_matrix(rng.standard_normal((18, 10)).astype(np.float32), tmp_path / "q.emb")
    save_labels(qlab, 6, tmp_path / "q.lbl")
    save_matrix(rng.standard_normal((24, 10)).astype(np.float32), tmp_path / "g.emb")
    save_labels(np.repeat(np.arange(6), 4), 6, tmp_path / "g.lbl")
    (tmp_path / "train.cfg").write_text(
        "embed_dim = 8\nlr0 = 0.05\nwarmup_iters = 10\ntotal_iters = 150\n"
        "loss_kind = norm_softmax\nsigma = 20\nbatch_size = 10\nk = 2\nseed = 1\n",
        encoding="utf-8",
    )


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_9_determinism(tmp_path):
    write_small_dataset(tmp_path)
    train_args = [
        "train",
        "--config", str(tmp_path / "train.cfg"),
        "--features", str(tmp_path / "train.emb"),
        "--labels", str(tmp_path / "train.lbl"),
    ]
    code1, _ = run_cli(train_args + ["--out", str(tmp_path / "a.ckpt")])
    code2, _ = run_cli(train_args + ["--out", str(tmp_path / "b.ckpt")])
    same_ckpt = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    eval_args = [
        "eval",
        "--ckpt", str(tmp_path / "a.ckpt"),
        "--query-features", str(tmp_path / "q.emb"),
        "--query-labels", str(tmp_path / "q.lbl"),
        "--gallery-features", str(tmp_path / "g.emb"),
        "--gallery-labels", str(tmp_path / "g.lbl"),
    ]
    code3, out1 = run_cli(eval_args)
    code4, out2 = run_cli(eval_args)

    ok = code1 == code2 == code3 == code4 == 0 and same_ckpt and out1 == out2
    assert report(
        9,
        "determinism",
        ok,
        f"checkpoints byte-identical: {same_ckpt}, eval outputs identical: {out1 == out2}",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_format_round_trips(tmp_path):
    from marginfit.data_io import load_labels, load_matrix
    from marginfit.margins import ClassTextEmbeddings

    failures = []
    rng = np.random.default_rng(1)

    for trial in range(10):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols)).astype(np.float32)
        p1, p2 = tmp_path / f"m{trial}a.emb", tmp_path / f"m{trial}b.emb"
        save_matrix(m, p1)
        save_matrix(load_matrix(p1), p2)
        if p1.read_bytes() != p2.read_bytes():
            failures.append(f"EMB1 trial {trial}")

        c = int(rng.integers(1, 6))
        labels = rng.integers(0, c, int(rng.integers(1, 20)))
        l1, l2 = tmp_path / f"l{trial}a.lbl", tmp_path / f"l{trial}b.lbl"
        save_labels(labels, c, l1)
        loaded, c2 = load_labels(l1)
        save_labels(loaded, c2, l2)
        if l1.read_bytes() != l2.read_bytes():
            failures.append(f"LBL1 trial {trial}")

        e = rng.standard_normal((max(c, 2), 5)).astype(np.float32)
        mm = build_margin_matrix(ClassTextEmbeddings(e))
        g1, g2 = tmp_path / f"g{trial}a.mgn", tmp_path / f"g{trial}b.mgn"
        save_margin_matrix(mm, g1)
        save_margin_matrix(load_margin_matrix(g1), g2)
        if g1.read_bytes() != g2.read_bytes():
            failures.append(f"MGN1 trial {trial}")

    cfg = TrainConfig(embed_dim=4, total_iters=0, warmup_iters=0)
    head, bank = init(cfg, 6, 3)
    ckpt = Checkpoint(head, bank, 0)
    k1, k2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt, k1)
    save_checkpoint(load_checkpoint(k1), k2)
    if k1.read_bytes() != k2.read_bytes():
        failures.append("CKP1")

    # corrupted headers are rejected in the library and exit 2 at the CLI
    bad = tmp_path / "bad.emb"
    bad.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
    try:
        load_matrix(bad)
        failures.append("EMB1 corruption accepted")
    except FormatError:
        pass
    code, _ = run_cli(["embed", "--ckpt", str(k1), "--features", str(bad), "--out", str(tmp_path / "o.emb")])
    if code != 2:
        failures.append(f"CLI exit {code} for corrupt features (want 2)")

    # out-of-range margin entry is an invariant violation: exit 3
    badmgn = tmp_path / "bad.mgn"
    ids = b"\x01\x00\x00\x00a" + b"\x01\x00\x00\x00b"
    payload = np.array([[0.0, 1.5], [1.5, 0.0]], dtype="<f4").tobytes()
    badmgn.write_bytes(b"MGN1" + struct.pack("<IBB", 2, 0, 0) + ids + payload)
    (tmp_path / "ds").mkdir(exist_ok=True)
    write_small_dataset(tmp_path / "ds")
    (tmp_path / "ds" / "ada.cfg").write_text(
        "embed_dim = 8\ntotal_iters = 5\nwarmup_iters = 1\nloss_kind = adaptive\n"
        "batch_size = 10\nk = 2\n",
        encoding="utf-8",
    )
    code, _ = run_cli([
        "train",
        "--config", str(tmp_path / "ds" / "ada.cfg"),
        "--features", str(tmp_path / "ds" / "train.emb"),
        "--labels", str(tmp_path / "ds" / "train.lbl"),
        "--margins", str(badmgn),
        "--out", str(tmp_path / "ds" / "x.ckpt"),
    ])
    if code != 3:
        failures.append(f"CLI exit {code} for out-of-range margins (want 3)")

    ok = not failures
    assert report(
        10,
        "format round-trips",
        ok,
        "EMB1/LBL1/MGN1/CKP1 byte-identical, corrupt files rejected"
        + (f"; failures: {failures}" if failures else ""),
    )
