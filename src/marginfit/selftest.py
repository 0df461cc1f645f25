"""Built-in correctness checks, runnable from the CLI without any data files.

Each check is named and independent; the runner reports PASS/FAIL per check
and an overall verdict. Gradient checks compare analytic gradients to central
finite differences; the recall checks compare the evaluator to a full-sort
oracle with the same tie rule: on random galleries, on galleries whose
near-ties float32 cannot order, on a gallery over two score blocks wide, and
on packed sign bits whose rows end in pad bits.
"""

from __future__ import annotations

import numpy as np

from . import losses
from .evaluation import (
    BLOCK_COLS,
    MODE_BINARY,
    MODE_FLOAT,
    _decode_bits,
    recall_at_k,
    sign_bits,
)
from .losses import (
    KIND_ADAPTIVE,
    KIND_LMCL,
    KIND_NORM_SOFTMAX,
    LOSS_KINDS,
    TEMPERATURE_MODES,
    LossConfig,
    ProxyBank,
    compute_loss,
    loss_backward_check,
)

GRAD_TOLERANCE = 1e-4
GRAD_SEEDS = 5


def _random_instance(seed, batch=8, dim=16, classes=10):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, dim))
    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
    p = rng.standard_normal((classes, dim))
    p = (p / np.linalg.norm(p, axis=1, keepdims=True)).astype(np.float32)
    labels = rng.integers(0, classes, batch)
    d = rng.uniform(0.0, 0.85, size=(classes, classes))
    d = ((d + d.T) / 2.0).astype(np.float32)
    np.fill_diagonal(d, 0.0)
    return x, ProxyBank(p), labels, d


def _check_gradients(kind, mode):
    def run():
        worst = 0.0
        for seed in range(GRAD_SEEDS):
            sigma = 20.0 if seed % 2 else 1.0
            cfg = LossConfig(kind=kind, sigma=sigma, margin=0.4, temperature_mode=mode)
            worst = max(worst, loss_backward_check(cfg, seed))
        return worst <= GRAD_TOLERANCE, f"max relative error {worst:.2e}"

    return f"gradients_{kind}_{mode}", run


def _check_reduction_identities():
    for seed in range(25):
        x, bank, labels, _ = _random_instance(seed, batch=6, dim=8, classes=7)
        sigma = 20.0 if seed % 2 else 1.0
        zero_d = np.zeros((7, 7), np.float32)
        ada = compute_loss(x, bank, labels, LossConfig(KIND_ADAPTIVE, sigma, 0.4), zero_d)
        lm = compute_loss(x, bank, labels, LossConfig(KIND_LMCL, sigma, 0.4))
        if np.max(np.abs(ada.per_sample_loss - lm.per_sample_loss)) > 1e-6:
            return False, f"adaptive(D=0) != lmcl at seed {seed}"
        lm0 = compute_loss(x, bank, labels, LossConfig(KIND_LMCL, sigma, 0.0))
        ns = compute_loss(x, bank, labels, LossConfig(KIND_NORM_SOFTMAX, sigma))
        if np.max(np.abs(lm0.per_sample_loss - ns.per_sample_loss)) > 1e-6:
            return False, f"lmcl(m=0) != norm_softmax at seed {seed}"
    return True, "adaptive(D=0) == lmcl, lmcl(m=0) == norm_softmax on 25 instances"


def _check_margin_monotonicity():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x, bank, labels, dmat = _random_instance(seed)
        sigma = 20.0 if seed % 2 else 1.0
        cfg = LossConfig(KIND_ADAPTIVE, sigma, 0.4)
        y = int(labels[0])
        z = int((y + 1 + rng.integers(0, bank.num_classes - 1)) % bank.num_classes)
        if z == y:
            continue
        bumped = dmat.astype(np.float64)
        bumped[y, z] += 0.1
        bumped[z, y] += 0.1
        x64, p64 = x.astype(np.float64), bank.proxies.astype(np.float64)
        pos = losses._positives(labels, bank.num_classes)

        def losses_at(d):
            slope = losses._slope_rows(d, labels, pos, cfg.tau, np.float64)
            return losses._forward(x64, p64, pos, cfg.tau, cfg.margin, slope)[3]

        base, bump = losses_at(dmat), losses_at(bumped)
        affected = labels == y
        if not np.all(bump[affected] >= base[affected]):
            return False, f"loss decreased at seed {seed}"
        cos_xz = x64 @ p64[z]
        strict = affected & (cos_xz < 1.0 - 1e-6)
        if not np.all(bump[strict] > base[strict]):
            return False, f"no strict increase at seed {seed}"
    return True, "single-entry margin bumps never decrease affected losses (25 instances)"


def _brute_force_recall(q, qlab, g, glab, ks, mode):
    q64, g64 = q.astype(np.float64), g.astype(np.float64)
    hits = {k: 0 for k in ks}
    for qi in range(q64.shape[0]):
        if mode == MODE_FLOAT:
            key = [(-float(q64[qi] @ g64[gi]), gi) for gi in range(g64.shape[0])]
        else:
            qb = q64[qi] > 0
            key = [(int(np.sum(qb != (g64[gi] > 0))), gi) for gi in range(g64.shape[0])]
        ranked = [glab[gi] for _, gi in sorted(key)]
        for k in ks:
            if qlab[qi] in ranked[:k]:
                hits[k] += 1
    return [hits[k] / q64.shape[0] for k in ks]


def _recall_mismatch(q, qlab, g, glab, ks):
    """None if both modes match the full-sort oracle, else what differs."""
    for mode in (MODE_FLOAT, MODE_BINARY):
        got = recall_at_k(q, qlab, g, glab, ks=ks, mode=mode).recall
        want = _brute_force_recall(q, qlab, g, glab, ks, mode)
        if got != want:
            return f"mode {mode}: {got} vs {want}"
    return None


def _check_recall_oracle():
    ks = [1, 5, 10]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((int(rng.integers(2, 15)), 6)).astype(np.float32)
        g = rng.standard_normal((int(rng.integers(10, 60)), 6)).astype(np.float32)
        qlab = rng.integers(0, 5, q.shape[0])
        glab = rng.integers(0, 5, g.shape[0])
        mismatch = _recall_mismatch(q, qlab, g, glab, ks)
        if mismatch:
            return False, f"mismatch at seed {seed} {mismatch}"
    return True, "float and binary recall match full-sort oracle on 10 instances"


def _check_recall_sign_bits():
    """Binary recall on ``sign_bits`` rows at D = 13, three pad bits to a row.

    Rows repeat and hold zeros, so codes tie. The oracle ranks the signs of
    the float rows. The bits must also decode to those signs (+1 where a
    value is strictly positive), pad bits to -1: a decode in another bit
    order permutes every row alike, which leaves every rank as it is.
    """
    ks = [1, 2, 5, 10]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((int(rng.integers(10, 60)), 13)).astype(np.float32)
        rows[rng.random(rows.shape) < 0.1] = 0.0
        g = rows[rng.integers(0, len(rows), len(rows))]
        q = np.concatenate([g[: int(rng.integers(1, 8))], rows[: int(rng.integers(1, 8))]])
        qlab, glab = rng.integers(0, 5, len(q)), rng.integers(0, 5, len(g))
        codes = _decode_bits(sign_bits(g))
        signs = np.where(g > 0, 1.0, -1.0)
        if not (np.array_equal(codes[:, :13], signs) and np.all(codes[:, 13:] == -1.0)):
            return False, f"sign bits do not decode to the signs at seed {seed}"
        got = recall_at_k(sign_bits(q), qlab, sign_bits(g), glab, ks=ks, mode=MODE_BINARY).recall
        want = _brute_force_recall(q, qlab, g, glab, ks, MODE_BINARY)
        if got != want:
            return False, f"mismatch at seed {seed}: {got} vs {want}"
    return True, "recall on 13-bit sign_bits rows matches full-sort oracle on 10 instances"


def _near_tie_instance(seed):
    """Queries, labels and a gallery whose rows come in pairs one float32 ulp apart.

    Each query is a gallery row, and the two rows of a pair have different
    classes, so float32 scores cannot order the pair and the float64
    re-rank decides every query.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((12, 8)).astype(np.float32)
    gallery = np.concatenate([base, np.nextafter(base, np.float32(np.inf))])
    gallery_labels = np.concatenate([np.arange(12) % 4, (np.arange(12) + 1) % 4])
    pick = rng.permutation(gallery.shape[0])[:10]
    return gallery[pick], gallery_labels[pick], gallery, gallery_labels


def _check_recall_near_ties():
    ks = [1, 2, 3, 5]
    for seed in range(5):
        mismatch = _recall_mismatch(*_near_tie_instance(seed), ks)
        if mismatch:
            return False, f"mismatch at seed {seed} {mismatch}"
    return True, "recall matches full-sort oracle on 5 galleries of rows one float32 ulp apart"


def _check_recall_gallery_blocks():
    """Recall on a gallery three score blocks and 15 columns wide.

    It holds each of its rows three times, exactly twice and once one
    float32 ulp away, shuffled, so equal and near-equal rows sit on both
    sides of block edges. Two fifths of the rows are class 20, whose run
    spans two blocks; the queries come from classes 20 and 21.
    """
    rng = np.random.default_rng(0)
    base = rng.standard_normal((BLOCK_COLS + 5, 8)).astype(np.float32)
    gallery = np.concatenate([base, base, np.nextafter(base, np.float32(np.inf))])
    gallery = gallery[rng.permutation(len(gallery))]
    labels = np.where(rng.random(len(gallery)) < 0.4, 20, rng.integers(0, 50, len(gallery)))
    pick = np.concatenate(
        [rng.choice(np.flatnonzero(labels == c), n, replace=False) for c, n in ((20, 8), (21, 4))]
    )
    mismatch = _recall_mismatch(gallery[pick], labels[pick], gallery, labels, [1, 2, 3, 10, 100])
    if mismatch:
        return False, f"mismatch {mismatch}"
    return True, f"recall matches full-sort oracle on {len(gallery)} rows in {BLOCK_COLS}-row blocks"


def all_checks():
    checks = [_check_gradients(kind, mode) for kind in LOSS_KINDS for mode in TEMPERATURE_MODES]
    checks.append(("reduction_identities", _check_reduction_identities))
    checks.append(("margin_monotonicity", _check_margin_monotonicity))
    checks.append(("recall_oracle", _check_recall_oracle))
    checks.append(("recall_near_ties", _check_recall_near_ties))
    checks.append(("recall_gallery_blocks", _check_recall_gallery_blocks))
    checks.append(("recall_sign_bits", _check_recall_sign_bits))
    return checks


def run_selftest() -> bool:
    """Run every named check; returns True iff all pass."""
    all_ok = True
    for name, run in all_checks():
        try:
            ok, detail = run()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"selftest: {'PASS' if all_ok else 'FAIL'}")
    return all_ok
