"""Which CLI outputs differ between a git revision and the working tree.

Usage (from the repository root):

    python3 scripts/same_outputs.py REV

REV is built from local git (``git archive``, no network) and the working
tree's ``src`` is copied, both into a temporary directory with no
``__pycache__``. The inputs are made once per (workload, seed) by
perfbench's ``workloads.generate`` (both perfbench workloads, seeds 1-5).
Each tree then runs ``margins-build`` with each metric and norm (``train``
reads the default cosine/analytic file), ``train``, ``embed`` on the query
and gallery features and ``eval`` in float and ``--binary`` mode
(K = 1,5,10,20,30,40,50), each in a fresh ``python -B`` process at
``MF_THREADS=1``. One row per output says "identical", or gives the max
absolute change of each EMB1/CKP1/MGN1 block and every ``key=value`` line
(``iter=``, ``distance_*``, ``recall@K=``) that moved. Exits 1 when any
output differs.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# marginfit first: it sets the BLAS thread count from MF_THREADS, which
# works only before numpy is loaded
import marginfit  # noqa: E402, F401
import numpy as np  # noqa: E402
from reference import read_ckp1, read_emb1, read_mgn1  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

KS = "1,5,10,20,30,40,50"
SEEDS = (1, 2, 3, 4, 5)
# the (metric, norm) margins-build runs besides the default cosine/analytic one
VARIANTS = (("cosine", "minmax"), ("euclidean", "analytic"), ("euclidean", "minmax"))
# every output of one pipeline run, in the order the pipeline makes them
OUTPUTS = (
    "margins.mgn",
    "margins-build.out",
    *(name for m, n in VARIANTS for name in (f"margins-{m}-{n}.mgn", f"margins-build-{m}-{n}.out")),
    "model.ckpt",
    "train.out",
    "query.emb",
    "embed-query.out",
    "gallery.emb",
    "embed-gallery.out",
    "eval-float.out",
    "eval-binary.out",
)


def pipeline(f: dict) -> list[tuple[str, list[str]]]:
    """(stdout file, CLI argv) per command; outputs are written relative to the run directory."""
    evaluate = ["eval", "--ckpt", "model.ckpt", "--query-features", f["query.emb"],
                "--query-labels", f["query.lbl"], "--gallery-features", f["gallery.emb"],
                "--gallery-labels", f["gallery.lbl"], "--ks", KS]
    build = ["margins-build", "--class-text", f["class_text.emb"], "--class-ids", f["class_ids.txt"]]
    return [
        ("margins-build.out", build + ["--out", "margins.mgn"]),
        *((f"margins-build-{m}-{n}.out",
           build + ["--metric", m, "--norm", n, "--out", f"margins-{m}-{n}.mgn"])
          for m, n in VARIANTS),
        ("train.out", ["train", "--config", f["train.cfg"], "--features", f["train.emb"],
                       "--labels", f["train.lbl"], "--class-ids", f["class_ids.txt"],
                       "--margins", "margins.mgn", "--out", "model.ckpt"]),
        ("embed-query.out", ["embed", "--ckpt", "model.ckpt", "--features", f["query.emb"],
                             "--out", "query.emb"]),
        ("embed-gallery.out", ["embed", "--ckpt", "model.ckpt", "--features", f["gallery.emb"],
                               "--out", "gallery.emb"]),
        ("eval-float.out", evaluate),
        ("eval-binary.out", evaluate + ["--binary"]),
    ]


def run_pipeline(src: Path, files: dict, out: Path) -> None:
    """Run every command on the marginfit under ``src``; stdout (and any failure) to ``out``."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), MF_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    for name, argv in pipeline(files):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "marginfit", *argv],
            cwd=out, env=env, capture_output=True, text=True,
        )
        text = proc.stdout
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            text += f"exit={proc.returncode} stderr={last}\n"
        (out / name).write_text(text, encoding="utf-8")


def _key_value_lines(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if "=" in line.split(" ", 1)[0]
    ]


def _blocks(path: Path) -> dict:
    """The named arrays of an EMB1, CKP1 or MGN1 file."""
    if path.suffix == ".emb":
        return {"rows": read_emb1(path)}
    if path.suffix == ".ckpt":
        weight, bias, proxies, iteration = read_ckp1(path)
        return {"weight": weight, "bias": bias, "proxies": proxies,
                "iteration": np.array([iteration])}
    metric, norm, ids, d = read_mgn1(path)
    return {"header": np.array([metric, norm]), "ids": np.array(ids), "margins": d}


def _block_changes(a: Path, b: Path) -> str:
    try:
        old, new = _blocks(a), _blocks(b)
    except ValueError as exc:
        return f"unreadable: {exc}"
    parts = []
    for name, x in old.items():
        y = new[name]
        if x.shape != y.shape:
            parts.append(f"{name} shape {x.shape} -> {y.shape}")
        elif x.dtype.kind in "fiu":
            change = np.max(np.abs(x.astype(np.float64) - y), initial=0.0)
            parts.append(f"{name} max |change| {change:.3g}")
        elif not np.array_equal(x, y):
            parts.append(f"{name} differ")
    return ", ".join(parts)


def compare_outputs(a: Path, b: Path) -> list[tuple[str, str]]:
    """(output, verdict) for each output present in REV's run ``a`` or the working tree's ``b``."""
    rows = []
    for name in OUTPUTS:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            if pa.is_file() or pb.is_file():
                where = "in the working tree" if pa.is_file() else "at REV"
                rows.append((name, f"missing {where}"))
        elif pa.read_bytes() == pb.read_bytes():
            rows.append((name, "identical"))
        elif pa.suffix == ".out":
            old, new = _key_value_lines(pa), _key_value_lines(pb)
            moved = [f"{x} -> {y}" for x, y in zip(old, new) if x != y]
            if len(old) != len(new):
                moved.append(f"{len(old)} -> {len(new)} key=value lines")
            rows.append((name, "; ".join(moved) or "other lines differ"))
        else:
            rows.append((name, _block_changes(pa, pb)))
    return rows


def export_trees(rev: str, work: Path) -> dict[str, Path]:
    """``src`` of REV (git archive) and of the working tree, with no ``__pycache__``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(work / "rev", filter="data")
    shutil.copytree(
        ROOT / "src", work / "work" / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    return {"rev": work / "rev" / "src", "work": work / "work" / "src"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    print(f"REV {args.rev} ({sha}) against the working tree")
    moved = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        trees = export_trees(args.rev, tmp)
        for w in WORKLOADS.values():
            for seed in SEEDS:
                case = f"{w.name}-seed{seed}"
                inputs = tmp / "inputs" / case
                inputs.mkdir(parents=True)
                files = generate(w, seed, inputs)["files"]
                for side, src in trees.items():
                    run_pipeline(src, files, tmp / side / case)
                for name, verdict in compare_outputs(tmp / "rev" / case, tmp / "work" / case):
                    moved += verdict != "identical"
                    print(f"{w.name} seed={seed} {name}: {verdict}")
    print(f"outputs that differ: {moved}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
