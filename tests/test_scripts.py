"""The scripts under ``scripts/`` run as documented."""

import ast
import importlib.util
import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import marginfit
from marginfit import cli
from marginfit.data_io import load_matrix, save_matrix
from marginfit.losses import ProxyBank
from marginfit.trainer import Checkpoint, EmbeddingHead, save_checkpoint

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def child_env():
    """The environment for a child Python that imports the marginfit under test."""
    src = str(Path(marginfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def documented_commands(script: Path) -> list[list[str]]:
    """The shell commands in a script's docstring, continuation lines joined."""
    doc = ast.get_docstring(ast.parse(script.read_text(encoding="utf-8")))
    lines = doc.replace("\\\n", " ").splitlines()
    return [
        shlex.split(line)
        for line in lines
        if line.strip().startswith(("python3 ", "marginfit "))
    ]


def test_make_synthetic_data_pipeline(tmp_path, monkeypatch):
    script = SCRIPTS / "make_synthetic_data.py"
    commands = documented_commands(script)
    assert [c[:2] for c in commands] == [
        ["python3", "scripts/make_synthetic_data.py"],
        ["marginfit", "margins-build"],
        ["marginfit", "train"],
        ["marginfit", "eval"],
    ]
    make, *steps = commands
    subprocess.run(
        [sys.executable, str(script), *make[2:]],
        cwd=tmp_path, env=child_env(), check=True, capture_output=True,
    )
    monkeypatch.chdir(tmp_path)
    for argv in steps:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv[1:])
        assert code == 0, f"{' '.join(argv)} exited {code}"
    assert "recall@1=" in out.getvalue()


def test_run_synthetic_experiment():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_synthetic_experiment.py"),
         "--classes", "15", "--iters", "150"],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "adaptive" in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(out: Path, recall_at_1="0.9265"):
    """A small synthetic set of one pipeline run's outputs."""
    rng = np.random.default_rng(3)
    out.mkdir(parents=True)
    (out / "margins-build.out").write_text("classes=3\ndistance_min=0.250000\n", encoding="utf-8")
    (out / "train.out").write_text(
        "iter=0 lr=0.0005 loss=3.25\ncheckpoint=model.ckpt iteration=100\n", encoding="utf-8"
    )
    proxies = np.eye(3, 4, dtype=np.float32)
    head = EmbeddingHead(rng.standard_normal((5, 4)).astype(np.float32), np.zeros(4, np.float32))
    save_checkpoint(Checkpoint(head, ProxyBank(proxies), 100), out / "model.ckpt")
    save_matrix(rng.standard_normal((6, 4)).astype(np.float32), out / "query.emb")
    (out / "eval-float.out").write_text(
        f"float retrieval over 6 queries (recall %)\n  R@1 | R@5\n  x | y\n"
        f"recall@1={recall_at_1}\nrecall@5=1.0000\n",
        encoding="utf-8",
    )


def test_criterion8_seeds_imports():
    module = load_script("criterion8_seeds")
    assert callable(module.main) and list(module.DATA_SEEDS) == list(range(1, 11))


def test_same_outputs_reports_identical_runs(tmp_path):
    same_outputs = load_script("same_outputs")
    write_run(tmp_path / "rev")
    write_run(tmp_path / "work")
    rows = same_outputs.compare_outputs(tmp_path / "rev", tmp_path / "work")
    assert rows == [
        (name, "identical")
        for name in ["margins-build.out", "model.ckpt", "train.out", "query.emb", "eval-float.out"]
    ]


def test_same_outputs_builds_every_margin_variant():
    same_outputs = load_script("same_outputs")
    files = {name: name for name in ["class_text.emb", "class_ids.txt", "train.cfg", "train.emb",
                                      "train.lbl", "query.emb", "query.lbl", "gallery.emb",
                                      "gallery.lbl"]}
    built = set()
    for out, argv in same_outputs.pipeline(files):
        if argv[0] == "margins-build":
            opts = dict(zip(argv[1::2], argv[2::2]))
            built.add((opts.get("--metric", "cosine"), opts.get("--norm", "analytic")))
            assert out in same_outputs.OUTPUTS and opts["--out"] in same_outputs.OUTPUTS
    assert built == {(m, n) for m in ("cosine", "euclidean") for n in ("analytic", "minmax")}


def test_same_outputs_reports_what_moved(tmp_path):
    same_outputs = load_script("same_outputs")
    write_run(tmp_path / "rev")
    write_run(tmp_path / "work", recall_at_1="0.9270")
    query = tmp_path / "work" / "query.emb"
    moved = load_matrix(query)
    moved[2, 1] += np.float32(0.5)
    save_matrix(moved, query)
    (tmp_path / "work" / "model.ckpt").unlink()
    rows = dict(same_outputs.compare_outputs(tmp_path / "rev", tmp_path / "work"))
    assert rows == {
        "margins-build.out": "identical",
        "model.ckpt": "missing in the working tree",
        "train.out": "identical",
        "query.emb": "rows max |change| 0.5",
        "eval-float.out": "recall@1=0.9265 -> recall@1=0.9270",
    }


@pytest.mark.parametrize("name", ["criterion8_seeds.py", "run_synthetic_experiment.py"])
def test_script_imports_apply_mf_threads(name):
    # marginfit warns (here: raises) when numpy was imported before it
    load = (
        "import importlib.util, sys; "
        "spec = importlib.util.spec_from_file_location('script', sys.argv[1]); "
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", load, str(SCRIPTS / name)],
        env=dict(child_env(), MF_THREADS="1"), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
