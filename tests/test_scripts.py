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

import pytest

import marginfit
from marginfit import cli

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


def test_criterion8_seeds_imports():
    path = SCRIPTS / "criterion8_seeds.py"
    spec = importlib.util.spec_from_file_location("criterion8_seeds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main) and list(module.DATA_SEEDS) == list(range(1, 11))


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
