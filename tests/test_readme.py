"""README's CLI block, training-config table and exit codes match the code."""

import argparse
import dataclasses
import re
from pathlib import Path

from marginfit import cli, errors, trainer
from marginfit.losses import LossConfig
from marginfit.sampler import SamplerConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """README's text from the ``title`` heading line to the next ``##`` or ``###`` heading."""
    text = README.split(f"\n{title}\n", 1)[1]
    return re.split(r"\n#{2,3} ", text, maxsplit=1)[0]


def test_cli_block_flags_match_the_parser():
    block = section("## CLI").split("```bash\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("marginfit "):
            command = line.split()[1]
            documented[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        command: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help"}
        for command, p in sub.choices.items()
    }
    assert documented == parsed


def test_config_table_matches_keys_and_defaults():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section("### Training config"), re.M)
    assert [key for key, _ in rows] == list(trainer._CONFIG_KEYS)
    classes = {"train": trainer.TrainConfig, "loss": LossConfig, "sampler": SamplerConfig}
    defaults = {
        target: {f.name: f.default for f in dataclasses.fields(cls)}
        for target, cls in classes.items()
    }
    for key, text in rows:
        kind, target, name = trainer._CONFIG_KEYS[key]
        default = defaults[target][name]
        if default is dataclasses.MISSING:
            assert text.strip() == "required", key
        elif default is None:
            assert text.strip() == "derived", key
        else:
            assert kind(text.strip()) == default, key


def test_errors_row_matches_exit_codes():
    row = next(line for line in README.splitlines() if line.startswith("| `marginfit.errors` |"))
    documented = {
        name: int(code)
        for code, names in re.findall(r"(\d) \(([^)]*)\)", row)
        for name in re.findall(r"`(\w+)`", names)
    }
    classes = {
        name: cls.exit_code
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.MarginfitError)
        and cls is not errors.MarginfitError
    }
    assert documented == classes
