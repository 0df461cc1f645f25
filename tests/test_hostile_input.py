"""No mutation of a small valid input file crashes a loader or the CLI.

Small valid files of each kind (EMB1 features, LBL1 labels, MGN1 margins,
a CKP1 checkpoint, a class-id sidecar and a train config) are mutated:
cut at every byte offset, given one trailing byte (0x00 or 0xFF), each u32
header field set to 0, 1 and 0xFFFFFFFF, and each float32 payload entry (of
EMB1, CKP1 and MGN1) set to NaN, +Inf, -Inf, 3e38 and -3e38. Each mutation
goes through the file's library loaders and through every ``cli.main``
command that reads it, in one child process per kind of file, under the CAP
address-space limit and with Python warnings turned into errors. A loader
may raise only a MarginfitError; a command must return 0, 2, 3 or 4 and
print at most one ``error:`` line. The unmutated files load and every
command takes them. CKP1's two readers, ``load_checkpoint`` and
``load_head``, load or refuse each checkpoint alike: the same error type
and text, which names the file.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from test_cli import run_capped

from marginfit.data_io import save_class_ids, save_labels, save_matrix
from marginfit.margins import ClassTextEmbeddings, build_margin_matrix, save_margin_matrix
from marginfit.trainer import Checkpoint, TrainConfig, init, save_checkpoint

# Runs in the child: argv[1] is a JSON spec of the mutated files, the loaders
# that read them and the commands ("{}" is the mutated file's path).
RUNNER = """
import io, json, warnings
from contextlib import redirect_stderr, redirect_stdout
from marginfit import cli, data_io, margins, trainer
from marginfit.errors import MarginfitError

warnings.simplefilter("error")
LOADERS = {
    "load_matrix": data_io.load_matrix,
    "load_labels": data_io.load_labels,
    "load_class_ids": data_io.load_class_ids,
    "load_margin_matrix": margins.load_margin_matrix,
    "load_checkpoint": trainer.load_checkpoint,
    "load_head": trainer.load_head,
    "load_train_config": trainer.load_train_config,
}
spec = json.load(open(sys.argv[1], encoding="utf-8"))
report, refusals = {}, {}
for name, path in spec["files"].items():
    results = report[name] = {}
    for loader in spec["loaders"]:
        try:
            LOADERS[loader](path)
            results[loader] = "loaded"
        except MarginfitError as exc:
            results[loader] = "refused"
            refusals.setdefault(name, {})[loader] = [type(exc).__name__, str(exc)]
        except Exception as exc:
            results[loader] = f"{type(exc).__name__}: {exc}"
    for i, argv in enumerate(spec["commands"]):
        command = f"command {i} ({argv[0]})"
        argv = [path if arg == "{}" else arg for arg in argv]
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:
            results[command] = f"{type(exc).__name__}: {exc}"
            continue
        lines = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        ok = code in (0, 2, 3, 4) and len(lines) <= 1
        results[command] = code if ok else f"exit {code}: {err.getvalue()!r}"
print(json.dumps({"report": report, "refusals": refusals}))
"""

CONFIG = (  # embed_dim last: a cut that still parses sets every other key
    "total_iters = 2\nwarmup_iters = 0\nlr0 = 0.05\nloss_kind = norm_softmax\n"
    "sigma = 20\nbatch_size = 4\nk = 2\nseed = 1\nembed_dim = 2\n"
)


# the values each float32 payload entry is set to, by name
FLOATS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "3e38": 3e38, "-3e38": -3e38}


def emb1_fields(data, start):
    """Offsets of each EMB1 block's u32 rows and cols, and of its float32 entries.

    The blocks run from ``start`` to the end of ``data``.
    """
    fields, floats = [], []
    while start < len(data) and data[start : start + 4] == b"EMB1":
        rows, cols = struct.unpack_from("<II", data, start + 4)
        fields += [start + 4, start + 8]
        floats += range(start + 12, start + 12 + 4 * rows * cols, 4)
        start += 12 + 4 * rows * cols
    return fields, floats


def mgn1_fields(data):
    """Offsets of MGN1's u32 class count and each class id's u32 length, and of its float32 entries."""
    (count,) = struct.unpack_from("<I", data, 4)
    fields, at = [4], 10
    for _ in range(count):
        fields.append(at)
        at += 4 + struct.unpack_from("<I", data, at)[0]
    return fields, list(range(at, len(data), 4))


def mutations(data, fields, floats):
    """name -> bytes: ``data`` cut at every offset, with a trailing byte, each u32 field set,
    and each float32 entry set to each of FLOATS."""
    out = {"valid": data, "trailing_00": data + b"\x00", "trailing_ff": data + b"\xff"}
    out.update({f"cut_{n}": data[:n] for n in range(len(data))})
    for at in fields:
        for value in (0, 1, 0xFFFFFFFF):
            out[f"u32_{at}_{value:x}"] = data[:at] + struct.pack("<I", value) + data[at + 4 :]
    for at in floats:
        for name, value in FLOATS.items():
            out[f"f32_{at}_{name}"] = data[:at] + struct.pack("<f", value) + data[at + 4 :]
    return out


# kind of file -> (its name among the valid files, the offsets of its u32 header
# fields and of its float32 payload entries)
KINDS = {
    "features": ("feats.emb", lambda data: emb1_fields(data, 0)),
    "labels": ("labels.lbl", lambda data: ([4, 8], [])),
    "margins": ("margins.mgn", mgn1_fields),
    "ckpt": ("model.ckpt", lambda data: emb1_fields(data, 4)),
    "ids": ("ids.txt", lambda data: ([], [])),
    "config": ("train.cfg", lambda data: ([], [])),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid files: 4 rows of 3 features in 2 classes, their ids, margins, a model."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    save_matrix(rng.standard_normal((4, 3)).astype(np.float32), root / "feats.emb")
    save_labels([0, 0, 1, 1], 2, root / "labels.lbl")
    save_class_ids(["a", "b"], root / "ids.txt")
    text = ClassTextEmbeddings(rng.standard_normal((2, 3)).astype(np.float32), ["a", "b"])
    save_matrix(text.embeddings, root / "text.emb")
    save_margin_matrix(build_margin_matrix(text), root / "margins.mgn")
    (root / "train.cfg").write_text(CONFIG, encoding="utf-8")
    (root / "adaptive.cfg").write_text(
        CONFIG.replace("norm_softmax", "adaptive") + "margin = 0.4\n", encoding="utf-8"
    )
    save_checkpoint(Checkpoint(*init(TrainConfig(embed_dim=2), 3, 2), 0), root / "model.ckpt")
    return root


def commands(root, kind):
    """(loaders, commands) that read a file of ``kind``; "{}" stands for that file."""
    files = {k: "{}" if k == kind else str(root / name) for k, (name, _) in KINDS.items()}
    out = str(root / f"{kind}.out")
    default_ids = ["train", "--config", files["config"], "--features", files["features"],
                   "--labels", files["labels"], "--out", out]
    train = [*default_ids, "--class-ids", files["ids"]]
    embed = ["embed", "--ckpt", files["ckpt"], "--features", files["features"], "--out", out]
    evaluate = ["eval", "--ckpt", files["ckpt"], "--query-features", files["features"],
                "--query-labels", files["labels"], "--gallery-features", str(root / "feats.emb"),
                "--gallery-labels", str(root / "labels.lbl")]
    margins_build = ["margins-build", "--class-text", str(root / "text.emb"),
                     "--class-ids", files["ids"], "--out", out]
    adaptive = [*train, "--margins", files["margins"]]
    adaptive[adaptive.index("--config") + 1] = str(root / "adaptive.cfg")
    return {
        "features": (["load_matrix"], [train, default_ids, embed, evaluate]),
        "labels": (["load_labels"], [train, default_ids, evaluate]),
        "margins": (["load_margin_matrix"], [adaptive]),
        "ckpt": (["load_checkpoint", "load_head"], [embed, evaluate, [*evaluate, "--binary"]]),
        "ids": (["load_class_ids"], [train, margins_build]),
        "config": (["load_train_config"], [train]),
    }[kind]


@pytest.mark.parametrize("kind", list(KINDS))
def test_no_mutation_crashes_a_loader_or_the_cli(inputs, tmp_path, kind):
    loaders, argvs = commands(inputs, kind)
    valid, layout = KINDS[kind]
    data = (inputs / valid).read_bytes()
    files = {}
    for name, mutated in mutations(data, *layout(data)).items():
        path = tmp_path / f"{name}{Path(valid).suffix}"
        path.write_bytes(mutated)
        files[name] = str(path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"files": files, "loaders": loaders, "commands": argvs}))
    code, out, err = run_capped(RUNNER, [str(spec)])
    assert code == 0, err
    out = json.loads(out)
    report, refusals = out["report"], out["refusals"]
    assert set(report["valid"].values()) == {"loaded", 0}
    crashed = {
        f"{name} {target}": result
        for name, results in report.items()
        for target, result in results.items()
        if result not in ("loaded", "refused", 0, 2, 3, 4)
    }
    assert crashed == {}
    if kind == "ckpt":
        differ = {
            name: results
            for name, results in report.items()
            if results["load_checkpoint"] != results["load_head"]
        }
        differ.update(
            (name, errors)
            for name, errors in refusals.items()
            if errors["load_checkpoint"] != errors["load_head"]
            or files[name] not in errors["load_head"][1]
        )
        assert differ == {}
