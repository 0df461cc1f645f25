import io
import os
import struct
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import marginfit
from marginfit import cli, data_io, errors
from marginfit.data_io import save_class_ids, save_labels, save_matrix
from marginfit.margins import (
    METRIC_COSINE,
    NORM_ANALYTIC,
    build_margin_matrix,
    load_margin_matrix,
    save_margin_matrix,
    ClassTextEmbeddings,
    MarginMatrix,
)
from marginfit.sampler import BalancedSampler
from marginfit.trainer import (
    Checkpoint,
    TrainConfig,
    init,
    load_checkpoint,
    load_train_config,
    save_checkpoint,
)


def child_env(**extra):
    """The environment for a child Python that imports the marginfit under test."""
    src = str(Path(marginfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(5), 8)
    save_matrix(rng.standard_normal((40, 12)).astype(np.float32), tmp_path / "train.emb")
    save_labels(labels, 5, tmp_path / "train.lbl")
    save_class_ids([f"cls{i}" for i in range(5)], tmp_path / "ids.txt")

    save_matrix(rng.standard_normal((10, 12)).astype(np.float32), tmp_path / "q.emb")
    save_labels(np.repeat(np.arange(5), 2), 5, tmp_path / "q.lbl")
    save_matrix(rng.standard_normal((15, 12)).astype(np.float32), tmp_path / "g.emb")
    save_labels(np.repeat(np.arange(5), 3), 5, tmp_path / "g.lbl")

    save_matrix(rng.standard_normal((5, 7)).astype(np.float32), tmp_path / "text.emb")

    (tmp_path / "train.cfg").write_text(
        "embed_dim = 6\nlr0 = 0.05\nwarmup_iters = 5\ntotal_iters = 120\n"
        "loss_kind = norm_softmax\nsigma = 20\nbatch_size = 6\nk = 2\nseed = 1\n",
        encoding="utf-8",
    )
    (tmp_path / "adaptive.cfg").write_text(
        "embed_dim = 6\nlr0 = 0.05\nwarmup_iters = 5\ntotal_iters = 60\n"
        "loss_kind = adaptive\nsigma = 20\nmargin = 0.4\nbatch_size = 6\nk = 2\nseed = 1\n",
        encoding="utf-8",
    )
    return tmp_path


class TestMarginsBuild:
    def test_builds_valid_file(self, dataset):
        out = dataset / "m.mgn"
        code, text = run_cli([
            "margins-build",
            "--class-text", str(dataset / "text.emb"),
            "--class-ids", str(dataset / "ids.txt"),
            "--out", str(out),
        ])
        assert code == 0
        assert "classes=5" in text
        assert "distance_mean=" in text
        m = load_margin_matrix(out)
        assert m.num_classes == 5
        assert m.metric == METRIC_COSINE and m.norm_mode == NORM_ANALYTIC

    def test_missing_file_exit_2(self, dataset, capsys):
        code, _ = run_cli([
            "margins-build",
            "--class-text", str(dataset / "absent.emb"),
            "--class-ids", str(dataset / "ids.txt"),
            "--out", str(dataset / "m.mgn"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_class_ids_exit_3(self, dataset, capsys):
        # an empty sidecar names no class; it does not fall back to "0".."C-1"
        (dataset / "empty.txt").write_text("\n", encoding="utf-8")
        code, _ = run_cli([
            "margins-build",
            "--class-text", str(dataset / "text.emb"),
            "--class-ids", str(dataset / "empty.txt"),
            "--out", str(dataset / "m.mgn"),
        ])
        assert code == 3
        assert "0 class ids for 5 classes" in capsys.readouterr().err
        assert not (dataset / "m.mgn").exists()

    def test_single_class_warns(self, dataset, capsys):
        save_matrix(np.ones((1, 7), np.float32), dataset / "one.emb")
        save_class_ids(["only"], dataset / "one.txt")
        code, text = run_cli([
            "margins-build",
            "--class-text", str(dataset / "one.emb"),
            "--class-ids", str(dataset / "one.txt"),
            "--out", str(dataset / "one.mgn"),
        ])
        assert code == 0
        assert "classes=1" in text
        assert "single class" in capsys.readouterr().err
        assert load_margin_matrix(dataset / "one.mgn").d[0, 0] == 0.0

    def test_zero_row_class_text_exit_3(self, dataset, capsys):
        save_matrix(np.zeros((0, 7), np.float32), dataset / "none.emb")
        (dataset / "none.txt").write_text("", encoding="utf-8")
        code, _ = run_cli([
            "margins-build",
            "--class-text", str(dataset / "none.emb"),
            "--class-ids", str(dataset / "none.txt"),
            "--out", str(dataset / "m.mgn"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("error:") == 1 and "no classes" in err
        assert not (dataset / "m.mgn").exists()

    def test_minmax_degenerate_exit_3(self, dataset):
        save_matrix(np.eye(3, dtype=np.float32), dataset / "equi.emb")
        save_class_ids(["a", "b", "c"], dataset / "equi.txt")
        code, _ = run_cli([
            "margins-build",
            "--class-text", str(dataset / "equi.emb"),
            "--class-ids", str(dataset / "equi.txt"),
            "--norm", "minmax",
            "--out", str(dataset / "equi.mgn"),
        ])
        assert code == 3


class TestOversizedHeader:
    """A header that claims more bytes than the file holds is a format error (exit 2)."""

    CLAIMS = [(0xFFFFFFFF, 0xFFFFFFFF), (1 << 30, 1 << 28)]

    @pytest.mark.parametrize("rows,cols", CLAIMS)
    def test_bare_matrix(self, dataset, capsys, rows, cols):
        path = dataset / "huge.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", rows, cols))
        code, _ = run_cli([
            "margins-build",
            "--class-text", str(path),
            "--class-ids", str(dataset / "ids.txt"),
            "--out", str(dataset / "m.mgn"),
        ])
        assert code == 2
        assert f"error: {path}: truncated file" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,cols", CLAIMS)
    def test_matrix_inside_checkpoint(self, dataset, capsys, rows, cols):
        path = dataset / "huge.ckpt"
        path.write_bytes(b"CKP1" + b"EMB1" + struct.pack("<II", rows, cols))
        code, _ = run_cli([
            "embed",
            "--ckpt", str(path),
            "--features", str(dataset / "q.emb"),
            "--out", str(dataset / "qe.emb"),
        ])
        assert code == 2
        assert f"error: {path}: truncated file" in capsys.readouterr().err


def train_argv(dataset, config, *extra):
    """``train`` on the fixture's features, labels and class ids, writing x.ckpt."""
    return [
        "train",
        "--config", str(dataset / config),
        "--features", str(dataset / "train.emb"),
        "--labels", str(dataset / "train.lbl"),
        "--class-ids", str(dataset / "ids.txt"),
        *extra,
        "--out", str(dataset / "x.ckpt"),
    ]


class TestTrain:
    def test_streams_progress_and_writes_checkpoint(self, dataset):
        out = dataset / "model.ckpt"
        code, text = run_cli([
            "train",
            "--config", str(dataset / "train.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--out", str(out),
        ])
        assert code == 0
        lines = [l for l in text.splitlines() if l.startswith("iter=")]
        assert len(lines) == 2  # iterations 0 and 100
        assert lines[0].startswith("iter=0 lr=")
        parts = dict(p.split("=") for p in lines[1].split())
        assert float(parts["loss"]) > 0
        ckpt = load_checkpoint(out)
        assert ckpt.iteration == 120

    def test_adaptive_without_margins_exit_2(self, dataset, capsys):
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "adaptive.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--out", str(dataset / "x.ckpt"),
        ])
        assert code == 2
        assert "adaptive loss kind requires a margin matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["multiply", "divide"])
    def test_infinite_sigma_exit_2(self, dataset, capsys, mode):
        cfg = dataset / "inf.cfg"
        cfg.write_text(
            (dataset / "train.cfg").read_text(encoding="utf-8").replace("sigma = 20", "sigma = inf")
            + f"temperature_mode = {mode}\n",
            encoding="utf-8",
        )
        code, _ = run_cli([
            "train",
            "--config", str(cfg),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--out", str(dataset / "x.ckpt"),
        ])
        assert code == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not (dataset / "x.ckpt").exists()

    def test_margins_with_plain_loss_exit_2(self, dataset):
        run_cli([
            "margins-build",
            "--class-text", str(dataset / "text.emb"),
            "--class-ids", str(dataset / "ids.txt"),
            "--out", str(dataset / "m.mgn"),
        ])
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "train.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--margins", str(dataset / "m.mgn"),
            "--out", str(dataset / "x.ckpt"),
        ])
        assert code == 2

    def test_adaptive_with_margins_runs(self, dataset):
        run_cli([
            "margins-build",
            "--class-text", str(dataset / "text.emb"),
            "--class-ids", str(dataset / "ids.txt"),
            "--out", str(dataset / "m.mgn"),
        ])
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "adaptive.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--class-ids", str(dataset / "ids.txt"),
            "--margins", str(dataset / "m.mgn"),
            "--out", str(dataset / "ada.ckpt"),
        ])
        assert code == 0

    def test_margin_rows_aligned_to_bundle_ids(self, dataset):
        # margins saved under a permuted class order must be realigned
        rng = np.random.default_rng(3)
        e = rng.standard_normal((5, 7)).astype(np.float32)
        ids = [f"cls{i}" for i in range(5)]
        mm = build_margin_matrix(ClassTextEmbeddings(e, ids))
        perm = [3, 1, 4, 0, 2]
        from marginfit.margins import MarginMatrix

        permuted = MarginMatrix(
            mm.d[np.ix_(perm, perm)], [ids[i] for i in perm], mm.metric, mm.norm_mode
        )
        save_margin_matrix(permuted, dataset / "perm.mgn")
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "adaptive.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--class-ids", str(dataset / "ids.txt"),
            "--margins", str(dataset / "perm.mgn"),
            "--out", str(dataset / "perm.ckpt"),
        ])
        assert code == 0

    def test_margins_for_other_class_ids_exit_3(self, dataset, capsys):
        save_class_ids([f"cls{i}" for i in range(1, 6)], dataset / "other.txt")
        run_cli([
            "margins-build",
            "--class-text", str(dataset / "text.emb"),
            "--class-ids", str(dataset / "other.txt"),
            "--out", str(dataset / "other.mgn"),
        ])
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "adaptive.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--class-ids", str(dataset / "ids.txt"),
            "--margins", str(dataset / "other.mgn"),
            "--out", str(dataset / "x.ckpt"),
        ])
        assert code == 3
        assert "missing ['cls0'], extra ['cls5']" in capsys.readouterr().err

    def test_nan_margins_exit_2(self, dataset, capsys):
        # a NaN pair fails no range comparison; it must fail at load, naming the file
        path = dataset / "nan.mgn"
        ids = [f"cls{i}" for i in range(5)]
        save_margin_matrix(MarginMatrix(np.zeros((5, 5), np.float32), ids), path)
        d = np.zeros((5, 5), "<f4")
        d[0, 1] = d[1, 0] = np.nan
        path.write_bytes(path.read_bytes()[: -d.nbytes] + d.tobytes())
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "adaptive.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--class-ids", str(dataset / "ids.txt"),
            "--margins", str(path),
            "--out", str(dataset / "x.ckpt"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and err.startswith(f"error: {path}: ")
        assert not (dataset / "x.ckpt").exists()

    @pytest.mark.parametrize(
        "d, rule",
        [([[0.0, 1.5], [1.5, 0.0]], "[0, 1]"), ([[0.0, 0.2], [0.6, 0.0]], "symmetric")],
        ids=["out-of-range", "asymmetric"],
    )
    def test_invalid_margins_named_exit_3(self, dataset, capsys, d, rule):
        path = dataset / "bad.mgn"
        ids = b"".join(struct.pack("<I", 4) + cid for cid in (b"cls0", b"cls1"))
        payload = np.array(d, "<f4").tobytes()
        path.write_bytes(b"MGN1" + struct.pack("<IBB", 2, 0, 0) + ids + payload)
        code, _ = run_cli(train_argv(dataset, "adaptive.cfg", "--margins", str(path)))
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("error:") == 1 and err.startswith(f"error: {path}: ")
        assert rule in err

    def test_margins_without_classes_exit_3(self, dataset, capsys):
        path = dataset / "zero.mgn"
        path.write_bytes(b"MGN1" + struct.pack("<IBB", 0, 0, 0))
        code, _ = run_cli(train_argv(dataset, "adaptive.cfg", "--margins", str(path)))
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("error:") == 1 and err.startswith(f"error: {path}: ")
        assert "no classes" in err

    def test_features_without_columns_exit_2(self, dataset, capsys):
        save_matrix(np.zeros((40, 0), np.float32), dataset / "train.emb")
        code, _ = run_cli(train_argv(dataset, "train.cfg"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and "no columns" in err
        assert not (dataset / "x.ckpt").exists()

    @pytest.mark.parametrize("classes", [50, 0])
    def test_empty_train_file_exit_3(self, dataset, capsys, classes):
        save_matrix(np.zeros((0, 12), np.float32), dataset / "empty.emb")
        save_labels([], classes, dataset / "empty.lbl")
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "train.cfg"),
            "--features", str(dataset / "empty.emb"),
            "--labels", str(dataset / "empty.lbl"),
            "--out", str(dataset / "x.ckpt"),
        ])
        assert code == 3
        assert "no rows" in capsys.readouterr().err

    def test_class_without_rows_exit_3(self, dataset, capsys):
        save_labels(np.repeat(np.arange(4), 10), 5, dataset / "four.lbl")
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "train.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "four.lbl"),
            "--class-ids", str(dataset / "ids.txt"),
            "--out", str(dataset / "x.ckpt"),
        ])
        assert code == 3
        assert "classes with no samples: ['cls4']" in capsys.readouterr().err

    @pytest.mark.parametrize("huge", [False, True], ids=["zero_row", "3e38"])
    def test_row_the_head_cannot_normalize_exit_3(self, dataset, capsys, huge):
        bundle = data_io.load_bundle(dataset / "train.emb", dataset / "train.lbl")
        cfg = load_train_config(dataset / "train.cfg")
        row = int(BalancedSampler(bundle, cfg.sampler).next_batch().sample_indices[0])
        feats = bundle.features.copy()
        if huge:
            feats[row, 0] = 3e38
        else:
            feats[row] = 0.0
        save_matrix(feats, dataset / "train.emb")
        code, _ = run_cli(train_argv(dataset, "train.cfg"))
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert [l for l in err if not l.startswith("warning: ")] == [
            f"error: feature row {row} cannot be normalized by the head at iteration 0: "
            f"batch row 0 has norm {'inf' if huge else '0.000e+00'} after centring"
        ]
        assert not (dataset / "x.ckpt").exists()

    def test_validates_once_and_warns_before_streaming(self, dataset):
        # class cls4 has one row, fewer than k = 2
        save_labels(np.repeat(np.arange(5), [10, 10, 10, 9, 1]), 5, dataset / "small.lbl")
        both = io.StringIO()
        with redirect_stdout(both), redirect_stderr(both):
            code = cli.main([
                "train",
                "--config", str(dataset / "train.cfg"),
                "--features", str(dataset / "train.emb"),
                "--labels", str(dataset / "small.lbl"),
                "--class-ids", str(dataset / "ids.txt"),
                "--out", str(dataset / "small.ckpt"),
            ])
        assert code == 0
        lines = both.getvalue().splitlines()
        assert lines[0] == (
            "warning: class 'cls4' has 1 samples < k=2; sampler will draw with replacement"
        )
        assert lines[1].startswith("iter=0 ")

    def test_zero_iterations_checkpoint_equals_init(self, dataset):
        (dataset / "zero.cfg").write_text(
            "embed_dim = 6\ntotal_iters = 0\nwarmup_iters = 0\nbatch_size = 6\nk = 2\n"
            "loss_kind = norm_softmax\n",
            encoding="utf-8",
        )
        code, _ = run_cli([
            "train",
            "--config", str(dataset / "zero.cfg"),
            "--features", str(dataset / "train.emb"),
            "--labels", str(dataset / "train.lbl"),
            "--out", str(dataset / "z.ckpt"),
        ])
        assert code == 0
        ckpt = load_checkpoint(dataset / "z.ckpt")
        cfg = TrainConfig(embed_dim=6, total_iters=0, warmup_iters=0)
        head, bank = init(cfg, 12, 5)
        np.testing.assert_array_equal(ckpt.head.weight, head.weight)
        np.testing.assert_array_equal(ckpt.proxies.proxies, bank.proxies)


def train_checkpoint(dataset):
    run_cli([
        "train",
        "--config", str(dataset / "train.cfg"),
        "--features", str(dataset / "train.emb"),
        "--labels", str(dataset / "train.lbl"),
        "--out", str(dataset / "model.ckpt"),
    ])
    return dataset / "model.ckpt"


class TestEmbed:
    def test_writes_embeddings(self, dataset):
        ckpt = train_checkpoint(dataset)
        code, text = run_cli([
            "embed",
            "--ckpt", str(ckpt),
            "--features", str(dataset / "q.emb"),
            "--out", str(dataset / "qe.emb"),
        ])
        assert code == 0
        from marginfit.data_io import load_matrix

        e = load_matrix(dataset / "qe.emb")
        assert e.shape == (10, 6)
        np.testing.assert_allclose(np.linalg.norm(e.astype(np.float64), axis=1), 1.0, atol=1e-5)

    def test_dim_mismatch_exit_2(self, dataset):
        ckpt = train_checkpoint(dataset)
        save_matrix(np.ones((3, 9), np.float32), dataset / "wrong.emb")
        code, _ = run_cli([
            "embed",
            "--ckpt", str(ckpt),
            "--features", str(dataset / "wrong.emb"),
            "--out", str(dataset / "we.emb"),
        ])
        assert code == 2


def text_input_argv(command, data, bad):
    """argv for ``command`` with the UTF-8 text input under test at ``bad``."""
    bundle = ["--features", str(data / "train.emb"), "--labels", str(data / "train.lbl")]
    argv = {
        "train-config": ["train", "--config", str(bad), *bundle],
        "train-class-ids": ["train", "--config", str(data / "train.cfg"), *bundle,
                            "--class-ids", str(bad)],
        "margins-build-class-ids": ["margins-build", "--class-text", str(data / "text.emb"),
                                    "--class-ids", str(bad)],
    }[command]
    return argv + ["--out", str(data / "out.bin")]


@pytest.mark.parametrize("command", ["train-config", "train-class-ids", "margins-build-class-ids"])
def test_non_utf8_text_input_exit_2(dataset, capsys, command):
    bad = dataset / "latin1.txt"
    bad.write_bytes("embed_dim = 6\ncls\u00e9\n".encode("latin-1"))
    code, _ = run_cli(text_input_argv(command, dataset, bad))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and err.startswith(f"error: {bad}: not UTF-8")


class TestEval:
    def eval_args(self, dataset, ckpt):
        return [
            "eval",
            "--ckpt", str(ckpt),
            "--query-features", str(dataset / "q.emb"),
            "--query-labels", str(dataset / "q.lbl"),
            "--gallery-features", str(dataset / "g.emb"),
            "--gallery-labels", str(dataset / "g.lbl"),
        ]

    def test_default_ks_seven_lines(self, dataset):
        ckpt = train_checkpoint(dataset)
        code, text = run_cli(self.eval_args(dataset, ckpt))
        assert code == 0
        recall_lines = [l for l in text.splitlines() if l.startswith("recall@")]
        assert len(recall_lines) == 7
        assert recall_lines[0].startswith("recall@1=")
        assert "mode=float" in text

    def test_binary_mode(self, dataset):
        ckpt = train_checkpoint(dataset)
        code, text = run_cli(self.eval_args(dataset, ckpt) + ["--binary"])
        assert code == 0
        assert "mode=binary" in text

    def test_custom_ks(self, dataset):
        ckpt = train_checkpoint(dataset)
        code, text = run_cli(self.eval_args(dataset, ckpt) + ["--ks", "1,3"])
        assert code == 0
        assert sum(l.startswith("recall@") for l in text.splitlines()) == 2

    @pytest.mark.parametrize("ks", ["1,a", "1,,5"])
    def test_bad_ks_exit_2(self, dataset, capsys, ks):
        ckpt = train_checkpoint(dataset)
        code, _ = run_cli(self.eval_args(dataset, ckpt) + ["--ks", ks])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_gallery_exit_2(self, dataset):
        ckpt = train_checkpoint(dataset)
        save_matrix(np.zeros((0, 12), np.float32), dataset / "empty.emb")
        save_labels([], 5, dataset / "empty.lbl")
        args = self.eval_args(dataset, ckpt)
        args[args.index("--gallery-features") + 1] = str(dataset / "empty.emb")
        args[args.index("--gallery-labels") + 1] = str(dataset / "empty.lbl")
        code, _ = run_cli(args)
        assert code == 2

    def test_empty_query_exit_3(self, dataset, capsys):
        ckpt = train_checkpoint(dataset)
        save_matrix(np.zeros((0, 12), np.float32), dataset / "empty.emb")
        save_labels([], 5, dataset / "empty.lbl")
        args = self.eval_args(dataset, ckpt)
        args[args.index("--query-features") + 1] = str(dataset / "empty.emb")
        args[args.index("--query-labels") + 1] = str(dataset / "empty.lbl")
        code, _ = run_cli(args)
        assert code == 3
        assert "no queries" in capsys.readouterr().err

    def test_reads_each_feature_file_once(self, dataset, monkeypatch):
        ckpt = train_checkpoint(dataset)
        reads = []
        load_matrix = data_io.load_matrix

        def counted(path, *args, **kwargs):
            reads.append(path)
            return load_matrix(path, *args, **kwargs)

        monkeypatch.setattr(data_io, "load_matrix", counted)
        monkeypatch.setattr(cli, "load_matrix", counted)
        code, _ = run_cli(self.eval_args(dataset, ckpt))
        assert code == 0
        assert sorted(reads) == sorted([str(dataset / "q.emb"), str(dataset / "g.emb")])

    def test_shape_mismatch_exit_2(self, dataset):
        ckpt = train_checkpoint(dataset)
        save_matrix(np.ones((10, 9), np.float32), dataset / "badq.emb")
        args = self.eval_args(dataset, ckpt)
        args[args.index("--query-features") + 1] = str(dataset / "badq.emb")
        code, _ = run_cli(args)
        assert code == 2


class TestStreamedHead:
    """eval and embed map feature files through the head block by block."""

    @pytest.mark.parametrize("command", ["eval", "embed"])
    def test_row_the_head_cannot_normalize_names_the_file_row(
        self, dataset, monkeypatch, capsys, command
    ):
        head, bank = init(TrainConfig(embed_dim=6), 12, 5)  # bias 0: a zero row stays zero
        save_checkpoint(Checkpoint(head, bank, 0), dataset / "zero_bias.ckpt")
        feats = data_io.load_matrix(dataset / "q.emb")
        feats[7] = 0.0
        save_matrix(feats, dataset / "q.emb")
        monkeypatch.setattr(data_io, "BLOCK_BYTES", 3 * 12 * 4)  # row 7 is row 1 of block 3
        if command == "eval":
            args = TestEval().eval_args(dataset, dataset / "zero_bias.ckpt")
        else:
            args = ["embed", "--ckpt", str(dataset / "zero_bias.ckpt"),
                    "--features", str(dataset / "q.emb"), "--out", str(dataset / "qe.emb")]
        code, out = run_cli(args)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dataset / 'q.emb'}: row 7 cannot be mapped: "
            "block row 1 has norm 0.000e+00 after centring"
        ]
        assert not (dataset / "qe.emb").exists()

    def test_eval_peak_allocation_below_the_query_file(self, dataset):
        # the query payload is 8 blocks; eval never holds it, nor its float64 copy
        rows = 8 * data_io.BLOCK_BYTES // (256 * 4)
        rng = np.random.default_rng(5)
        save_matrix(rng.standard_normal((rows, 256)).astype(np.float32), dataset / "bigq.emb")
        save_labels(np.arange(rows) % 5, 5, dataset / "bigq.lbl")
        save_matrix(rng.standard_normal((15, 256)).astype(np.float32), dataset / "g.emb")
        head, bank = init(TrainConfig(embed_dim=6), 256, 5)
        save_checkpoint(Checkpoint(head, bank, 0), dataset / "wide.ckpt")
        args = TestEval().eval_args(dataset, dataset / "wide.ckpt")
        args[args.index("--query-features") + 1] = str(dataset / "bigq.emb")
        args[args.index("--query-labels") + 1] = str(dataset / "bigq.lbl")
        tracemalloc.start()
        try:
            code, _ = run_cli(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < rows * 256 * 4


class TestSelftest:
    def test_passes_with_named_checks(self):
        code, text = run_cli(["selftest"])
        assert code == 0
        check_lines = [l for l in text.splitlines() if ": PASS" in l]
        assert len(check_lines) >= 6
        assert "selftest: PASS" in text

    def test_fault_injection_fails(self, monkeypatch):
        from marginfit import losses as losses_mod

        real = losses_mod._forward_backward

        def perturbed(*args, **kwargs):
            per_sample, grad_x, grad_p = real(*args, **kwargs)
            return per_sample, grad_x * 1.001, grad_p

        monkeypatch.setattr(losses_mod, "_forward_backward", perturbed)
        code, text = run_cli(["selftest"])
        assert code == 1
        assert "FAIL" in text


# The documented exit code of every error class: 2 format/config/data,
# 3 invariant violations, 4 training divergence.
EXIT_CODES = {
    errors.ConfigError: 2,
    errors.DimMismatch: 2,
    errors.EmptyGallery: 2,
    errors.FormatError: 2,
    errors.InvalidLabel: 2,
    errors.LabelOutOfRange: 2,
    errors.NonFiniteData: 2,
    errors.DegenerateRange: 3,
    errors.InvariantViolation: 3,
    errors.MarginShapeMismatch: 3,
    errors.UnknownClass: 3,
    errors.ZeroNorm: 3,
    errors.DivergenceError: 4,
}


def error_classes(base=errors.MarginfitError):
    for cls in base.__subclasses__():
        yield cls
        yield from error_classes(cls)


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc_type, code", list(EXIT_CODES.items()), ids=[c.__name__ for c in EXIT_CODES]
    )
    def test_error_reaching_main(self, monkeypatch, capsys, exc_type, code):
        def fail(_args):
            raise exc_type("injected")

        monkeypatch.setattr(cli, "_cmd_selftest", fail)
        assert cli.main(["selftest"]) == code
        assert capsys.readouterr().err == "error: injected\n"

    def test_oserror_exit_2(self, monkeypatch, capsys):
        def fail(_args):
            raise FileNotFoundError(2, "No such file or directory", "absent.emb")

        monkeypatch.setattr(cli, "_cmd_selftest", fail)
        assert cli.main(["selftest"]) == 2
        assert "absent.emb" in capsys.readouterr().err

    def test_every_error_class_has_an_exit_code(self):
        found = set(error_classes())
        assert found == set(EXIT_CODES)
        assert all(cls.exit_code in (2, 3, 4) for cls in found)


class TestPackaging:
    def test_module_entry_point(self, dataset):
        env = child_env(MF_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "marginfit", "margins-build",
             "--class-text", str(dataset / "text.emb"),
             "--class-ids", str(dataset / "ids.txt"),
             "--out", str(dataset / "sub.mgn")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "classes=5" in proc.stdout

    def test_mf_threads_caps_blas_env(self):
        probe = (
            "import os; os.environ['MF_THREADS'] = '3'; import marginfit; "
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3 3"

    @pytest.mark.parametrize("numpy_first", [False, True])
    def test_mf_threads_after_numpy_warns(self, numpy_first):
        probe = (
            "import os, warnings; os.environ['MF_THREADS'] = '3'; "
            + ("import numpy; " if numpy_first else "")
            + "warnings.simplefilter('always')\n"
            "with warnings.catch_warnings(record=True) as seen:\n"
            "    import marginfit\n"
            "print(sum('MF_THREADS' in str(w.message) for w in seen))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ("1" if numpy_first else "0")
