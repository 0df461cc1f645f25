"""Command-line pipeline: margins-build, train, embed, eval, selftest.

Exit codes: 0 success, 1 selftest failure, 2 OSError, else the error's
``exit_code`` (``marginfit.errors``: 2 format/config/data, 3 invariant
violations, 4 training divergence). All randomness flows from seeds in the
config file, so every subcommand is deterministic given its inputs. Set
MF_THREADS to cap worker (BLAS) threads.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .data_io import EvalSplit, load_bundle, load_class_ids, load_matrix, save_matrix
from .errors import ConfigError, MarginfitError
from .evaluation import (
    DEFAULT_KS,
    MODE_BINARY,
    MODE_FLOAT,
    format_report,
    machine_lines,
    recall_at_k,
)
from .margins import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    NORM_ANALYTIC,
    NORM_MINMAX,
    ClassTextEmbeddings,
    build_margin_matrix,
    load_margin_matrix,
    save_margin_matrix,
)
from .selftest import run_selftest
from .trainer import (
    forward_head,
    load_checkpoint,
    load_train_config,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_FORMAT = 2


def _cmd_margins_build(args) -> int:
    embeddings = load_matrix(args.class_text)
    class_ids = load_class_ids(args.class_ids)
    cte = ClassTextEmbeddings(embeddings, class_ids)
    matrix = build_margin_matrix(cte, args.metric, args.norm)
    save_margin_matrix(matrix, args.out)

    c = matrix.num_classes
    if c == 1:
        print("warning: single class, margin matrix is trivially zero", file=sys.stderr)
        print(f"classes={c}")
        return EXIT_OK
    off = matrix.d[~np.eye(c, dtype=bool)].astype(np.float64)
    print(f"classes={c}")
    print(f"distance_min={off.min():.6f}")
    print(f"distance_mean={off.mean():.6f}")
    print(f"distance_max={off.max():.6f}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    bundle = load_bundle(args.features, args.labels, args.class_ids)

    margin_matrix = None if args.margins is None else load_margin_matrix(args.margins)

    def stream(t, lr, loss):
        if t % 100 == 0:
            print(f"iter={t} lr={lr:.8g} loss={loss:.8g}")

    def warn(message):
        print(f"warning: {message}", file=sys.stderr)

    ckpt = train(bundle, cfg, margin_matrix, on_iteration=stream, on_warning=warn)
    save_checkpoint(ckpt, args.out)
    print(f"checkpoint={args.out} iteration={ckpt.iteration}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    embeddings = load_matrix(args.features, partial(forward_head, ckpt.head))
    save_matrix(embeddings, args.out)
    print(f"embedded={embeddings.shape[0]} dim={ckpt.head.weight.shape[1]} out={args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        ks = [int(k) for k in args.ks.split(",")] if args.ks else list(DEFAULT_KS)
    except ValueError:
        raise ConfigError(f"--ks must be comma-separated integers, got {args.ks!r}") from None
    ckpt = load_checkpoint(args.ckpt)
    head = partial(forward_head, ckpt.head)  # bundles hold embeddings, never the features
    query = load_bundle(args.query_features, args.query_labels, map_rows=head)
    gallery = load_bundle(args.gallery_features, args.gallery_labels, map_rows=head)
    split = EvalSplit(query, gallery)

    mode = MODE_BINARY if args.binary else MODE_FLOAT
    q, g = split.query, split.gallery
    report = recall_at_k(q.features, q.labels, g.features, g.labels, ks, mode)

    print(format_report(report))
    for line in machine_lines(report):
        print(line)
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    return EXIT_OK if run_selftest() else EXIT_SELFTEST_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginfit",
        description="Proxy-based metric learning with text-derived adaptive margins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("margins-build", help="build a class-pair margin matrix from text embeddings")
    p.add_argument("--class-text", required=True, help="EMB1 matrix, one row per class")
    p.add_argument("--class-ids", required=True, help="text sidecar, one class id per line")
    p.add_argument("--metric", choices=[METRIC_COSINE, METRIC_EUCLIDEAN], default=METRIC_COSINE)
    p.add_argument("--norm", choices=[NORM_ANALYTIC, NORM_MINMAX], default=NORM_ANALYTIC)
    p.add_argument("--out", required=True, help="output MGN1 path")
    p.set_defaults(func=_cmd_margins_build)

    p = sub.add_parser("train", help="train the embedding head and proxies")
    p.add_argument("--config", required=True, help="key = value training config")
    p.add_argument("--features", required=True, help="EMB1 train features")
    p.add_argument("--labels", required=True, help="LBL1 train labels")
    p.add_argument("--class-ids", default=None, help="optional class-id sidecar")
    p.add_argument("--margins", default=None, help="MGN1 margins (required for adaptive loss)")
    p.add_argument("--out", required=True, help="output CKP1 checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", help="embed a feature matrix with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True, help="EMB1 features to embed")
    p.add_argument("--out", required=True, help="output EMB1 embeddings path")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("eval", help="Recall@K over a query/gallery split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--query-features", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-features", required=True)
    p.add_argument("--gallery-labels", required=True)
    p.add_argument("--binary", action="store_true", help="rank by Hamming distance on sign bits")
    p.add_argument("--ks", default=None, help="comma-separated K list, default 1,5,10,20,30,40,50")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("selftest", help="run built-in correctness checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MarginfitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, MarginfitError) else EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
