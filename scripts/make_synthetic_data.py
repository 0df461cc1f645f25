#!/usr/bin/env python3
"""Write a synthetic desk-scale dataset as CLI-ready container files.

Produces train/query/gallery feature+label files, class-level text
embeddings with a class-id sidecar, and a training config, so the full
pipeline can be driven end to end:

    python3 scripts/make_synthetic_data.py --out data/
    marginfit margins-build --class-text data/class_text.emb \
        --class-ids data/class_ids.txt --out data/margins.mgn
    marginfit train --config data/train.cfg --features data/train.emb \
        --labels data/train.lbl --class-ids data/class_ids.txt \
        --margins data/margins.mgn --out data/model.ckpt
    marginfit eval --ckpt data/model.ckpt --query-features data/query.emb \
        --query-labels data/query.lbl --gallery-features data/gallery.emb \
        --gallery-labels data/gallery.lbl
"""

import argparse
from pathlib import Path

from marginfit.data_io import save_class_ids, save_labels, save_matrix
from marginfit.synthetic import clustered_features, hierarchical_text_embeddings

TRAIN_CONFIG = """\
# desk-scale adaptive-margin run
embed_dim = 32
lr0 = 0.05
momentum = 0.9
warmup_iters = 100
total_iters = 2000
loss_kind = adaptive
sigma = 20
margin = 0.4
temperature_mode = multiply
batch_size = 75
k = 5
seed = 3
proxy_init_seed = 4
head_init_seed = 5
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--classes", type=int, default=50)
    ap.add_argument("--feature-dim", type=int, default=64)
    ap.add_argument("--cluster-std", type=float, default=0.15)
    ap.add_argument("--groups", type=int, default=5, help="text super-groups")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--text-seed", type=int, default=8)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    data = clustered_features(
        num_classes=args.classes,
        feature_dim=args.feature_dim,
        cluster_std=args.cluster_std,
        seed=args.seed,
    )
    text = hierarchical_text_embeddings(
        num_classes=args.classes, num_groups=args.groups, seed=args.text_seed
    )

    save_matrix(data.train.features, out / "train.emb")
    save_labels(data.train.labels, args.classes, out / "train.lbl")
    save_matrix(data.split.query.features, out / "query.emb")
    save_labels(data.split.query.labels, args.classes, out / "query.lbl")
    save_matrix(data.split.gallery.features, out / "gallery.emb")
    save_labels(data.split.gallery.labels, args.classes, out / "gallery.lbl")
    save_matrix(text.embeddings, out / "class_text.emb")
    save_class_ids(text.class_ids, out / "class_ids.txt")
    (out / "train.cfg").write_text(TRAIN_CONFIG, encoding="utf-8")

    print(f"wrote {args.classes}-class dataset to {out}/")
    print(f"  train {data.train.features.shape}, query {data.split.query.features.shape}, "
          f"gallery {data.split.gallery.features.shape}")
    print(f"  class text {text.embeddings.shape} in {args.groups} super-groups")


if __name__ == "__main__":
    main()
