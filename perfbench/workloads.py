"""Workload definitions and the input generator: (workload, seed) -> CLI files.

Every workload runs the same CLI pipeline (margins-build, train, eval in
float mode, eval in binary mode) so that every end-to-end metric exists on
every workload; the sizes decide which layer dominates. Inputs come from
``marginfit.synthetic`` with data seed = the benchmark seed, and are
written with the benchmark's own EMB1/LBL1 writers, so the program only
ever receives files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from reference import write_emb1, write_lbl1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    feature_dim: int
    cluster_std: float
    train_per_class: int
    eval_per_class: int  # query and gallery rows per class each
    text: str  # "equidistant" or "hierarchical" class text
    text_dim: int
    embed_dim: int
    batch_size: int
    total_iters: int
    lr0: float = 0.05
    warmup_iters: int = 100
    k: int = 5
    recall_floor: float = 0.0  # float Recall@1 must reach this

    @property
    def queries(self) -> int:
        return self.classes * self.eval_per_class


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="train-small",
            why=(
                "criterion-5 train config: C=50 F=64 D=32 B=75 k=5 2000 iters, equidistant margins, "
                "Q=G=2000; per-step overhead dominates (sampler, head fwd+bwd)"
            ),
            classes=50,
            feature_dim=64,
            cluster_std=0.15,
            train_per_class=40,
            eval_per_class=40,
            text="equidistant",
            text_dim=64,
            embed_dim=32,
            batch_size=75,
            total_iters=2000,
            recall_floor=0.90,
        ),
        Workload(
            name="train-manyclass",
            why=(
                "C=1000 F=512 D=128 B=150 400 iters, hierarchical margins, Q=G=4000: loss, momentum "
                "step and proxy renorm grow with C; ranking dominates eval time and peak RSS"
            ),
            classes=1000,
            feature_dim=512,
            cluster_std=0.065,
            train_per_class=10,
            eval_per_class=4,
            text="hierarchical",
            text_dim=64,
            embed_dim=128,
            batch_size=150,
            total_iters=400,
        ),
    ]
}


def config_text(w: Workload, seed: int) -> str:
    return "".join(
        f"{key} = {value}\n"
        for key, value in [
            ("embed_dim", w.embed_dim),
            ("lr0", w.lr0),
            ("momentum", 0.9),
            ("warmup_iters", w.warmup_iters),
            ("total_iters", w.total_iters),
            ("loss_kind", "adaptive"),
            ("sigma", 20.0),
            ("margin", 0.4),
            ("batch_size", w.batch_size),
            ("k", w.k),
            ("seed", seed),
            ("proxy_init_seed", 4),
            ("head_init_seed", 5),
        ]
    )


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write every input file for (w, seed) under ``out``; return their paths and arrays."""
    from marginfit import synthetic

    data = synthetic.clustered_features(
        num_classes=w.classes,
        feature_dim=w.feature_dim,
        cluster_std=w.cluster_std,
        train_per_class=w.train_per_class,
        query_per_class=w.eval_per_class,
        gallery_per_class=w.eval_per_class,
        seed=seed,
    )
    if w.text == "equidistant":
        text = synthetic.equidistant_text_embeddings(w.classes, w.text_dim, seed=seed + 1)
    else:
        text = synthetic.hierarchical_text_embeddings(
            w.classes, num_groups=10, text_dim=w.text_dim, seed=seed + 1
        )

    files = {name: str(out / name) for name in FILE_NAMES}
    write_emb1(files["train.emb"], data.train.features)
    write_lbl1(files["train.lbl"], data.train.labels, w.classes)
    Path(files["class_ids.txt"]).write_text(
        "".join(f"{cid}\n" for cid in data.train.class_ids), encoding="utf-8"
    )
    write_emb1(files["class_text.emb"], text.embeddings)
    Path(files["train.cfg"]).write_text(config_text(w, seed), encoding="utf-8")
    write_emb1(files["query.emb"], data.split.query.features)
    write_lbl1(files["query.lbl"], data.split.query.labels, w.classes)
    write_emb1(files["gallery.emb"], data.split.gallery.features)
    write_lbl1(files["gallery.lbl"], data.split.gallery.labels, w.classes)
    return {
        "files": files,
        "class_ids": list(data.train.class_ids),
        "class_text": text.embeddings,
        "query": (data.split.query.features, data.split.query.labels),
        "gallery": (data.split.gallery.features, data.split.gallery.labels),
    }


FILE_NAMES = [
    "train.emb",
    "train.lbl",
    "class_ids.txt",
    "class_text.emb",
    "train.cfg",
    "query.emb",
    "query.lbl",
    "gallery.emb",
    "gallery.lbl",
]
