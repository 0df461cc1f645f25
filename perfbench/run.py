"""marginfit benchmark: CLI-driven training and retrieval workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Each run generates its inputs from --seed, then repeats rounds until
--seconds have passed (at least MIN_ROUNDS). A round is three fresh Python
processes, each calling ``marginfit.cli.main`` in-process:

* train:       ``margins-build`` then ``train``
* eval float:  ``eval``
* eval binary: ``eval --binary``

The first round also runs ``embed`` on the query and gallery features, and
every ``recall@K=`` line must equal an independent reference computed from
those embeddings. Every output is checked (see ``reference.py``); each CLI
call is one operation, failed if it exits non-zero or fails its check.

With --trace 1 each round is run twice, untraced then traced; the traced
processes wrap marginfit's public functions (``spans.py``) and the run
reports per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench_work/spans/``. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from reference import (
    cosine_margins,
    forward_head,
    lr_schedule,
    read_ckp1,
    read_emb1,
    read_mgn1,
    recall_at_k,
)
from spans import layer_metrics
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KS = (1, 5, 10, 20, 30, 40, 50)
STREAM_EVERY = 100  # train prints an iter= line every 100 iterations
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
HARD_LIMIT_S = 170.0  # the whole run must end well within 180 s
# BLAS threads for every child. On a 2-vCPU shared host a second thread
# gave no speed-up at these sizes, and with it setup time jumped between
# two levels from run to run.
MF_THREADS = "1"


def median(values):
    return statistics.median(values)


def iter_stamps(rnd) -> list[float]:
    """Clock readings at which the round's train call printed its iter= lines."""
    return [t for t, line in rnd["train"]["ops"][1]["out"] if line.startswith("iter=")]


def key_values(op) -> dict[str, str]:
    """The key=value lines an operation printed, as a dict."""
    return dict(line.split("=", 1) for _, line in op["out"] if "=" in line and " " not in line)


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.t_begin = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.reference_lines: dict[str, list[str]] = {}
        self.first_bytes: dict[str, bytes] = {}
        self.n_children = 0

    # ------------------------------------------------------------ processes

    def child(self, ops, trace=False):
        """Run ops in a fresh process; returns its result, or None if it died."""
        self.n_children += 1
        tag = f"c{self.n_children}"
        plan, result = self.work / f"{tag}.plan.json", self.work / f"{tag}.result.json"
        plan.write_text(json.dumps({"ops": ops, "trace": trace}), encoding="utf-8")
        self.attempted += len(ops)
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.t_begin))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(plan), str(result)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.fail(len(ops), f"{tag}: timed out after {timeout:.0f}s running {ops}")
            return None
        if proc.returncode != 0 or not result.is_file():
            self.fail(len(ops), f"{tag}: process exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        res = json.loads(result.read_text(encoding="utf-8"))
        for op in res["ops"]:
            if op["rc"] != 0:
                self.fail(1, f"{tag}: {op['argv'][0]} exited {op['rc']}: {op['err'][-2000:]}")
        self.fail(len(ops) - len(res["ops"]), f"{tag}: ops after a failed one were not run")
        return res if len(res["ops"]) == len(ops) and all(o["rc"] == 0 for o in res["ops"]) else None

    def fail(self, n_ops: int, why: str) -> None:
        if n_ops > 0:
            self.failed += n_ops
            self.problems.append(why)

    def check(self, ok: bool, why: str) -> bool:
        """One output check; a failed check fails the operation it belongs to."""
        if not ok:
            self.fail(1, why)
        return ok

    def same_as_first(self, key: str, path: str) -> bool:
        data = Path(path).read_bytes()
        first = self.first_bytes.setdefault(key, data)
        return self.check(data == first, f"{key}: output differs between identical runs")

    # ---------------------------------------------------------------- round

    def round(self, index: int, trace: bool):
        """One train process and two eval processes; None if anything failed."""
        f = self.files
        tag = f"{'t' if trace else 'u'}{index}"
        mgn, ckpt = str(self.work / f"{tag}.mgn"), str(self.work / f"{tag}.ckpt")
        train = self.child(
            [
                ["margins-build", "--class-text", f["class_text.emb"], "--class-ids",
                 f["class_ids.txt"], "--out", mgn],
                ["train", "--config", f["train.cfg"], "--features", f["train.emb"], "--labels",
                 f["train.lbl"], "--class-ids", f["class_ids.txt"], "--margins", mgn, "--out", ckpt],
            ],
            trace,
        )
        if train is None:
            return None
        if not (self.check_margins(train["ops"][0], mgn) and self.check_train(train["ops"][1], ckpt)):
            return None
        if not self.reference_lines and not self.build_reference(ckpt):
            return None

        evals = {}
        for mode in ("float", "binary"):
            argv = ["eval", "--ckpt", ckpt, "--query-features", f["query.emb"], "--query-labels",
                    f["query.lbl"], "--gallery-features", f["gallery.emb"], "--gallery-labels",
                    f["gallery.lbl"], "--ks", ",".join(map(str, KS))]
            res = self.child([argv + (["--binary"] if mode == "binary" else [])], trace)
            if res is None or not self.check_eval(res["ops"][0], mode):
                return None
            evals[mode] = res
        return {"train": train, "float": evals["float"], "binary": evals["binary"]}

    # --------------------------------------------------------------- checks

    def check_margins(self, op, mgn: str) -> bool:
        if "margins" not in self.first_bytes:
            ref = cosine_margins(self.inputs["class_text"])
            metric, norm, ids, d = read_mgn1(mgn)
            c = len(self.inputs["class_ids"])
            off = ref[~np.eye(c, dtype=bool)]
            out = key_values(op)
            ok = (
                (metric, norm) == (0, 0)
                and ids == self.inputs["class_ids"]
                and np.array_equal(d, d.T)
                and not np.any(np.diag(d))
                and float(np.max(np.abs(d - ref))) <= 1e-5
                and out.get("classes") == str(c)
                and all(
                    abs(float(out[f"distance_{k}"]) - v) <= 1e-5
                    for k, v in (("min", off.min()), ("mean", off.mean()), ("max", off.max()))
                )
            )
            if not self.check(ok, "margins-build: MGN1 file or summary disagrees with the reference"):
                return False
        return self.same_as_first("margins", mgn)

    def check_train(self, op, ckpt: str) -> bool:
        w = self.w
        iters = [
            dict(kv.split("=", 1) for kv in line.split())
            for _, line in op["out"]
            if line.startswith("iter=")
        ]
        steps = [int(d["iter"]) for d in iters]
        losses = [float(d["loss"]) for d in iters]
        ok = (
            steps == list(range(0, w.total_iters, STREAM_EVERY))
            and all(
                math.isclose(
                    float(d["lr"]), lr_schedule(t, w.lr0, w.warmup_iters, w.total_iters), rel_tol=1e-6
                )
                for t, d in zip(steps, iters)
            )
            and all(math.isfinite(x) for x in losses)
            and losses[-1] < losses[0]
            and f"checkpoint={ckpt} iteration={w.total_iters}" in (line for _, line in op["out"])
        )
        if not self.check(ok, "train: iter= lines, lr schedule, loss or checkpoint line wrong"):
            return False
        if "ckpt" not in self.first_bytes:
            weight, bias, proxies, iteration = read_ckp1(ckpt)
            norms = np.linalg.norm(proxies.astype(np.float64), axis=1)
            ok = (
                weight.shape == (w.feature_dim, w.embed_dim)
                and proxies.shape == (w.classes, w.embed_dim)
                and iteration == w.total_iters
                and all(np.isfinite(m).all() for m in (weight, bias, proxies))
                and float(np.max(np.abs(norms - 1.0))) <= 1e-5
            )
            if not self.check(ok, "train: CKP1 shapes, iteration or proxy norms wrong"):
                return False
        return self.same_as_first("ckpt", ckpt)

    def build_reference(self, ckpt: str) -> bool:
        """Embed query and gallery with the CLI; recompute Recall@K from them."""
        f = self.files
        q_out, g_out = str(self.work / "query.out.emb"), str(self.work / "gallery.out.emb")
        res = self.child(
            [
                ["embed", "--ckpt", ckpt, "--features", f["query.emb"], "--out", q_out],
                ["embed", "--ckpt", ckpt, "--features", f["gallery.emb"], "--out", g_out],
            ]
        )
        if res is None:
            return False
        weight, bias, _, _ = read_ckp1(ckpt)
        embedded = {}
        for split, path in (("query", q_out), ("gallery", g_out)):
            feats, labels = self.inputs[split]
            e = read_emb1(path)
            ok = e.shape == (len(feats), self.w.embed_dim) and float(
                np.max(np.abs(e - forward_head(weight, bias, feats)))
            ) <= 1e-4
            if not self.check(ok, f"embed: {split} embeddings disagree with the reference head"):
                return False
            embedded[split] = (e, labels)
        (qe, ql), (ge, gl) = embedded["query"], embedded["gallery"]
        for mode in ("float", "binary"):
            recall = recall_at_k(qe, ql, ge, gl, KS, binary=mode == "binary")
            self.reference_lines[mode] = [f"mode={mode}", f"num_queries={len(ql)}"] + [
                f"recall@{k}={r:.6f}" for k, r in zip(KS, recall)
            ]
        return True

    def check_eval(self, op, mode: str) -> bool:
        # only the contract lines; eval may print other key=value lines too
        lines = [
            line
            for _, line in op["out"]
            if line.split("=")[0] in ("mode", "num_queries") or line.startswith("recall@")
        ]
        expected = self.reference_lines[mode]
        ok = self.check(lines == expected, f"eval {mode}: {lines} != reference {expected}")
        if ok and mode == "float":
            r1 = float(key_values(op)["recall@1"])
            floor = self.w.recall_floor
            ok = self.check(r1 >= floor, f"eval float: Recall@1 {r1} below floor {floor}")
        return ok

    # -------------------------------------------------------------- metrics

    def run_rounds(self):
        untraced, traced = [], []
        while True:
            r = self.round(len(untraced) + 1, trace=False)
            if r is None:
                break
            untraced.append(r)
            self.log_round(r)
            if self.trace:
                r = self.round(len(traced) + 1, trace=True)
                if r is None:
                    break
                traced.append(r)
                self.log_round(r)
            elapsed = time.perf_counter() - self.t_begin
            enough = len(untraced) >= (MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS)
            if enough and elapsed >= self.seconds:
                break
        return untraced, traced

    def log_round(self, r) -> None:
        stamps = iter_stamps(r)
        walls = {m: r[m]["ops"][0]["t1"] - r[m]["ops"][0]["t0"] for m in ("float", "binary")}
        print(
            f"round: setup {stamps[0] - r['train']['t_start']:.3f}s, "
            f"train {stamps[-1] - stamps[0]:.3f}s, "
            f"eval float {walls['float']:.3f}s, eval binary {walls['binary']:.3f}s",
            file=sys.stderr,
        )

    def end_to_end(self, rounds) -> dict:
        w = self.w
        setups, intervals = [], []
        for r in rounds:
            stamps = iter_stamps(r)
            setups.append(stamps[0] - r["train"]["t_start"])
            intervals.extend(b - a for a, b in zip(stamps, stamps[1:]))

        def recall1(mode):
            return float(key_values(rounds[0][mode]["ops"][0])["recall@1"])

        def qps(mode):
            walls = [r[mode]["ops"][0]["t1"] - r[mode]["ops"][0]["t0"] for r in rounds]
            return w.queries / median(walls)

        return {
            "setup_s": (median(setups), "s"),
            "train_iters_per_s": (STREAM_EVERY / median(intervals), "iters/s"),
            "recall_at_1": (recall1("float"), "fraction"),
            "binary_recall_at_1": (recall1("binary"), "fraction"),
            "peak_rss_mb": (median(r["train"]["maxrss_mb"] for r in rounds), "MB"),
            "eval_float_qps": (qps("float"), "queries/s"),
            "eval_binary_qps": (qps("binary"), "queries/s"),
            "eval_float_peak_rss_mb": (median(r["float"]["maxrss_mb"] for r in rounds), "MB"),
            "eval_binary_peak_rss_mb": (median(r["binary"]["maxrss_mb"] for r in rounds), "MB"),
        }

    def per_layer(self, untraced, traced) -> dict:
        per_round = [layer_metrics(r, self.w) for r in traced]
        out = {
            name: (median(m[name][0] for m in per_round), unit)
            for name, (_, unit) in per_round[0].items()
        }
        plain, with_spans = self.end_to_end(untraced), self.end_to_end(traced)
        for name in ("train_iters_per_s", "eval_float_qps", "eval_binary_qps"):
            out[f"trace.overhead.{name}"] = (100.0 * (1.0 - with_spans[name][0] / plain[name][0]), "%")
        return out

    def write_spans(self, traced) -> None:
        out_dir = ROOT / ".perfbench_work" / "spans"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.w.name}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i, r in enumerate(traced, start=1):
                for proc in ("train", "float", "binary"):
                    s = r[proc]["spans"]
                    for j in range(len(s["name"])):
                        f.write(json.dumps({
                            "round": i, "process": proc, "id": j, "parent": s["parent"][j],
                            "name": s["name"][j], "start": s["start"][j], "end": s["end"][j],
                            "work": s["work"][j],
                        }) + "\n")
        print(f"spans written to {path}", file=sys.stderr)

    def execute(self) -> dict:
        self.inputs = generate(self.w, self.seed, self.work)
        self.files = self.inputs["files"]
        self.child([])  # warm the page cache and bytecode before anything is timed
        untraced, traced = self.run_rounds()
        metrics = {}
        if not self.failed:
            try:
                if self.trace:
                    metrics = self.per_layer(untraced, traced)
                    self.write_spans(traced)
                else:
                    metrics = self.end_to_end(untraced)
            except ValueError as exc:  # inconsistent span tree
                self.fail(1, f"trace: {exc}")
        for why in self.problems:
            print(f"FAILED: {why}", file=sys.stderr)
        return {
            "correct": not self.failed,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "marginfit" / "cli.py").is_file():
        print(f"error: no marginfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # every child inherits this; marginfit applies it before it imports numpy
    os.environ["MF_THREADS"] = MF_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
