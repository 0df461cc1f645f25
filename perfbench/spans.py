"""Outside-in tracing: spans recorded around marginfit's public functions.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the
wrapper under every name that refers to the original in any loaded
``marginfit`` module (``forward_head`` is imported by ``cli``,
``evaluation`` and ``trainer``), so no file of the program changes. Each
call records one span: name, start, end, parent span and an optional work
count. Spans stay in memory until the child process writes them out.

``self_times`` turns spans into self time (duration minus the time its
child spans cover) and checks that self time plus the children adds up to
each parent span. ``layer_metrics`` derives the per-layer metrics; a
function a later refactor removes is not wrapped, and its layer reads 0.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name, work count taken from the call's arguments)
TARGETS = [
    ("cli", "_cmd_margins_build", "cli.margins_build", None),
    ("cli", "_cmd_train", "cli.train", None),
    ("cli", "_cmd_eval", "cli.eval", None),
    ("data_io", "load_bundle", "data_io.load_bundle", None),
    ("data_io", "load_matrix", "data_io.load_matrix", None),
    ("data_io", "load_labels", "data_io.load_labels", None),
    ("data_io", "validate_bundle", "data_io.validate_bundle", None),
    ("margins", "build_margin_matrix", "margins.build_margin_matrix", None),
    ("margins", "load_margin_matrix", "margins.load_margin_matrix", None),
    ("margins", "align_margin_matrix", "margins.align_margin_matrix", None),
    ("margins", "save_margin_matrix", "margins.save_margin_matrix", None),
    ("trainer", "load_train_config", "trainer.load_train_config", None),
    ("trainer", "train", "trainer.train", None),
    ("trainer", "init", "trainer.init", None),
    ("trainer", "forward_head", "trainer.forward_head", lambda head, feats: len(feats)),
    ("trainer", "backward_head", "trainer.backward_head", lambda head, feats, g: len(feats)),
    ("trainer", "sgd_momentum_step", "trainer.sgd_momentum_step", None),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint", None),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("sampler", "BalancedSampler.next_batch", "sampler.next_batch", None),
    (
        "losses",
        "compute_loss",
        "losses.compute_loss",
        lambda x, bank, labels, cfg, margins=None: len(x) * bank.num_classes,
    ),
    ("tensor", "l2_normalize_rows", "tensor.l2_normalize_rows", None),
    ("evaluation", "recall_at_k", "evaluation.recall_at_k", None),
    ("evaluation", "binarize", "evaluation.binarize", None),
    ("evaluation", "hamming_distances", "evaluation.hamming_distances", None),
]

# the span whose peak traced allocation (bytes) is recorded as its work count
PEAK_ALLOC = "evaluation.recall_at_k"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[float] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        peak_alloc = name == PEAK_ALLOC

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.work.append(count(*args, **kwargs) if count else 0)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            if peak_alloc:
                tracemalloc.start()
            self.starts[idx] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                if peak_alloc:
                    self.work[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "marginfit"]
        for mod_name, attr, name, count in TARGETS:
            owner = sys.modules.get(f"marginfit.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if getattr(cls, meth, None) is not None:
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(owner, attr, None)
            if original is None:  # a refactor removed it: its layer reads as zero
                continue
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def spans(self) -> dict:
        return {
            "name": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "work": self.work,
        }


def self_times(spans: dict, tol: float = 1e-6) -> list[float]:
    """Per-span self time; raises ValueError if the span tree is inconsistent."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    selfs = []
    for i in range(n):
        covered, last = 0.0, start[i]
        for c in sorted(children[i], key=lambda c: start[c]):
            if start[c] < start[i] - tol or end[c] > end[i] + tol:
                raise ValueError(f"span {i}: child {c} lies outside its parent")
            # union of child intervals, so overlap could not hide time
            lo = max(start[c], last)
            covered += max(0.0, end[c] - lo)
            last = max(last, end[c])
        own = (end[i] - start[i]) - covered
        child_sum = sum(end[c] - start[c] for c in children[i])
        if own < -tol or abs(own + child_sum - (end[i] - start[i])) > tol:
            raise ValueError(f"span {i}: self time plus children does not add up to the span")
        selfs.append(own)
    return selfs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _module(name: str) -> str:
    return name.split(".")[0]


class ProcessSpans:
    """Spans of one traced process, aggregated by span name."""

    def __init__(self, spans: dict, within: str | None = None):
        names, start, end, parent, work = (
            spans["name"], spans["start"], spans["end"], spans["parent"], spans["work"]
        )
        self_time = self_times(spans)
        dur = [e - s for s, e in zip(start, end)]
        # a layer's time excludes only the child spans of other modules
        layer = list(dur)
        for i, p in enumerate(parent):
            if p >= 0 and _module(names[i]) != _module(names[p]):
                layer[p] -= dur[i]
        inside = [False] * len(names)
        for i, p in enumerate(parent):
            inside[i] = p >= 0 and (names[p] == within or inside[p])
        # names no span carries read as zero (see Tracer.install)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.dur_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        for i, name in enumerate(names):
            if within is not None and not inside[i] and name != within:
                continue
            self.calls[name] += 1
            self.self_s[name] += self_time[i]
            self.layer_s[name] += layer[i]
            self.dur_s[name] += dur[i]
            self.work[name] += work[i]

    def us_per_call(self, name: str) -> float:
        return 1e6 * _ratio(self.layer_s[name], self.calls[name])


def layer_metrics(rnd: dict, workload) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round (train, eval float, eval binary)."""
    train_all = ProcessSpans(rnd["train"]["spans"])
    loop = ProcessSpans(rnd["train"]["spans"], within="trainer.train")
    ev = {mode: ProcessSpans(rnd[mode]["spans"]) for mode in ("float", "binary")}
    iters = workload.total_iters
    loop_s = loop.dur_s["trainer.train"]

    def per_eval(name):
        return sum(e.layer_s[name] for e in ev.values()) / len(ev)

    return {
        "sampler.next_batch.us_per_call": (loop.us_per_call("sampler.next_batch"), "us"),
        "sampler.share": (loop.layer_s["sampler.next_batch"] / loop_s, "fraction"),
        "trainer.forward_head.us_per_call": (loop.us_per_call("trainer.forward_head"), "us"),
        "trainer.backward_head.us_per_call": (loop.us_per_call("trainer.backward_head"), "us"),
        "trainer.sgd_momentum_step.us_per_call": (loop.us_per_call("trainer.sgd_momentum_step"), "us"),
        "trainer.sgd_momentum_step.calls_per_iter": (
            loop.calls["trainer.sgd_momentum_step"] / iters, "count"
        ),
        "tensor.l2_normalize_rows.us_per_call": (loop.us_per_call("tensor.l2_normalize_rows"), "us"),
        "trainer.unattributed_us_per_iter": (1e6 * loop.self_s["trainer.train"] / iters, "us"),
        "losses.compute_loss.us_per_call": (loop.us_per_call("losses.compute_loss"), "us"),
        "losses.compute_loss.share": (loop.layer_s["losses.compute_loss"] / loop_s, "fraction"),
        "losses.compute_loss.logits_per_call": (
            _ratio(loop.work["losses.compute_loss"], loop.calls["losses.compute_loss"]), "count"
        ),
        "trainer.forward_head.rows_per_s": (
            _ratio(
                sum(e.work["trainer.forward_head"] for e in ev.values()),
                sum(e.layer_s["trainer.forward_head"] for e in ev.values()),
            ),
            "rows/s",
        ),
        "evaluation.recall_at_k.float.s": (ev["float"].layer_s["evaluation.recall_at_k"], "s"),
        "evaluation.recall_at_k.binary.s": (ev["binary"].layer_s["evaluation.recall_at_k"], "s"),
        "evaluation.recall_at_k.float.peak_alloc_mb": (
            ev["float"].work["evaluation.recall_at_k"] / 2**20, "MB"
        ),
        "evaluation.recall_at_k.binary.peak_alloc_mb": (
            ev["binary"].work["evaluation.recall_at_k"] / 2**20, "MB"
        ),
        "evaluation.binarize.s": (ev["binary"].layer_s["evaluation.binarize"], "s"),
        "evaluation.hamming_distances.s": (ev["binary"].layer_s["evaluation.hamming_distances"], "s"),
        "evaluation.score_bytes": (8.0 * workload.queries * workload.queries, "bytes"),
        "data_io.load_bundle.s": (
            sum(p.layer_s["data_io.load_bundle"] for p in (train_all, *ev.values())), "s"
        ),
        "data_io.load_matrix.calls": (ev["float"].calls["data_io.load_matrix"], "count"),
        "data_io.validate_bundle.calls": (train_all.calls["data_io.validate_bundle"], "count"),
        "margins.build_margin_matrix.s": (train_all.layer_s["margins.build_margin_matrix"], "s"),
        "margins.align_margin_matrix.s": (train_all.layer_s["margins.align_margin_matrix"], "s"),
        "trainer.save_checkpoint.s": (train_all.layer_s["trainer.save_checkpoint"], "s"),
        "trainer.load_checkpoint.s": (per_eval("trainer.load_checkpoint"), "s"),
        "cli.train.self_s": (train_all.layer_s["cli.train"], "s"),
        "cli.eval.self_s": (per_eval("cli.eval"), "s"),
    }
