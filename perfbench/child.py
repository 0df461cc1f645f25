"""One fresh process: import marginfit, run CLI calls in-process, report timings.

Usage: python3 child.py PLAN.json RESULT.json

PLAN holds {"ops": [[argv...], ...], "trace": bool}. Each op is passed to
``marginfit.cli.main``; its stdout lines are captured with the
``time.perf_counter`` reading at which each line was completed, so the
caller can time the ``iter=`` lines that ``train`` streams. RESULT gets the
process start and import times, per-op exit codes, output and wall time,
the process's peak RSS and, when tracing, the recorded spans.
"""

import contextlib
import io
import json
import sys
import time

T_START = time.perf_counter()


class LineClock(io.TextIOBase):
    """A text sink that timestamps every completed line."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, s):
        now = time.perf_counter()
        parts = (self._partial + s).split("\n")
        self._partial = parts.pop()
        self.lines.extend((now, line) for line in parts)
        return len(s)


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ru_maxrss would also count the parent's RSS at fork time, which
    survives exec; VmHWM belongs to the new address space alone.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    from marginfit import cli

    t_imported = time.perf_counter()
    tracer = None
    if plan.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []
    for argv in plan["ops"]:
        out, err = LineClock(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = time.perf_counter()
        ops.append({"argv": argv, "rc": rc, "t0": t0, "t1": t1, "out": out.lines, "err": err.getvalue()})
        if rc != 0:
            break

    result = {
        "t_start": T_START,
        "t_imported": t_imported,
        "ops": ops,
        "maxrss_mb": peak_rss_mb(),
        "spans": tracer.spans() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
