"""Self-checks of the benchmark, on the small "smoke" corpus.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes well under a minute.  It checks:

1. every workload runs end to end on the smoke schedule, untraced and
   traced, with no wrong answer and no failure other than the documented
   zero-entropy round trip, and the traced self times plus the time outside
   all spans add up to the traced wall time;
2. every oracle check rejects a perturbed answer: an entropy moved by 1e-6,
   a flipped verdict, and a wrong exit code, wherever the operation's output
   carries one.

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

VERDICT_KEYS = (
    "isomorphic", "holds", "finite_to_one", "injective", "right_resolving",
    "left_resolving", "fibers_complete", "estimate_below_eps", "gap_certified",
    "bordered_unique", "audit_injective", "return_counts_match", "mme",
)
ENTROPY_KEYS = ("image_entropy", "hidden_entropy", "estimate", "entropy")
SHIFT = 1e-6


def wrong_exit(res):
    import workloads

    return workloads.Result({0: 1, 1: 0}.get(res.rc, 0), res.stdout, res.stderr)


def flipped_verdict(res):
    import workloads

    pattern = re.compile(r"\b(%s)=(true|false)\b" % "|".join(VERDICT_KEYS))
    m = pattern.search(res.stdout)
    if m is None:
        return None
    flip = "false" if m.group(2) == "true" else "true"
    out = res.stdout[: m.start(2)] + flip + res.stdout[m.end(2):]
    return workloads.Result(res.rc, out, res.stderr)


def _shift_gen_line(line: str) -> str:
    toks = line.split()
    period, expr, count = toks[1], toks[2:-1], toks[-1]
    if expr[0] == "poly":
        cut = expr.index("root-in")
        factor = Fraction(1 + SHIFT)  # lambda * (1 + d) moves log lambda by about d
        lo, hi = Fraction(expr[cut + 1]) * factor, Fraction(expr[cut + 2]) * factor
        expr = expr[: cut + 1] + [str(lo), str(hi)]
    elif expr[0] == "log":
        h = Fraction(math.log(float(Fraction(expr[1]))) + SHIFT)
        expr = [str(h), str(h)]
    else:
        d = Fraction(SHIFT)
        expr = [str(Fraction(expr[0]) + d), str(Fraction(expr[1]) + d)]
    return " ".join(["gen", period] + expr + [count])


def shifted_entropy(res):
    """The first entropy the output prints, moved up by 1e-6 (or, for a
    realized document, its first loop count raised by one)."""
    import workloads

    lines = res.stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("gen "):
            lines[i] = _shift_gen_line(line)
            return workloads.Result(res.rc, "\n".join(lines) + "\n", res.stderr)
    key = re.compile(r"\b(%s)=([-+0-9.e]+)" % "|".join(ENTROPY_KEYS))
    for i, line in enumerate(lines):
        m = key.search(line)
        if m:
            value = repr(float(m.group(2)) + SHIFT)
            lines[i] = line[: m.start(2)] + value + line[m.end(2):]
            return workloads.Result(res.rc, "\n".join(lines) + "\n", res.stderr)
    for i, line in enumerate(lines):
        if line.startswith("count "):
            _, n, c = line.split()
            lines[i] = f"count {n} {int(c) + 1}"
            return workloads.Result(res.rc, "\n".join(lines) + "\n", res.stderr)
    return None


PERTURBATIONS = {"exit code": wrong_exit, "verdict": flipped_verdict, "entropy": shifted_entropy}


def check_oracles(root: str) -> list[str]:
    """Run each smoke workload once and perturb every passing answer."""
    import corpus
    import run
    import workloads

    problems, tried = [], {name: 0 for name in PERTURBATIONS}
    for workload in sorted(run.NOMINAL_PASS_S):
        work = os.path.join(root, ".perfbench_work", f"selfcheck-{workload}-{os.getpid()}")
        ops = workloads.build(workload, work, 7, corpus.SCHEDULES["smoke"])
        try:
            results, _ = run.run_pass(ops)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for op, res in zip(ops, results):
            if res.rc is None or op.check(res):
                continue  # only answers that pass can be perturbed meaningfully
            for name, perturb in PERTURBATIONS.items():
                bad = perturb(res)
                if bad is None:
                    continue
                tried[name] += 1
                try:
                    rejected = bool(op.check(bad))
                except (ValueError, KeyError, IndexError):
                    rejected = True
                if not rejected:
                    problems.append(f"{op.id}: oracle accepted a perturbed {name}")
    print("perturbed answers tried: " + ", ".join(f"{k} {v}" for k, v in tried.items()))
    if not all(tried.values()):
        problems.append("some perturbation kind was never tried")
    return problems


def check_smoke(root: str) -> list[str]:
    import run
    import tracing

    problems = []
    for workload in sorted(run.NOMINAL_PASS_S):
        for trace in (False, True):
            res = run.run_workload(workload, 3, 1, trace, root, schedule="smoke",
                                   out=lambda line: None)
            tag = f"{workload} trace={int(trace)}"
            # the zero-entropy round trip fails once per pass: two untraced
            # passes, or one untraced and one traced
            known = 2 if workload == "large-graphs" else 0
            if not res["correct"] or res["failed"] != known:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            names = set(res["metrics"])
            if trace:
                missing = set(tracing.TIME_METRICS + tracing.COUNT_METRICS) - names
                if missing:
                    problems.append(f"{tag}: missing metrics {sorted(missing)}")
            elif names != {"wall_s", "setup_s", "peak_rss_mb"}:
                problems.append(f"{tag}: end-to-end metrics {sorted(names)}")
            print(f"smoke {tag}: attempted {res['attempted']} failed {res['failed']}")
    return problems


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    problems = check_oracles(root) + check_smoke(root)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
