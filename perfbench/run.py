"""borelshift benchmark: time to a certified answer on three seeded workloads.

    python3 perfbench/run.py --workload {algebraic,large-graphs,codes} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.  One
process, one caller, no threads: each operation starts when the previous one
has returned.  Every answer is checked against the oracles in `oracles.py`,
which do not use the library.

With `--trace 0` the run repeats the workload's operation list on the inputs
drawn from the seed, tracing off, as many times as nominal passes fit in
`--seconds` and at least twice, and prints the end-to-end metrics: `wall_s`
(the sum over operations of each operation's best time), `setup_s` (median
of fresh-process set-ups) and `peak_rss_mb`.  With `--trace 1` it runs one
untraced pass and then the same inputs again with every public function of
every module wrapped in a span, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it gives the output
digest of the seed's pass: a hash of every emitted document, report line and
exit code in operation order, for checking that a change leaves outputs alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import corpus
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Pass length at the seed commit on a 2-core x86-64 machine (Python 3.11).
# The number of passes is how many of these fit in --seconds, so it does not
# depend on how fast a run happens to be.
NOMINAL_PASS_S = {"algebraic": 13.0, "large-graphs": 18.0, "codes": 11.0}
SETUP_SAMPLES = 5

SETUP_CHILD = r"""
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import borelshift
from borelshift import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["analyze", sys.argv[2]])
print(rc, repr(time.perf_counter() - t0))
"""

GOLDEN = "graph\nvertex a\nvertex b\nedge a a\nedge a b\nedge b a\n"


def measure_setup(src: str, golden: str, samples: int) -> list[float]:
    """Fresh processes: import borelshift plus one analyze of the golden mean."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, src, golden],
            capture_output=True, text=True, timeout=120, check=False,
        )
        rc, elapsed = proc.stdout.split()[-2:] if proc.returncode == 0 else ("?", "0")
        if rc != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        times.append(float(elapsed))
    return times


def run_pass(ops, tracer=None):
    """Run the operations in order; returns (results, seconds per operation)."""
    results, times = [], []
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        start = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            res = workloads.Result(None, "", f"crash: {type(exc).__name__}: {exc}"[:400])
        times.append(time.perf_counter() - start)
        if op.after is not None:
            op.after(res)
        results.append(res)
    return results, times


def judge(ops, results):
    """(failed ops, wrong answers): each a list of (op id, reasons)."""
    failed, wrong = [], []
    for op, res in zip(ops, results):
        if res.rc is None:
            errs = [res.stderr]
        else:
            try:
                errs = op.check(res)
            except Exception as exc:  # unreadable output fails its check
                errs = [f"output not checkable: {type(exc).__name__}: {exc}"]
        if not errs:
            continue
        failed.append((op.id, errs))
        if op.known_defect is None or not op.known_defect(res):
            wrong.append((op.id, errs))
    return failed, wrong


def digest(ops, results) -> str:
    h = hashlib.sha256()
    for op, res in zip(ops, results):
        for part in (op.id, str(res.rc), res.stdout, res.stderr):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


def stored_digest(workload: str, seed: int):
    try:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def run_workload(workload, seed, seconds, trace, root, schedule="full", out=print):
    """Run one benchmark invocation; returns the result object."""
    src = os.path.join(root, "src")
    work = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        golden = os.path.join(work, "golden.txt")
        with open(golden, "w", encoding="utf-8") as fh:
            fh.write(GOLDEN)
        setup = [] if trace else measure_setup(src, golden, SETUP_SAMPLES)
        # import and warm up before anything is timed
        workloads.cli_call(["analyze", golden])()
        sizes = corpus.SCHEDULES[schedule]
        ops = workloads.build(workload, os.path.join(work, "docs"), seed, sizes)
        passes = 1 if trace else max(2, int(seconds // NOMINAL_PASS_S[workload]))
        times, attempted, failed_n, all_wrong = [], 0, 0, []
        pass_digest = None
        for p in range(passes):
            results, op_times = run_pass(ops)
            failed, wrong = judge(ops, results)
            attempted += len(ops)
            failed_n += len(failed)
            all_wrong += wrong
            if p == 0:
                for op_id, errs in failed:
                    out(f"failed {op_id}: {'; '.join(errs)[:300]}")
                pass_digest = digest(ops, results)
            elif digest(ops, results) != pass_digest:
                all_wrong.append((f"pass {p}", ["outputs differ from the first pass"]))
            times.append(op_times)
        known = stored_digest(workload, seed) if schedule == "full" else None
        note = "" if known is None else (" (matches stored)" if known == pass_digest
                                         else " (differs from stored)")
        out(f"digest {workload} seed={seed} sha256={pass_digest}{note}")

        if not trace:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # each operation at its best over the passes: slow stretches of a
            # shared machine last seconds, longer than most operations
            best = [min(column) for column in zip(*times)]
            metrics = {
                "wall_s": (sum(best), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
            return _result(not all_wrong, attempted, failed_n, metrics)

        # traced pass on the same inputs as the untraced one
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, traced_times = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced_wall = sum(traced_times)
        failed, wrong = judge(ops, results)
        attempted += len(ops)
        failed_n += len(failed)
        all_wrong += wrong
        if digest(ops, results) != pass_digest:
            all_wrong.append(("traced pass", ["tracing changed the outputs"]))
        summary = tracer.summary(traced_wall)
        if abs(summary["attributed_s"] - traced_wall) > 1e-6 * max(1.0, traced_wall) or \
                summary["negative_self"]:
            all_wrong.append(("trace", ["self times do not add up to the traced wall time"]))
        os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
        tracer.dump(os.path.join(root, ".perfbench_out", f"spans-{workload}-seed{seed}.tsv"))
        metrics = {}
        for name, value in summary["metrics"].items():
            metrics[name] = (value, "s" if name.endswith("_s") else "count")
        verb_s = defaultdict(float)
        for op, t in zip(ops, times[0]):
            verb_s[op.verb] += t
        for verb in workloads.VERBS:
            metrics[f"{verb}_s"] = (verb_s[verb], "s")
        metrics["fail_ratio"] = (failed_n / attempted, "ratio")
        metrics["trace.overhead_s"] = (traced_wall - sum(times[0]), "s")
        metrics["trace.outside_s"] = (summary["outside_s"], "s")
        metrics["trace.spans"] = (summary["spans"], "count")
        return _result(not all_wrong, attempted, failed_n, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "borelshift", "cli.py")):
        print("perfbench: run from the root of a borelshift checkout (no src/borelshift here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
