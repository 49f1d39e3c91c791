"""The CLI contract on seeded mutations of valid inputs, and hash-seed determinism.

Every run of a verb ends in a certified answer (exit 0 or 1), an explicit
inconclusive result (exit 2), or a usage or parse error (exit 64 or 65); a
run that fails prints one stderr line and no traceback.  Every verb's stdout
is the same in processes with different hash seeds.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import borelshift
from borelshift.cli import main

from helpers import mutate

GOLDEN = "graph\nvertex a\nvertex b\nedge a a\nedge a b\nedge b a\n"
LOOPS = "loops\ncount 1 2\ncount 3 1\ntail geometric 1/4 2 from 4\n"
EVEN_CODE = (
    "code edge\nvertex a\nvertex b\nedge a a e0\nedge a b e1\nedge b a e2\n"
    "map e0 1\nmap e1 0\nmap e2 0\n"
)
RELATION = "relation\npair e0 e0\npair e1 e1\npair e2 e2\npair e2 e1\n"
INVARIANTS = "gen 1 log 2 1\ngen 2 poly -1 -1 1 root-in 1 2 1\n"

# (verb, the documents it reads, the flags after them, the document mutated)
VERBS = (
    ("analyze", (GOLDEN,), (), 0),
    ("analyze", (LOOPS,), (), 0),
    ("compare", (INVARIANTS, INVARIANTS), (), 1),
    ("realize", (INVARIANTS,), (), 0),
    ("bowen", (EVEN_CODE, RELATION), (), 0),
    ("bowen", (EVEN_CODE, RELATION), (), 1),
    ("fiberprod", (EVEN_CODE,), (), 0),
    ("embed", (EVEN_CODE,), ("--target", "1/10"), 0),
)

PER_VERB = 60
SECONDS = 5


class _Hung(BaseException):
    """Raised by the alarm; not an Exception, so no handler in the CLI takes it."""


def _alarm(signum, frame):
    raise _Hung()


def test_mutated_documents_keep_the_exit_contract(capsys, tmp_path):
    rng = random.Random(18)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for verb, docs, flags, m in VERBS:
            for case in range(PER_VERB):
                texts = list(docs)
                for _ in range(rng.randint(1, 3)):
                    texts[m] = mutate(rng, texts[m])
                paths = []
                for i, text in enumerate(texts):
                    path = tmp_path / f"{verb}{m}.{case}.{i}.txt"
                    path.write_text(text)
                    paths.append(str(path))
                argv = [verb, *paths, *flags]
                start = time.monotonic()
                signal.alarm(4 * SECONDS)
                try:
                    code = main(argv)
                except _Hung:
                    raise AssertionError(f"{verb} did not finish on {texts[m]!r}") from None
                finally:
                    signal.alarm(0)
                out, err = capsys.readouterr()
                where = f"{verb} on {texts[m]!r}: exit {code}, stderr {err!r}"
                assert time.monotonic() - start < SECONDS, where
                assert code in (0, 1, 2, 64, 65), where
                assert "Traceback" not in err, where
                if code not in (0, 1):
                    assert len(err.splitlines()) == 1, where
    finally:
        signal.signal(signal.SIGALRM, previous)


# Runs each verb on its unmutated documents in one process and prints every
# exit code and stdout, so two hash seeds compare in two processes.
_CHILD = """
import contextlib, io, sys
from borelshift.cli import main
for argv in [line.split("\\t") for line in sys.stdin.read().splitlines()]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print("==", " ".join(argv[:1]), code)
    print(out.getvalue(), end="")
"""


def test_every_verb_prints_the_same_bytes_under_two_hash_seeds(tmp_path):
    runs = []
    for n, (verb, docs, flags, _) in enumerate(VERBS):
        paths = []
        for i, text in enumerate(docs):
            path = tmp_path / f"{n}.{i}.txt"
            path.write_text(text)
            paths.append(str(path))
        runs.append("\t".join([verb, *paths, *flags]))
    src = str(Path(borelshift.__file__).parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD], input="\n".join(runs), env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("==") == len(VERBS)
