"""The worst accepted input at each size cap, run through `cli.main` under a
wall bound.

A cap bounds the size of what a verb builds; the largest input it admits is
the slowest input that still gets an answer.  Each row finds that input,
times the verb on it and checks the answer independently.
"""

import time
from fractions import Fraction

from borelshift import check_injective, parse_code
from borelshift.cli import main
from borelshift.markers import STATE_CAP

WALL_S = 20.0

EVEN_CODE = (
    "code edge\nvertex a\nvertex b\nedge a a x0\nedge a b x1\nedge b a x2\n"
    "map x0 1\nmap x1 0\nmap x2 0\n"
)


def timed(capsys, argv):
    start = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - start
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, wall


def test_embed_at_the_largest_certificate_state_cap_admits(tmp_path, capsys):
    # targets 19/50, 39/100 and 2/5 on the even code: the marker presentation
    # grows with the target until 2/5 needs more than STATE_CAP states
    path = tmp_path / "even.code"
    path.write_text(EVEN_CODE)
    accepted = []
    for target in (Fraction(19, 50), Fraction(39, 100), Fraction(2, 5)):
        rc, out, err, wall = timed(capsys, ["embed", str(path), "--target", str(target)])
        assert wall < WALL_S, (target, wall)
        if target == Fraction(2, 5):
            assert rc == 2 and "state budget" in err, (target, rc, err)
        else:
            assert rc == 0, (target, rc, err)
            accepted.append(out)
    states = [int(line.split("=")[1]) for out in accepted for line in out.splitlines()
              if line.startswith("# states=")]
    assert states == [12782, 19642]
    assert max(states) <= STATE_CAP
    # the audit: the emitted code on the largest certificate is injective
    largest = parse_code(accepted[-1])
    assert len(largest.domain.vertices) == 19642
    assert check_injective(largest).injective
