"""Command-line front end.

Verbs: analyze, compare, realize, embed, bowen, fiberprod, pathology.
Reports are line-oriented key=value text; when a verb also emits a document
(invariants, presentation, code, relation), the report lines are prefixed
with '#' so the whole stream still parses as that document.

Exit status: 0 success or true verdict, 1 false verdict with witness,
2 inconclusive at tolerance or budget exhausted, 64 usage, 65 parse or
data errors.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .codes import (
    BudgetExhausted,
    minimal_relation,
    build_fibered_product_Fm,
    extract_tilde_Xm,
    format_code,
    parse_code,
    parse_relation,
    format_relation,
    quotient_psi,
    verify_bowen_relation,
)
from .entropy import DEFAULT_TOL
from .intervals import PrecisionExhausted
from .recurrence import UndecidableAtTolerance
from .invariants import (
    InconclusiveAtTolerance,
    InvariantPair,
    decide_almost_borel_iso,
    format_invariants,
    invariants_of,
    parse_invariants,
    summarize_components,
    compute_u_eta,
    _parse_entropy_expr,
)
from .markers import (
    NoDistinctLoops,
    PreconditionViolated,
    make_subsystem_code,
    synthesize_injective_subsystem,
)
from .pathology import (
    certify_pathology,
    choose_pathology_parameters,
    control_parameters,
)
from .presentations import (
    FiniteGraph,
    ParseError,
    _content_lines,
    format_document,
    parse_document,
)
from .realize import UnrealizableEntropy, realize_invariants

EX_OK = 0
EX_FALSE = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATA = 65


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(key: str, value, comment: bool = False):
    prefix = "# " if comment else ""
    print(f"{prefix}{key}={_fmt(value)}")


def _parse_tol(text: str) -> Fraction:
    try:
        tol = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad tolerance {text!r}") from None
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def _first_keyword(text: str) -> str | None:
    for _, toks in _content_lines(text):
        return toks[0]
    return None


def _pair_from_file(path: str, tol: Fraction) -> InvariantPair:
    text = _read(path)
    first = _first_keyword(text)
    if first is None:
        # no content lines, as `analyze` prints for a shift whose measures
        # all have zero entropy: the empty generator list says the same
        return InvariantPair(())
    if first == "gen":
        return parse_invariants(text)
    return invariants_of(parse_document(text), tol)


def _cmd_analyze(args) -> int:
    parts = parse_document(_read(args.file))
    summaries = summarize_components(parts)
    for s in summaries:
        line = (
            f"component={s.source} period={s.period} "
            f"entropy={float(s.entropy):.12g} recurrence={s.recurrence} "
            f"mme={_fmt(s.mme)}"
        )
        print(f"# {line}")
    pair = compute_u_eta(summaries, args.tol)
    sys.stdout.write(format_invariants(pair))
    return EX_OK


def _cmd_compare(args) -> int:
    a = _pair_from_file(args.a, args.tol)
    b = _pair_from_file(args.b, args.tol)
    verdict = decide_almost_borel_iso(a, b, args.tol)
    _emit("isomorphic", verdict.isomorphic)
    if verdict.witness_period is not None:
        _emit("witness_period", verdict.witness_period)
    if verdict.detail:
        _emit("detail", verdict.detail)
    return EX_OK if verdict.isomorphic else EX_FALSE


def _cmd_realize(args) -> int:
    pair = parse_invariants(_read(args.file))
    real = realize_invariants(pair, args.tol)
    parts = list(real.parts())
    for fam in real.families:
        if args.member is None:
            print(
                "unattained generators need --member J to pick family members",
                file=sys.stderr,
            )
            return EX_INCONCLUSIVE
        parts.append(fam.member(args.member))
    for role, _ in real.components:
        _emit("component", role, comment=True)
    for fam in real.families:
        _emit("family_member", args.member, comment=True)
    sys.stdout.write(format_document(parts))
    return EX_OK


def _parse_target(text: str):
    toks = text.split()
    if not toks:
        raise ValueError(f"bad target entropy {text!r}")
    if len(toks) == 1 and toks[0] not in ("inf",):
        try:
            x = Fraction(toks[0])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad target entropy {text!r}") from None
        from .entropy import IntervalApprox

        return IntervalApprox(x, x)
    try:
        return _parse_entropy_expr(toks, 0)
    except ParseError as exc:
        raise ValueError(f"bad --target {text!r}: {exc.message}") from None


def _cmd_embed(args) -> int:
    code = parse_code(_read(args.file))
    target = _parse_target(args.target)
    if args.budget is not None and args.budget < 1:
        raise ValueError("budget must be a positive state count")
    extra = {} if args.budget is None else {"state_cap": args.budget}
    cert = synthesize_injective_subsystem(code, target, args.tol, **extra)
    _emit("tier", cert.tier, comment=True)
    _emit("states", len(cert.presentation.vertices), comment=True)
    _emit("entropy", float(cert.entropy), comment=True)
    if cert.params is not None:
        _emit("marker_N", cert.params.N, comment=True)
        _emit("marker_K", cert.params.K, comment=True)
    sub = make_subsystem_code(cert, code.labeled())
    sys.stdout.write(format_code(sub))
    return EX_OK


def _cmd_bowen(args) -> int:
    code = parse_code(_read(args.file))
    if args.relation is None:
        rel = minimal_relation(code)
        report = verify_bowen_relation(code, rel)
        _emit("holds", report.holds, comment=True)
        sys.stdout.write(format_relation(rel))
    else:
        rel = parse_relation(_read(args.relation))
        report = verify_bowen_relation(code, rel)
        _emit("holds", report.holds)
        _emit("complete", report.complete)
        _emit("label_equal", report.label_equal)
        _emit("symmetric", report.symmetric)
        _emit("reflexive", report.reflexive)
        for f in report.failures:
            _emit("failure", f)
    return EX_OK if report.holds else EX_FALSE


def _cmd_fiberprod(args) -> int:
    code = parse_code(_read(args.file))
    if args.relation is None:
        rel = minimal_relation(code)
    else:
        rel = parse_relation(_read(args.relation))
    fm = build_fibered_product_Fm(code, rel, args.m)
    tilde = extract_tilde_Xm(code, rel, args.m)
    psi = quotient_psi(tilde, args.m)
    # tuple states join coordinate names with ',', which no document symbol
    # may hold; join them instead with the first separator in no coordinate
    names = {name for t in tilde.tuples for name in t}
    sep = next((s for s in ".:;~_-+=^@" if not any(s in n for n in names)), None)
    if sep is None:
        raise ValueError("every tuple-name separator occurs in some vertex name")
    rename = {v: sep.join(t) for v, t in zip(tilde.vertices, tilde.tuples)}
    tilde = FiniteGraph(
        tuple(sorted(rename.values())),
        tuple((rename[u], rename[v]) for u, v in tilde.edges),
        tilde.edge_names,
    )
    _emit("fm_states", len(fm.vertices), comment=True)
    _emit("tilde_states", len(tilde.vertices), comment=True)
    _emit("right_resolving", psi.right_resolving, comment=True)
    _emit("left_resolving", psi.left_resolving, comment=True)
    _emit("fibers_complete", psi.fibers_complete, comment=True)
    if psi.preimage_count is not None:
        _emit("preimage_count", psi.preimage_count, comment=True)
    for f in psi.failures:
        _emit("failure", f, comment=True)
    # an empty product has no presentation to print; the exit status carries it
    if tilde.vertices:
        sys.stdout.write(format_document([tilde]))
    ok = psi.right_resolving and psi.left_resolving and psi.fibers_complete
    return EX_OK if ok else EX_FALSE


def _default_pathology_base() -> FiniteGraph:
    return FiniteGraph(("0", "1"), (("0", "0"), ("0", "1"), ("1", "0")))


def _cmd_pathology(args) -> int:
    if args.base is None:
        base = _default_pathology_base()
    else:
        parts = parse_document(_read(args.base))
        if len(parts) != 1 or not isinstance(parts[0], FiniteGraph):
            raise ValueError("pathology base must be a single graph section")
        base = parts[0]
    try:
        eps = Fraction(args.eps)
        eps_float = float(eps)  # the root loop length is log(4) / eps in floats
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"bad epsilon {args.eps!r}") from None
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if eps_float == 0:
        raise ValueError(f"epsilon {args.eps} is below the float range")
    if args.control:
        spec = control_parameters(base, args.depth)
    else:
        spec = choose_pathology_parameters(base, eps, args.depth, args.window)
    report = certify_pathology(spec, eps, args.window)
    _emit("control", args.control)
    _emit("M", spec.M)
    _emit("m_seq", ",".join(str(m) for m in spec.m_seq))
    _emit("states", report.states)
    _emit("return_counts_match", report.return_counts_match)
    _emit("estimate", report.estimate)
    _emit("estimate_below_eps", report.estimate_below_eps)
    _emit("hidden_entropy", float(report.hidden_entropy))
    _emit("gap_certified", report.gap_certified)
    _emit("bordered_checked", report.bordered_checked)
    _emit("bordered_unique", report.bordered_unique)
    if report.ambiguous_witness is not None:
        _emit("ambiguous_witness", "".join(report.ambiguous_witness))
        _emit("witness_lifts", report.witness_lifts)
    if args.control:
        ok = report.return_counts_match and not report.estimate_below_eps
    else:
        ok = (
            report.return_counts_match
            and report.estimate_below_eps
            and report.gap_certified
            and report.bordered_unique
        )
    _emit("certified", ok)
    return EX_OK if ok else EX_FALSE


def build_parser() -> _Parser:
    p = _Parser(prog="borelshift", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def tol_flag(sp):
        sp.add_argument(
            "--tol",
            type=_parse_tol,
            default=DEFAULT_TOL,
            help="comparison tolerance (fraction or decimal, default 1e-9)",
        )

    sp = sub.add_parser("analyze", help="component table and invariants")
    sp.add_argument("file")
    tol_flag(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("compare", help="almost-Borel isomorphism verdict")
    sp.add_argument("a")
    sp.add_argument("b")
    tol_flag(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("realize", help="presentation realizing invariants")
    sp.add_argument("file")
    sp.add_argument("--member", type=int, default=None)
    tol_flag(sp)
    sp.set_defaults(func=_cmd_realize)

    sp = sub.add_parser("embed", help="injective subsystem above a target entropy")
    sp.add_argument("file")
    sp.add_argument("--target", required=True, help="entropy expression")
    sp.add_argument(
        "--budget",
        type=int,
        default=None,
        help="state cap for the marker search (default markers.STATE_CAP)",
    )
    tol_flag(sp)
    sp.set_defaults(func=_cmd_embed)

    sp = sub.add_parser("bowen", help="verify or compute a symbol relation")
    sp.add_argument("file")
    sp.add_argument("relation", nargs="?", default=None)
    sp.set_defaults(func=_cmd_bowen)

    sp = sub.add_parser("fiberprod", help="distinct-entry tuple shift and quotient")
    sp.add_argument("file")
    sp.add_argument("relation", nargs="?", default=None)
    sp.add_argument("--m", type=int, default=2)
    sp.set_defaults(func=_cmd_fiberprod)

    sp = sub.add_parser("pathology", help="hidden-entropy construction report")
    sp.add_argument("--eps", default="0.3")
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--window", type=int, default=40)
    sp.add_argument("--control", action="store_true")
    sp.add_argument("--base", default=None, help="base graph file (default golden mean)")
    sp.set_defaults(func=_cmd_pathology)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_DATA
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EX_DATA
    except (UnrealizableEntropy, PreconditionViolated) as exc:
        print(str(exc), file=sys.stderr)
        return EX_FALSE
    except (
        UndecidableAtTolerance,
        InconclusiveAtTolerance,
        BudgetExhausted,
        NoDistinctLoops,
        PrecisionExhausted,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EX_INCONCLUSIVE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
