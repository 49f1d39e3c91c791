"""The three workloads as ordered operation lists, each with its oracle check.

An operation is one closed-loop call: the caller starts it when the previous
one has returned.  `analyze`, `compare`, `realize`, `bowen` and `fiberprod`
go through `borelshift.cli.main(argv)` in this process with stdout and stderr
captured.  `embed` and `pathology` go through the library calls their
`_cmd_*` functions make, because both verbs fail at argument handling in the
CLI (unregistered `--budget`, `--m`, `--M` flags and the `yfile` attribute);
spec.json records this so the operations can move to `cli.main` once the
verbs work.

Files the operations read and write live in the run's work directory inside
the checkout; the benchmark writes each emitted document there, untimed, for
the operation that reads it next.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import corpus
import oracles

VERBS = ("analyze", "compare", "realize", "codes", "embed", "pathology")


@dataclass
class Result:
    rc: Optional[int]
    stdout: str
    stderr: str = ""


@dataclass
class Op:
    id: str
    verb: str
    run: Callable[[], Result]
    check: Callable[[Result], list]
    after: Optional[Callable[[Result], None]] = None
    # documented defect: the operation is expected to fail this way at the
    # current program; it still counts as failed
    known_defect: Optional[Callable[[Result], bool]] = None


def cli_call(argv) -> Callable[[], Result]:
    from borelshift import cli

    def run() -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return Result(rc, out.getvalue(), err.getvalue())

    return run


def expect_rc(res: Result, rc: int) -> list:
    if res.rc != rc:
        return [f"exit code {res.rc}, expected {rc} ({res.stderr.strip()[:200]})"]
    return []


def report(stdout: str) -> dict:
    """key=value report lines, '#' prefixes stripped."""
    out = {}
    for line in stdout.splitlines():
        line = line.lstrip("# ").strip()
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            out.setdefault(key, value)
    return out


class Workload:
    """Writes a workload's documents and assembles its operation list."""

    def __init__(self, workdir: str, seed: int, schedule: dict):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.sizes = schedule
        self.ops: list[Op] = []
        self.outputs: dict[str, str] = {}  # every document written, by file name
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name + ".txt")

    def write(self, doc: corpus.Doc) -> str:
        if self.outputs.setdefault(doc.name, doc.text) != doc.text:
            raise ValueError(f"two different documents named {doc.name!r}")
        p = self.path(doc.name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(doc.text)
        return p

    def saver(self, name: str) -> Callable[[Result], None]:
        def after(res: Result):
            self.outputs[name] = res.stdout
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(res.stdout)

        return after

    # --- analyze / compare ---

    def analyze(self, doc: corpus.Doc, components, schema_classes=None) -> str:
        """analyze doc, saving the invariants as inv-<name>; returns that name."""
        self.write(doc)
        return self.analyze_file(doc.name, lambda: (components, schema_classes))

    def analyze_file(self, name: str, oracle) -> str:
        """analyze the document `name`; `oracle()` gives its components as
        (period, entropy, mme count) and, for schemas, their recurrence classes."""
        inv = f"inv-{name}"

        def check(res: Result) -> list:
            errs = expect_rc(res, 0)
            if errs:
                return errs
            components, schema_classes = oracle()
            errs = oracles.check_invariants(res.stdout, components)
            lines = oracles.component_lines(res.stdout)
            got = sorted((int(c["period"]), c["mme"] == "true") for c in lines)
            want = sorted((p, mme == 1) for p, _, mme in components)
            if got != want:
                errs.append(f"component (period, mme) {got[:6]}... differ from {want[:6]}...")
            got_h = sorted(float(c["entropy"]) for c in lines)
            want_h = sorted(h for _, h, _ in components)
            if any(abs(g - w) > oracles.ENTROPY_TOL for g, w in zip(got_h, want_h)):
                errs.append("component entropies differ from the oracle")
            if schema_classes is not None:
                classes = [c["recurrence"] for c in lines]
                if classes != schema_classes:
                    errs.append(f"recurrence {classes} but the oracle gives {schema_classes}")
            return errs

        self.ops.append(Op(f"analyze:{name}", "analyze", cli_call(["analyze", self.path(name)]),
                           check, self.saver(inv)))
        return inv

    def compare(self, a: str, b: str, same: bool, known_defect=None):
        def check(res: Result) -> list:
            errs = expect_rc(res, 0 if same else 1)
            verdict = report(res.stdout).get("isomorphic")
            if verdict != ("true" if same else "false"):
                errs.append(f"isomorphic={verdict}, expected {same}")
            return errs

        argv = ["compare", self.path(a), self.path(b)]
        self.ops.append(Op(f"compare:{a}:{b}", "compare", cli_call(argv), check,
                           known_defect=known_defect))


def graph_components(doc: corpus.Doc):
    """Oracle components of a graph document, as (period, entropy, mme count)."""
    t = doc.truth
    if "marker" in t:
        # slow-gap graph: one strongly connected component whose Perron root
        # solves the first-return equation of the construction
        h = oracles.marker_entropy(*t["marker"])
        return [(oracles.period_of(range(t["n"]), t["edges"]), h, 1)]
    return [(p, h, 1 if mme else 0) for p, h, mme in oracles.graph_components(t["n"], t["edges"])]


def same_invariants(a, b) -> bool:
    periods = sorted(set(range(1, 61)) | {p for p, _, _ in a + b})
    ua, ub = oracles.u_eta(a, periods), oracles.u_eta(b, periods)
    return all(abs(x[0] - y[0]) <= oracles.ENTROPY_TOL and x[1] == y[1] for x, y in zip(ua, ub))


# --- algebraic ---


def pair_components(doc: corpus.Doc):
    out = []
    for period, value, count in doc.truth["gens"]:
        if value == "log2":
            h = math.log(2)
        elif value == "log3":
            h = math.log(3)
        else:
            h = float(value)
        out.append((period, h, count))
    return out


def parse_schemas(text: str):
    """(counts, tail) per loops section of a realized document."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "loops":
            out.append(([], None))
        elif toks[0] == "count":
            out[-1][0].append((int(toks[1]), int(toks[2])))
        elif toks[0] == "tail":
            stride = 1
            if toks[-2] == "stride":
                stride = int(toks[-1])
                toks = toks[:-2]
            if toks[1] == "geometric":
                params = {"a": Fraction(toks[2]), "k": int(toks[3]), "n0": int(toks[5])}
            else:
                params = {"a": Fraction(toks[2]), "k": Fraction(toks[3]), "d": int(toks[4]),
                          "n0": int(toks[6])}
            params["stride"] = stride
            out[-1] = (out[-1][0], (toks[1], params))
    return out


def schema_components(schemas):
    comps = []
    for counts, tail in schemas:
        rec, h, period = oracles.schema_truth(counts, tail)
        comps.append((period, h, 1 if rec == "positive-recurrent" and h > 0 else 0, rec))
    return comps


def algebraic(b: Workload):
    rng, s = b.rng, b.sizes
    docs = [corpus.golden_mean_doc(rng)]
    docs += [corpus.full_shift_doc(rng, k) for k in s["full_shift_sizes"]]
    docs += [corpus.random_graph_doc(rng, f"g{i}-{n}", n)
             for i, n in enumerate(s["alg_graph_sizes"])]
    for doc in docs:
        b.analyze(doc, graph_components(doc))
    for doc in corpus.schema_docs(rng):
        comps = schema_components([(doc.truth["counts"], doc.truth["tail"])])
        b.analyze(doc, [c[:3] for c in comps], [c[3] for c in comps])
    for pair in corpus.admissible_pair_docs(rng, s["round_trips"]):
        b.write(pair)
        real = realize_op(b, pair)

        def realized_oracle(real=real):
            # the realize check has already tied these schemas to the pair
            comps = schema_components(parse_schemas(b.outputs[real]))
            return [c[:3] for c in comps], [c[3] for c in comps]

        back = b.analyze_file(real, realized_oracle)
        b.compare(back, pair.name, True)


def realize_op(b: Workload, pair: corpus.Doc) -> str:
    """realize the pair, saving the schemas as real-<name>; returns that name."""
    want = pair_components(pair)
    real = f"real-{pair.name}"

    def check(res: Result) -> list:
        errs = expect_rc(res, 0)
        if errs:
            return errs
        comps = schema_components(parse_schemas(res.stdout))
        if not same_invariants([c[:3] for c in comps], want):
            errs.append("realized schemas do not carry the requested (u, eta)")
        return errs

    b.ops.append(Op(f"realize:{pair.name}", "realize", cli_call(["realize", b.path(pair.name)]),
                    check, b.saver(real)))
    return real


# --- large graphs ---


def zero_entropy_defect(res: Result) -> bool:
    """compare on an invariants file with no generator exits 65 'empty document'."""
    return res.rc == 65 and "empty document" in res.stderr


def large_graphs(b: Workload):
    rng, s = b.rng, b.sizes
    invs = []
    for n in s["large_graph_sizes"]:
        doc = corpus.random_graph_doc(rng, f"g{n}", n)
        comps = graph_components(doc)
        invs.append((b.analyze(doc, comps), doc.name, comps))
    # against the presentation, compare analyzes it again; the largest graph
    # is left out, where that would only repeat its analyze
    for inv, name, _ in invs[:-1]:
        b.compare(inv, name, True)
    for (inv_a, _, ca), (inv_b, _, cb) in zip(invs, invs[1:]):
        b.compare(inv_a, inv_b, same_invariants(ca, cb))
    forest = corpus.forest_doc(rng, s["forest_cycles"], s["forest_positive_sizes"])
    b.analyze(forest, graph_components(forest))
    marker = corpus.marker_doc(rng, s["marker_doc_k"])
    cm = graph_components(marker)
    inv_m = b.analyze(marker, cm)
    inv_a, _, ca = invs[0]
    b.compare(inv_m, inv_a, same_invariants(cm, ca))
    for length in s["zero_cycle_lengths"]:
        cyc = corpus.cycle_doc(rng, length)
        inv = b.analyze(cyc, graph_components(cyc))
        b.compare(inv, cyc.name, True, known_defect=zero_entropy_defect)


# --- codes ---


def code_checks_call(path: str) -> Callable[[], Result]:
    from borelshift import codes

    def run() -> Result:
        with open(path, encoding="utf-8") as fh:
            code = codes.parse_code(fh.read())
        inj = codes.check_injective(code)
        fto = codes.check_finite_to_one(code)
        h = codes.image_entropy(code)
        lines = [
            f"injective={str(inj.injective).lower()}",
            f"finite_to_one={str(fto.finite_to_one).lower()}",
            f"image_entropy={float(h):.12g}",
        ]
        if inj.witness is not None:
            lines.append("witness=" + " ".join(inj.witness[0]) + " | " + " ".join(inj.witness[1]))
        return Result(0, "\n".join(lines) + "\n")

    return run


def check_code_checks(doc: corpus.Doc):
    t = doc.truth
    names = oracles.state_names(t, t["names"])
    index = {v: i for i, v in enumerate(names)}

    def check(res: Result) -> list:
        rep = report(res.stdout)
        errs = expect_rc(res, 0)
        h_dom = oracles.domain_entropy(t)
        h_img = float(rep["image_entropy"])
        fto = rep["finite_to_one"] == "true"
        want_img = oracles.image_entropy(t)
        if abs(h_img - want_img) > oracles.ENTROPY_TOL:
            errs.append(f"image entropy {h_img}, oracle {want_img}")
        if fto != (abs(h_img - h_dom) <= oracles.ENTROPY_TOL):
            errs.append(f"finite_to_one={fto} but entropies {h_img} vs {h_dom}")
        # injective iff the pruned label self-product lies on the diagonal
        injective = all(u == v for u, v in oracles.minimal_relation(t))
        if (rep["injective"] == "true") != injective:
            errs.append(f"injective={rep['injective']}, oracle {injective}")
        if ("witness" in rep) == injective:
            errs.append("injectivity witness given for an injective code or missing")
        if "witness" in rep:
            _, succ, labels = oracles.labeled_graph(t)
            first, second = (p.split() for p in rep["witness"].split(" | "))
            paths = [[index[v] for v in first], [index[v] for v in second]]
            if paths[0] == paths[1] or len(paths[0]) != len(paths[1]):
                errs.append("injectivity witness paths are not distinct")
            for path in paths:
                if any(b not in succ[a] for a, b in zip(path, path[1:])):
                    errs.append("injectivity witness is not a path")
            if [labels[v] for v in paths[0]] != [labels[v] for v in paths[1]]:
                errs.append("injectivity witness paths carry different labels")
        return errs

    return check


def parse_relation_pairs(text: str) -> set:
    pairs = set()
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if toks and toks[0] == "pair":
            pairs.add((toks[1], toks[2]))
    return pairs


def code_ops(b: Workload, doc: corpus.Doc, ms):
    """The code checks, bowen (compute, then verify) and fiberprod at each m."""
    path = b.write(doc)
    t = doc.truth
    names = oracles.state_names(t, t["names"])
    relation = oracles.minimal_relation(t)
    want_pairs = {(names[u], names[v]) for u, v in relation}
    b.ops.append(Op(f"codes:{doc.name}", "codes", code_checks_call(path), check_code_checks(doc)))
    rel = f"rel-{doc.name}"

    def check_bowen(res: Result) -> list:
        errs = expect_rc(res, 0)
        if report(res.stdout).get("holds") != "true":
            errs.append("minimal relation does not satisfy the Bowen conditions")
        if parse_relation_pairs(res.stdout) != want_pairs:
            errs.append("relation differs from the pruned label fibre product")
        return errs

    b.ops.append(Op(f"bowen:{doc.name}", "codes", cli_call(["bowen", path]), check_bowen,
                    b.saver(rel)))

    def check_verify(res: Result) -> list:
        rep = report(res.stdout)
        errs = expect_rc(res, 0)
        for key in ("holds", "complete", "label_equal", "symmetric", "reflexive"):
            if rep.get(key) != "true":
                errs.append(f"{key}={rep.get(key)} on the minimal relation")
        return errs

    b.ops.append(Op(f"bowen-verify:{doc.name}", "codes",
                    cli_call(["bowen", path, b.path(rel)]), check_verify))
    for m in ms:
        want = oracles.fiberprod_truth(t, relation, m)

        def check_fiber(res: Result, want=want) -> list:
            rep = report(res.stdout)
            ok = want["right_resolving"] and want["left_resolving"] and want["fibers_complete"]
            errs = expect_rc(res, 0 if ok else 1)
            if int(rep.get("tilde_states", -1)) != want["tilde_states"]:
                errs.append(f"tilde_states={rep.get('tilde_states')}, oracle {want['tilde_states']}")
            for key in ("fibers_complete", "right_resolving", "left_resolving"):
                if (rep.get(key) == "true") != want[key]:
                    errs.append(f"{key}={rep.get(key)}, oracle {want[key]}")
            return errs

        argv = ["fiberprod", path, b.path(rel), "--m", str(m)]
        b.ops.append(Op(f"fiberprod:{doc.name}:m{m}", "codes", cli_call(argv), check_fiber))


def embed_op(b: Workload, tag: str, target: Fraction):
    path = b.write(corpus.even_code_doc())
    b.ops.append(Op(f"embed:{tag}:{target}", "embed", embed_call(path, target),
                    check_embed(target)))


def pathology_op(b: Workload, tag: str, depth: int, control: bool):
    symbols = b.rng.sample(("0", "1", "a", "b", "x", "y"), 2)
    kind = "control" if control else "hidden"
    b.ops.append(Op(f"pathology:{tag}:{kind}", "pathology",
                    pathology_call(symbols, depth, control), check_pathology(control)))


def codes_workload(b: Workload):
    s = b.sizes
    for i, size in enumerate(s["code_sizes"]):
        code_ops(b, corpus.random_code_doc(b.rng, i, size), s["fiber_ms"])
    for target in s["embed_targets"]:
        embed_op(b, "even", target)
    for control in (False, True):
        pathology_op(b, f"depth{s['pathology_depth']}", s["pathology_depth"], control)


def probes(b: Workload):
    """One small operation of every verb, run first in every workload.

    They take a fraction of a second in all, and make every layer's metric a
    measurement on every workload: a layer a workload does not otherwise use
    shows the probes' small, steady cost instead of no value at all.
    """
    schema = corpus.schema_doc("probe-schema", [(1, 1), (2, 1)])
    comps = schema_components([(schema.truth["counts"], None)])
    b.analyze(schema, [c[:3] for c in comps], [c[3] for c in comps])
    pair = corpus.Doc("probe-pair", "gen 1 log 2 1\n", {"gens": [(1, "log2", 1)]})
    b.write(pair)
    real = realize_op(b, pair)
    b.compare(real, pair.name, True)
    code_ops(b, corpus.even_code_doc(), (2,))
    embed_op(b, "probe", Fraction(1, 10))
    pathology_op(b, "probe", 1, False)


def embed_call(path: str, target: Fraction) -> Callable[[], Result]:
    """embed through the calls `_cmd_embed` makes, then audit the certificate."""
    from borelshift import codes, entropy, markers

    def run() -> Result:
        with open(path, encoding="utf-8") as fh:
            code = codes.parse_code(fh.read())
        cert = markers.synthesize_injective_subsystem(code, entropy.IntervalApprox(target, target))
        sub = markers.make_subsystem_code(cert, code.labeled())
        text = codes.format_code(sub)
        audit = codes.check_injective(codes.parse_code(text))
        lines = [
            f"# tier={cert.tier}",
            f"# states={len(cert.presentation.vertices)}",
            f"# entropy={float(cert.entropy):.12g}",
            f"# audit_injective={str(audit.injective).lower()}",
        ]
        return Result(0, "\n".join(lines) + "\n" + text)

    return run


def parse_code_graph(text: str):
    names, edges = {}, []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if toks and toks[0] == "vertex":
            names.setdefault(toks[1], len(names))
        elif toks and toks[0] == "edge":
            edges.append((names[toks[1]], names[toks[2]]))
    return len(names), edges


def check_embed(target: Fraction):
    def check(res: Result) -> list:
        rep = report(res.stdout)
        errs = expect_rc(res, 0)
        if rep.get("audit_injective") != "true":
            errs.append("emitted subsystem code is not injective")
        h = float(rep["entropy"])
        if h < float(target):
            errs.append(f"certificate entropy {h} below target {float(target)}")
        n, edges = parse_code_graph(res.stdout)
        # marker blocks are at most a few hundred symbols long, so 6000 steps
        # of first returns leave a truncation error far below 1e-8
        bound = oracles.first_return_lower_bound(n, edges, 0, 6000)
        if bound < float(target):
            errs.append(f"oracle entropy bound {bound} below target {float(target)}")
        if not -1e-8 <= h - bound <= oracles.ENTROPY_TOL:
            errs.append(f"certified entropy {h}, oracle {bound}")
        if int(rep["states"]) != n:
            errs.append("state count differs from the emitted presentation")
        return errs

    return check


def pathology_call(symbols, depth: int, control: bool) -> Callable[[], Result]:
    """pathology through the calls `_cmd_pathology` makes (eps 3/10, window 40)."""
    from borelshift import pathology, presentations

    def run() -> Result:
        a, b = symbols
        base = presentations.FiniteGraph((a, b), ((a, a), (a, b), (b, a)))
        eps = Fraction(3, 10)
        if control:
            spec = pathology.control_parameters(base, depth)
        else:
            spec = pathology.choose_pathology_parameters(base, eps, depth, 40)
        rep = pathology.certify_pathology(spec, eps, 40)
        lines = [
            f"M={spec.M}",
            "m_seq=" + ",".join(str(m) for m in spec.m_seq),
            f"return_counts_match={str(rep.return_counts_match).lower()}",
            f"estimate={rep.estimate!r}",
            f"estimate_below_eps={str(rep.estimate_below_eps).lower()}",
            f"hidden_entropy={float(rep.hidden_entropy)!r}",
            f"gap_certified={str(rep.gap_certified).lower()}",
            f"bordered_checked={rep.bordered_checked}",
            f"bordered_unique={str(rep.bordered_unique).lower()}",
        ]
        return Result(0, "\n".join(lines) + "\n")

    return run


def check_pathology(control: bool):
    def check(res: Result) -> list:
        rep = report(res.stdout)
        m_seq = [int(m) for m in rep["m_seq"].split(",")]
        returns = oracles.pathology_returns(int(rep["M"]), m_seq)
        errs = expect_rc(res, 0)
        h = oracles.finite_returns_entropy(returns)
        if abs(float(rep["hidden_entropy"]) - h) > oracles.ENTROPY_TOL:
            errs.append(f"hidden entropy {rep['hidden_entropy']}, oracle {h}")
        est = oracles.window_estimate(returns, 40)
        if abs(float(rep["estimate"]) - est) > oracles.ENTROPY_TOL:
            errs.append(f"window estimate {rep['estimate']}, oracle {est}")
        if rep["return_counts_match"] != "true":
            errs.append("first-return counts do not match the construction")
        below = rep["estimate_below_eps"] == "true"
        if below != (est < 0.3):
            errs.append(f"estimate_below_eps={below} with estimate {est}")
        if not control:
            for key in ("estimate_below_eps", "gap_certified", "bordered_unique"):
                if rep[key] != "true":
                    errs.append(f"{key} is not set")
        return errs

    return check


WORKLOADS = {"algebraic": algebraic, "large-graphs": large_graphs, "codes": codes_workload}


def build(workload: str, workdir: str, seed: int, schedule: dict) -> list[Op]:
    b = Workload(workdir, seed, schedule)
    probes(b)
    WORKLOADS[workload](b)
    return b.ops
