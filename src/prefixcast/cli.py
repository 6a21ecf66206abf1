"""Command-line front end: every capability as one subcommand.

Request flow: :func:`run` owns parsing, the :class:`Report`, error mapping
and rendering. The argument parser is built once per process, on first use,
and reused by every later run. A handler ``cmd_*(args, rep)`` only reads its
inputs through ``rep.read`` and computes, writing each result to ``rep``.

Output discipline: every run prints a manifest header (tool version,
subcommand, the flags verbatim, a sha256 per input file, and the seed when
randomness is involved) followed by the results, so any output file is
self-describing and a rerun of the same invocation is byte-identical.
Both modes render from the same records (see :class:`Report`), and only the
mode asked for is rendered: text mode prints numbers with six decimal
places, trailing zeros trimmed; ``--json`` emits one strict JSON document
(no NaN or Infinity) with a fixed key order and full-precision floats. Its
bytes are those of ``json.dumps(document, indent=2)``. Before CPython 3.13
an indent forces the pure-Python encoder, so there :func:`json_text` writes
the same bytes with its scalars, lists and table columns encoded in C.

Exit codes: 0 on success, 2 for input or validation problems (one line on
stderr), 64 for usage errors such as unknown subcommands or malformed flags.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import shlex
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .fileio import (
    FileFormatError,
    parse_coloring,
    parse_digraph,
    parse_graph,
    parse_intervals,
    parse_lengths,
    parse_pmf,
    parse_positions,
    parse_vertex_map,
    parse_weighted_graph,
)
from .fusion import (
    Inconsistent,
    IntervalSet,
    fusion_compare,
    m_function,
    n_function,
    overlap_function,
    s_function,
)
from .gossip import (
    GossipConfig,
    NonMonotoneLevels,
    assign_levels,
    assign_sectors,
    summarize_trials,
    trial_outcomes,
)
from .graphs import (
    conditional_graph_entropy,
    degree_pmf,
    graph_entropy,
    graph_kl_divergence,
    graph_mutual_information,
    in_out_degree_pmfs,
    is_regular,
    minimum_spanning_tree,
    mst_entropy_extrema,
    spanning_tree_entropy_extrema,
    tsallis_graph_entropy,
)
from .hierarchy import (
    assign_leaders,
    last_link_failure_probability,
    path_reliability,
    verify_secure,
)
from .multicast import plan_cost_audit, plan_multicast
from .source_coding import (
    CodeLengthSet,
    Codeword,
    arithmetic_progression_satisfies_kraft,
    code_from_lengths,
    consecutive_lengths_sum,
    expected_length,
    huffman_code,
    kraft_alphabet_monotonicity,
    kraft_sum,
    satisfies_kraft,
    shannon_entropy,
)

USAGE_EXIT = 64
VALIDATION_EXIT = 2
INTERNAL_EXIT = 70  # EX_SOFTWARE: an internal invariant broke
# most lengths kraft lists, and most digits code-from-lengths writes
_LISTING_BOUND = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def fmt(x) -> str:
    """Text form of one value: numbers to six decimal places, trailing zeros
    trimmed; integers and strings unchanged; true/false; none for null."""
    if x is None:
        return "none"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    s = f"{float(x):.6f}".rstrip("0").rstrip(".")
    return s if s and s != "-0" else "0"


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# the JSON text of a scalar, by exact type; subclasses take the general path
_JSON_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_SCALAR_TYPES = frozenset(_JSON_SCALAR)


@functools.cache
def _c_list(separator: str):
    """The C encoder of a list of scalars, with ``separator`` between items."""
    return json.JSONEncoder(separators=(separator, ": ")).encode


def json_text(obj, level: int = 0) -> str:
    """The bytes of ``json.dumps(obj, indent=2)``, for the shapes a Report
    emits, with the scalars, lists of scalars and table columns encoded in C.

    The text continues a line ``level`` indents deep. A list of dicts with one
    key order is a table: one ``%`` template per row, and each column is one
    C call split on newlines, which the ASCII encoder never writes inside a
    value. Empty containers, non-str keys and any other type are left to
    ``json.dumps``.
    """
    kind = type(obj)
    scalar = _JSON_SCALAR.get(kind)
    if scalar is not None:
        return scalar(obj)
    close = "\n" + "  " * level
    pad = close + "  "
    if kind is dict and set(map(type, obj)) == {str}:
        items = (f"{encode_basestring_ascii(k)}: {json_text(v, level + 1)}"
                 for k, v in obj.items())
        return "{" + pad + ("," + pad).join(items) + close + "}"
    if (kind is list or kind is tuple) and obj:
        kinds = set(map(type, obj))
        if kinds <= _SCALAR_TYPES:
            return "[" + pad + _c_list("," + pad)(obj)[1:-1] + close + "]"
        if (kinds == {dict} and len(set(map(tuple, obj))) == 1
                and set(map(type, obj[0])) == {str}):
            items = _json_rows(obj, level + 2)
        else:
            items = (json_text(v, level + 1) for v in obj)
        return "[" + pad + ("," + pad).join(items) + close + "]"
    return json.dumps(obj, indent=2).replace("\n", close)


def _json_rows(records: list, level: int):
    """The JSON text of each record of a table whose fields sit ``level``
    indents deep."""
    pad = "\n" + "  " * level
    template = "{" + pad + ("," + pad).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in records[0]
    ) + pad[:-2] + "}"
    columns = []
    for column in zip(*map(dict.values, records)):
        if set(map(type, column)) <= _SCALAR_TYPES:
            columns.append(_c_list("\n")(column)[1:-1].split("\n"))
        else:
            columns.append([json_text(v, level) for v in column])
    return map(template.__mod__, zip(*columns))


class Report:
    """The manifest and results of one run. Each input is read through it and
    listed with its sha256 in read order. Each result is written once, as a
    record and the way to its text line, and only the mode asked for is
    rendered."""

    def __init__(self, subcommand: str, argv: list, seed=None):
        self.manifest = {
            "tool": "prefixcast",
            "version": __version__,
            "subcommand": subcommand,
            "flags": shlex.join(argv),
            "inputs": [],
        }
        if seed is not None:
            self.manifest["seed"] = seed
        self._result = {}  # --json body, insertion order = output order
        self._text = []    # text body: lines, and (records, line function) pairs
        self._stdin = None

    def read(self, path: str) -> str:
        """The text of one input file; '-' means standard input, read once."""
        if path == "-":
            if self._stdin is None:
                self._stdin = sys.stdin.buffer.read()
            data = self._stdin
        else:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as err:
                raise FileFormatError(f"cannot read {path}: {err.strerror}") from err
        self.manifest["inputs"].append(
            {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
        )
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError(
                f"cannot read {path}: not UTF-8 text ({err.reason} at byte {err.start})"
            ) from None

    def field(self, key: str, value, line=None):
        """One named value; its text line is ``key fmt(value)`` unless given."""
        self._result[key] = value
        self._text.append(f"{key} {fmt(value)}" if line is None else line)

    def json_only(self, key: str, value):
        """One named value that has no text line."""
        self._result[key] = value

    def text_only(self, line: str):
        """One text line that is a reading aid, not a result."""
        self._text.append(line)

    def table(self, key: str, records: list, line):
        """A list of records under ``key``; ``line(record)`` is a record's text
        line, called only when text is rendered."""
        self._result[key] = records
        self._text.append((records, line))

    def render(self, as_json: bool) -> str:
        if as_json:
            doc = {"manifest": self.manifest, "result": self._result}
            if sys.version_info >= (3, 13):  # json's C encoder indents from 3.13
                return json.dumps(doc, indent=2)
            return json_text(doc)
        lines = [
            f"# prefixcast {self.manifest['version']}",
            f"# subcommand: {self.manifest['subcommand']}",
            f"# flags: {self.manifest['flags']}",
        ]
        for rec in self.manifest["inputs"]:
            lines.append(f"# input: {rec['path']} sha256={rec['sha256']}")
        if "seed" in self.manifest:
            lines.append(f"# seed: {self.manifest['seed']}")
        for block in self._text:
            if isinstance(block, str):
                lines.append(block)
            else:
                records, line = block
                lines.extend(map(line, records))
        return "\n".join(lines)


def _csv(text: str, what: str, kind=int) -> tuple:
    """A comma-separated flag value as a tuple of ``kind`` (int or float)."""
    try:
        return tuple(kind(tok) for tok in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{what} must be comma-separated {noun}, got {text!r}")


def _lengths(args, rep: Report) -> CodeLengthSet:
    """The length set of ``--lengths`` or ``--lengths-file`` at ``--D``."""
    if args.lengths_file is not None:
        return parse_lengths(rep.read(args.lengths_file), args.D, args.lengths_file)
    return CodeLengthSet(_csv(args.lengths, "--lengths"), args.D)


def _interval_field(rep: Report, key: str, value):
    """One field for an Interval / None (empty) / Inconsistent result."""
    if value is None:
        record, text = None, "empty"
    elif isinstance(value, Inconsistent):
        record = {"inconsistent": True, "a": value.a, "b": value.b}
        text = f"inconsistent a={fmt(value.a)} b={fmt(value.b)}"
    else:
        record = {"lo": value.lo, "hi": value.hi, "width": value.width}
        text = f"[{fmt(value.lo)}, {fmt(value.hi)}] width {fmt(value.width)}"
    rep.field(key, record, f"{key} {text}")


# ----------------------------------------------------------- subcommands


def cmd_kraft(args, rep):
    sources = [
        s for s in (args.lengths, args.lengths_file, args.consecutive, args.progression)
        if s is not None
    ]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --lengths, --lengths-file, --consecutive, "
            "--progression is required"
        )
    d = args.D
    if args.consecutive is not None:
        parts = _csv(args.consecutive, "--consecutive")
        if len(parts) != 2:
            raise ValueError("--consecutive needs exactly N1,M")
        n1, m = parts
        total = consecutive_lengths_sum(n1, m, d)
        if m > _LISTING_BOUND:
            raise ValueError(f"--consecutive M={m} is more lengths than can be listed")
        lengths = CodeLengthSet(tuple(range(n1, n1 + m)), d)
    elif args.progression is not None:
        parts = _csv(args.progression, "--progression")
        if len(parts) != 3:
            raise ValueError("--progression needs exactly N1,STEP,M")
        n1, step, m = parts
        # checked first: the call lists the lengths once n1, step, M and D are valid
        if m > _LISTING_BOUND:
            raise ValueError(f"--progression M={m} is more lengths than can be listed")
        total, _ = arithmetic_progression_satisfies_kraft(n1, step, m, d)
        lengths = CodeLengthSet(tuple(n1 + k * step for k in range(m)), d)
    else:
        lengths = _lengths(args, rep)
        total = kraft_sum(lengths)
    ok = satisfies_kraft(lengths)
    rep.field("D", d)
    rep.field("lengths", ",".join(str(n) for n in lengths.lengths))
    rep.field("sum", total)
    rep.field("satisfied", ok)
    verdict = "SATISFIED" if ok else "VIOLATED"
    rep.field("verdict", verdict, line=verdict)
    if args.check_at is not None:
        rep.field(f"satisfied_at_{args.check_at}", kraft_alphabet_monotonicity(lengths, args.check_at))


def cmd_huffman(args, rep):
    pmf = parse_pmf(rep.read(args.pmf), args.pmf)
    code = huffman_code(pmf, args.D)
    rep.field("D", args.D)
    rep.field("symbols", len(pmf))
    words = code.assignments
    rep.table(
        "code",
        [{"label": label, "codeword": str(words[label]), "length": words[label].length,
          "probability": p} for label, p in pmf.entries],
        lambda r: f"{r['label']} {r['codeword']} {r['length']} {fmt(r['probability'])}",
    )
    rep.field("expected_length", expected_length(code, pmf))
    rep.field("entropy_base_D", shannon_entropy(pmf, base=float(args.D)))
    rep.field("kraft_sum", kraft_sum(code.length_set()))


def cmd_code_from_lengths(args, rep):
    if (args.lengths is None) == (args.lengths_file is None):
        raise ValueError("exactly one of --lengths or --lengths-file is required")
    lengths = _lengths(args, rep)
    labels = tuple(args.labels.split(",")) if args.labels else None
    digits = sum(lengths.lengths)
    # a set that admits no code keeps code_from_lengths's Kraft error
    if digits > _LISTING_BOUND and satisfies_kraft(lengths):
        raise ValueError(f"the code's {digits} digits are more than can be listed")
    code = code_from_lengths(lengths, labels)
    rep.field("D", args.D)
    rep.table("code", [{"label": label, "codeword": str(word), "length": word.length}
                       for label, word in code.assignments.items()],
              lambda r: f"{r['label']} {r['codeword']} {r['length']}")
    rep.field("kraft_sum", kraft_sum(code.length_set()))


def cmd_entropy(args, rep):
    pmf = parse_pmf(rep.read(args.pmf), args.pmf)
    rep.field("symbols", len(pmf))
    rep.field("base", args.base)
    rep.field("entropy", shannon_entropy(pmf, base=args.base))


def cmd_graph_entropy(args, rep):
    if args.digraph:
        if args.tsallis is not None or args.coloring is not None:
            raise ValueError("--tsallis and --coloring apply to undirected graphs only")
        dg = parse_digraph(rep.read(args.graph), args.graph)
        in_pmf, out_pmf = in_out_degree_pmfs(dg)
        rep.field("vertices", len(dg.vertices))
        rep.field("arcs", len(dg.arcs))
        for name, pmf in (("in", in_pmf), ("out", out_pmf)):
            rep.table(f"{name}_pmf", [{"vertex": v, "probability": p} for v, p in pmf.entries],
                      lambda r, name=name: f"{name}_pmf {r['vertex']} {fmt(r['probability'])}")
            rep.field(f"{name}_entropy", shannon_entropy(pmf))
        return

    g = parse_graph(rep.read(args.graph), args.graph)
    coloring = None
    if args.coloring is not None:
        coloring = parse_coloring(rep.read(args.coloring), args.coloring)
    rep.field("vertices", len(g.vertices))
    rep.field("edges", len(g.edges))
    rep.table("degree_pmf", [{"vertex": v, "probability": p} for v, p in degree_pmf(g).entries],
              lambda r: f"pmf {r['vertex']} {fmt(r['probability'])}")
    rep.field("entropy_bits", graph_entropy(g))
    rep.field("regular_degree", is_regular(g))
    rep.field("max_entropy_bits", math.log2(len(g.vertices)))
    if args.tsallis is not None:
        rep.field("tsallis_q", args.tsallis)
        rep.field("tsallis_entropy", tsallis_graph_entropy(g, args.tsallis))
    if coloring is not None:
        rep.field("conditional_entropy_bits", conditional_graph_entropy(g, coloring))
        rep.field("mutual_information_bits", graph_mutual_information(g, coloring))


def cmd_kl(args, rep):
    g1 = parse_graph(rep.read(args.graph), args.graph)
    g2 = parse_graph(rep.read(args.graph2), args.graph2)
    correspondence = None
    if args.map is not None:
        correspondence = parse_vertex_map(rep.read(args.map), args.map)
    rep.field("vertices", len(g1.vertices))
    rep.field("kl_bits", graph_kl_divergence(g1, g2, correspondence))


def cmd_mst(args, rep):
    g = parse_weighted_graph(rep.read(args.graph), args.graph)
    mst = minimum_spanning_tree(g)
    rep.field("vertices", len(g.vertices))
    rep.field("input_edges", len(g.edges))
    rep.table("edges", [{"u": u, "v": v, "weight": w} for u, v, w in mst.edges],
              lambda r: f"edge {r['u']} {r['v']} {fmt(r['weight'])}")
    rep.field("total_weight", mst.total_weight())


def cmd_span_entropy(args, rep):
    g = parse_weighted_graph(rep.read(args.graph), args.graph)
    rep.field("vertices", len(g.vertices))
    if args.msts_only:
        lo, hi = mst_entropy_extrema(g)
        scope, trees = "minimum-weight-spanning-trees", ()
    else:
        lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(g.graph())
        scope, trees = "all-spanning-trees", (("argmin", t_lo), ("argmax", t_hi))
    rep.field("scope", scope)
    rep.field("min_entropy_bits", lo)
    rep.field("max_entropy_bits", hi)
    for name, tree in trees:
        rep.field(
            f"{name}_edges",
            [{"u": u, "v": v} for u, v in tree],
            f"{name} " + " ".join(f"{u}-{v}" for u, v in tree),
        )


def cmd_assign_leaders(args, rep):
    pmf = parse_pmf(rep.read(args.pmf), args.pmf)
    assignment = assign_leaders(pmf, args.D)
    report = verify_secure(assignment)
    rep.field("D", args.D)
    paths = assignment.leaders
    rep.table(
        "leaders",
        [{"label": label, "path": str(Codeword(paths[label])), "depth": len(paths[label]),
          "probability": p} for label, p in pmf.entries],
        lambda r: f"{r['label']} {r['path']} {r['depth']} {fmt(r['probability'])}",
    )
    rep.field("expected_depth", assignment.expected_depth())
    rep.field("entropy_bound", shannon_entropy(pmf, base=float(args.D)))
    rep.field("kraft_sum", assignment.depth_kraft_sum())
    rep.field("tree_depth", assignment.tree.max_depth)
    rep.field("tree_nodes", assignment.tree.total_nodes())
    if args.D > 2:
        rep.text_only(
            "# note: node counts use the geometric series "
            "(D^(depth+1)-1)/(D-1); the binary shortcut D^(depth+1)-1 "
            "applies only at D=2"
        )
    rep.field("secure", report.secure)


def cmd_plan_multicast(args, rep):
    g = parse_weighted_graph(rep.read(args.graph), args.graph)
    pmf = parse_pmf(rep.read(args.pmf), args.pmf)
    plan = plan_multicast(g, args.root, pmf, args.D, relax=args.relax)
    assignment = plan.assignment
    paths = assignment.leaders
    rep.field("root", plan.root)
    rep.field("D", assignment.tree.arity)
    rep.field("mst_weight", plan.mst_weight)
    rep.field("expected_depth", assignment.expected_depth())
    rep.field("kraft_sum", assignment.depth_kraft_sum())
    rep.field("secure", verify_secure(assignment).secure)
    rep.field("relaxed", plan.relaxed)
    rep.table(
        "leaders",
        [{"label": label, "path": str(Codeword(paths[label])),
          "vertex": plan.leader_vertex[label], "route": list(plan.leader_route[label])}
         for label in sorted(paths, key=str)],
        lambda r: f"{r['label']} {r['path']} {'->'.join(map(str, r['route']))}",
    )
    if args.audit:
        audit = plan_cost_audit(plan, g)
        rep.field("audit_mst_weight_minimal", audit.mst_weight_minimal)
        rep.field("audit_prefix_free", audit.prefix_free)
        rep.field("audit_routes_follow_tree", audit.routes_follow_tree)
        rep.field("audit_ok", audit.ok)


def cmd_reliability(args, rep):
    rep.field("q", args.q)
    rep.field("depth", args.depth)
    rep.field("path_reliability", path_reliability(args.q, args.depth))
    rep.field(
        "last_link_failure", last_link_failure_probability(args.q, args.depth)
    )


def cmd_levels(args, rep):
    g = parse_graph(rep.read(args.graph), args.graph)
    net = assign_levels(g, args.bs)
    rep.field("base_station", args.bs)
    rep.table("levels", [{"vertex": v, "level": net.level[v]} for v in g.vertices],
              lambda r: f"{r['vertex']} {r['level']}")
    rep.field("max_level", net.max_level())


def cmd_sectors(args, rep):
    positions = parse_positions(rep.read(args.positions), args.positions)
    sectors = assign_sectors(positions, args.bs, args.K)
    rep.field("base_station", args.bs)
    rep.field("K", args.K)
    rep.table("sectors", [{"vertex": v, "sector": sectors[v]} for v in positions],  # file order
              lambda r: f"{r['vertex']} {r['sector']}")


def cmd_gossip(args, rep):
    g = parse_graph(rep.read(args.graph), args.graph)
    net = assign_levels(g, args.bs)
    try:
        cfg = GossipConfig(
            level_probabilities=_csv(args.levels_probs, "--levels-probs", float),
            q=args.q,
            trials=args.trials,
            seed=args.seed,
            allow_nonmonotone=args.allow_nonmonotone,
        )
    except NonMonotoneLevels:
        raise ValueError(
            "--levels-probs must be strictly decreasing; "
            "pass --allow-nonmonotone to override"
        ) from None
    if args.source is not None:
        source = args.source
    else:
        # deepest vertex, smallest id on ties: the farthest sensor reports
        deepest = max(net.level.values())
        source = min(
            (v for v in g.vertices if net.level[v] == deepest),
            key=g._order_key.__getitem__,
        )
    # validates the source before the report looks up its level
    outcomes = trial_outcomes(net, cfg, source)
    rep.field("base_station", args.bs)
    rep.field("source", source)
    rep.field("source_level", net.level[source])
    rep.field("levels_probs", ",".join(fmt(p) for p in cfg.level_probabilities))
    rep.field("q", cfg.q)
    rep.field("trials", cfg.trials)
    if cfg.allow_nonmonotone:
        rep.field("allow_nonmonotone", True)
    if args.trial_log:
        outcomes = list(outcomes)
        rep.table(
            "trial_log",
            [{"trial": t, "delivered": ok, "transmissions": tx, "hops": hops}
             for t, (ok, tx, hops) in enumerate(outcomes)],
            lambda r: f"trial {r['trial']} {'1' if r['delivered'] else '0'} "
            f"{r['transmissions']} {r['hops'] if r['delivered'] else '-'}",
        )
    result = summarize_trials(cfg, outcomes)
    rep.field("delivered", result.delivered)
    rep.field("delivery_ratio", result.delivery_ratio)
    rep.field("mean_transmissions", result.mean_transmissions)
    rep.field("mean_hops", result.mean_hops)


def cmd_fuse(args, rep):
    intervals = parse_intervals(rep.read(args.intervals), args.intervals)
    s = IntervalSet(intervals, args.f)
    rep.field("n", s.n)
    rep.field("f", s.f)
    rep.field("quorum", s.quorum)
    which = args.function
    if which == "omega":
        omega = overlap_function(s)
        rep.table("omega", [{"breakpoint": x, "count": c}
                            for x, c in zip(omega.breakpoints, omega.at_points)],
                  lambda r: f"{fmt(r['breakpoint'])} {r['count']}")
        # the counts between breakpoints have no text row
        rep.json_only("between", list(omega.between))
    elif which == "compare":
        cmp_ = fusion_compare(s)
        _interval_field(rep, "m", cmp_.m_result)
        _interval_field(rep, "n", cmp_.n_result)
        _interval_field(rep, "s", cmp_.s_result)
        rep.field("m_equals_n", cmp_.m_equals_n)
        if cmp_.m_within_s is not None:
            rep.field("m_within_s", cmp_.m_within_s)
    else:
        fuse = {"m": m_function, "n": n_function, "s": s_function}[which]
        _interval_field(rep, which, fuse(s))


# ------------------------------------------------------------------ wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="prefixcast",
        description="Prefix-free hierarchies, graph entropy, multicast "
        "planning, gossip simulation, and interval fusion.",
    )
    parser.add_argument("--version", action="version", version=f"prefixcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("kraft", cmd_kraft, "Kraft sum and feasibility of a length set")
    p.add_argument("--D", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--lengths", help="comma-separated codeword lengths")
    p.add_argument("--lengths-file", help="file with one length per line ('-' = stdin)")
    p.add_argument("--consecutive", metavar="N1,M", help="closed form for consecutive lengths")
    p.add_argument("--progression", metavar="N1,STEP,M", help="closed form for an arithmetic progression")
    p.add_argument("--check-at", type=int, metavar="D2", help="also check feasibility at a larger alphabet")

    p = add("huffman", cmd_huffman, "optimal D-ary prefix code for a pmf")
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--pmf", required=True, help="pmf file: 'label probability' lines")

    p = add("code-from-lengths", cmd_code_from_lengths, "canonical prefix code from lengths")
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--lengths", help="comma-separated lengths")
    p.add_argument("--lengths-file", help="file with one length per line")
    p.add_argument("--labels", help="comma-separated labels (default 0,1,...)")

    p = add("entropy", cmd_entropy, "Shannon entropy of a pmf")
    p.add_argument("--pmf", required=True)
    p.add_argument("--base", type=float, default=2.0)

    p = add("graph-entropy", cmd_graph_entropy, "degree-distribution entropy of a graph")
    p.add_argument("--graph", required=True, help="edge list ('u v' lines)")
    p.add_argument("--tsallis", type=float, metavar="Q", help="also report Tsallis entropy at q=Q")
    p.add_argument("--coloring", help="coloring file for conditional entropy and mutual information")
    p.add_argument("--digraph", action="store_true", help="treat edges as arcs; report in/out pmfs")

    p = add("kl", cmd_kl, "KL divergence between two graphs' degree pmfs")
    p.add_argument("--graph", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--map", help="vertex correspondence file ('from to' lines; default identity)")

    p = add("mst", cmd_mst, "minimum spanning tree of a weighted graph")
    p.add_argument("--graph", required=True, help="edge list ('u v w' lines; bare 'u v' = weight 1)")

    p = add("span-entropy", cmd_span_entropy, "entropy extrema over spanning trees")
    p.add_argument("--graph", required=True)
    p.add_argument("--msts-only", action="store_true", help="restrict to minimum-weight spanning trees")

    p = add("assign-leaders", cmd_assign_leaders, "prefix-free leader placement from importances")
    p.add_argument("--pmf", required=True)
    p.add_argument("--D", type=int, default=2)

    p = add("plan-multicast", cmd_plan_multicast, "doubly optimal multicast plan on a weighted graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--pmf", required=True)
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--relax", action="store_true", help="retry with longer codewords when the tree is too narrow (heuristic)")
    p.add_argument("--audit", action="store_true", help="re-verify the plan against the graph")

    p = add("reliability", cmd_reliability, "root-to-leader path reliability at depth n")
    p.add_argument("--q", type=float, required=True, help="per-link failure probability")
    p.add_argument("--depth", type=int, required=True, help="leader depth (number of links)")

    p = add("levels", cmd_levels, "BFS hop levels from the base station")
    p.add_argument("--graph", required=True)
    p.add_argument("--bs", required=True, help="base station vertex")

    p = add("sectors", cmd_sectors, "equiangular sector ids around the base station")
    p.add_argument("--positions", required=True, help="positions file ('vertex x y' lines)")
    p.add_argument("--bs", required=True)
    p.add_argument("--K", type=int, required=True, help="number of sectors")

    p = add("gossip", cmd_gossip, "seeded simulation of level-controlled gossip")
    p.add_argument("--graph", required=True)
    p.add_argument("--bs", required=True)
    p.add_argument("--levels-probs", required=True, metavar="P1,P2,...", help="forwarding probability per level")
    p.add_argument("--q", type=float, default=0.0, help="per-link failure probability")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--source", help="event vertex (default: deepest level, smallest id)")
    p.add_argument("--allow-nonmonotone", action="store_true", help="permit non-decreasing level probabilities")
    p.add_argument("--trial-log", action="store_true", help="emit one line per trial")

    p = add("fuse", cmd_fuse, "fault-tolerant interval fusion")
    p.add_argument("--intervals", required=True, help="intervals file ('lo hi' lines)")
    p.add_argument("--f", type=int, required=True, help="fault bound")
    p.add_argument(
        "--function",
        choices=("m", "omega", "n", "s", "compare"),
        default="compare",
    )

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use and reused by every later run."""
    return build_parser()


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    rep = Report(args.command, argv, seed=getattr(args, "seed", None))
    try:
        args.handler(args, rep)
    except (ValueError, KeyError, OverflowError) as err:
        msg = str(err) if str(err) else err.__class__.__name__
        print(f"prefixcast {args.command}: {msg}", file=sys.stderr)
        return VALIDATION_EXIT
    except RuntimeError as err:
        # a failed self-check, such as the spanning-tree count cross-check
        print(f"prefixcast {args.command}: internal error: {err}", file=sys.stderr)
        return INTERNAL_EXIT
    print(rep.render(args.json))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
