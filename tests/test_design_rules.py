"""The design rules of prefixcast, as one table over the parsed source.

ROADMAP aim 2 gives each concept one implementation; these rules keep it so.
Each file is parsed once, and :func:`sites` is the one walk over a tree. A
row of ``RULES`` names its files, a predicate on (node, called) and its sites,
written ``file.py:Outer.inner`` (``file.py:`` is module scope). An exact row
lists every site of its construct, once per occurrence; a within row lists
the only sites where the construct may occur. Four whole-package checks are
plain functions over the same trees. A failure names each ``file:line``.

To add a rule, add a row to ``RULES`` (or a check to ``CHECKS``) with its
reason as a comment, and at least one case to ``PLANTS``: an anchor text that
occurs once in today's file and its replacement, each planted line ending in
``# planted``. The case passes when the rule fails and names those lines.
"""

from __future__ import annotations

import ast
import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIB = "src/prefixcast/"
PKG = tuple(LIB + p.name for p in sorted((ROOT / LIB).glob("*.py")))
REFERENCES = ("tests/oracles.py", "perfbench/reference.py")
DEMOS = tuple(f"demos/{p.name}" for p in sorted((ROOT / "demos").glob("0*.py")))
TEXTS = {path: (ROOT / path).read_text() for path in PKG + REFERENCES + DEMOS}
TREES = {path: ast.parse(text, path) for path, text in TEXTS.items()}


@functools.lru_cache(maxsize=len(TREES) + 1)  # each file's tree, and one planted tree
def sites(path, tree):
    """(node, file, line, scope, called) for every node below ``tree``; the
    scope names the classes and functions around the node."""
    stack, called, found = [(tree, ())], set(), []
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                called.add(child.func)
            found.append((child, path, getattr(child, "lineno", 0), scope, child in called))
            stack.append((child, scope))
    return found


def imports(node):
    """The top-level modules an import statement names; '' for a relative one."""
    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {"" if node.level else node.module.partition(".")[0]}
    return set()


def checks_int(node, called):
    """int(...), or isinstance(...) with int in its second argument."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
        node.func.id == "int" or node.func.id == "isinstance" and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(node.args[1])))


def name_of(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def checks_endpoints(node, called):
    """A read of _checked_pairs, or text that refuses an unknown endpoint."""
    return name_of(node) == "_checked_pairs" or isinstance(node, ast.Constant) and isinstance(
        node.value, str) and "references unknown vertex" in node.value


def refuses_an_interval(node, called):
    """Text that refuses an interval's endpoints: not finite, or lo > hi."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        "endpoints must be finite" in node.value or "empty interval" in node.value)


def loops_on(name):
    return lambda n, c: isinstance(n, ast.While) and isinstance(n.test, ast.Name) and n.test.id == name


def walks_to_root(node, called):
    """A union-find walk, ``while parent[...] != ...:``."""
    test = node.test if isinstance(node, ast.While) else None
    return isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.NotEq) and isinstance(
        test.left, ast.Subscript) and name_of(test.left.value) == "parent"


# name: (files, predicate on (node, called), exact, sites)
RULES = {
    # the reference answers must not share code with what they check
    "references import no prefixcast": (
        REFERENCES, lambda n, c: imports(n) & {"prefixcast", ""}, False, []),
    # the package has no runtime dependencies
    "library imports only the standard library": (
        PKG, lambda n, c: imports(n) - {"prefixcast", ""} - sys.stdlib_module_names, False, []),
    # a count, arity, depth or length goes through source_coding._integer
    # (operator.index, then a bound); int() and isinstance(..., int) are
    # left to the string parsers, the exit code, the renderer and the vertex ranks
    "integers are checked one way": (PKG, checks_int, False, [
        "fileio.py:parse_lengths",  # a length token read from a file
        "gossip.py:_override",  # the level number of a sweep key "P<j>"
        "cli.py:run",  # the exit code argparse raises
        "cli.py:fmt",  # renders an output value by its type
        "graphs.py:_vertex_ranks",  # ranks int vertex ids before the rest
    ]),
    # both entropy scopes are cuts of one include-first search; a second
    # loop over a stack of branches is a second copy of it
    "spanning trees are searched one way": (
        (LIB + "graphs.py",), loops_on("stack"), True, ["graphs.py:_spanning_search"]),
    # every draw is mixed by _splitmix64 or inlined in _run_trial's one
    # per-level loop, once for a gate and once for a link, two multipliers
    # each; a splitmix64 multiplier anywhere else, or a second inlined mix,
    # is a second copy of the trial loop
    "draws are mixed in one trial loop": (PKG, lambda n, c: isinstance(n, ast.Constant) and type(
        n.value) is int and n.value in {0xBF58476D1CE4E5B9, 0x94D049BB133111EB}, True, [
        "gossip.py:_splitmix64"] * 2 + ["gossip.py:_run_trial"] * 4),
    # _digit_paths is the one check of a code's codewords and a placement's
    # paths, and makes the one prefix_violations scan; PrefixCode and
    # LeaderAssignment call it, each once, when they are built. Any other
    # call, or a read that aliases either name, checks digits a second time
    "prefixes are scanned in one routine": (PKG, lambda n, c: c and name_of(n) == "prefix_violations",
                                            True, ["source_coding.py:_digit_paths"]),
    "digit paths are checked by two constructors": (PKG, lambda n, c: c and name_of(n) == "_digit_paths",
                                                    True, ["hierarchy.py:LeaderAssignment.__post_init__",
                                                           "source_coding.py:PrefixCode.__post_init__"]),
    "digit checks are called, never aliased": (
        PKG, lambda n, c: not c and name_of(n) in {"prefix_violations", "_digit_paths"}, False, []),
    # fileio._rows is the one reader of every input format: it alone splits
    # a text into lines, so a second splitlines, or a read of it, is a copy
    "input lines are read one way": (
        PKG, lambda n, c: name_of(n) == "splitlines", True, ["fileio.py:_rows"]),
    # a constructor that skips its checks must be paid for: only the two
    # _trusted builders read object.__new__ (a checked MST WeightedGraph
    # costs each plan its check again)
    "unchecked constructors are the measured ones": (
        PKG, lambda n, c: isinstance(n, ast.Attribute) and n.attr == "__new__"
        and name_of(n.value) == "object",
        True, ["graphs.py:Graph._trusted", "graphs.py:WeightedGraph._trusted"]),
    # _checked_pairs is the one endpoint check: the three graph constructors
    # call it, once each, and it alone refuses an unknown endpoint; a second
    # loop over the edges, or a second call on a built graph, checks twice
    "endpoints are checked in one routine": (PKG, checks_endpoints, True, [
        "graphs.py:DiGraph.__post_init__", "graphs.py:Graph.__post_init__",
        "graphs.py:WeightedGraph.__post_init__", "graphs.py:_checked_pairs"]),
    # fusion._endpoints is the one check of an interval's endpoints: Interval
    # and the interval parser call it, and an IntervalSet that finds a bad
    # column builds an Interval, so a second copy of its messages checks twice
    "interval endpoints are checked in one routine": (
        PKG, refuses_an_interval, False, ["fusion.py:_endpoints"]),
    # json_text is the one JSON writer: it gives the bytes of json.dumps(doc,
    # indent=2) on every interpreter and hands json.dumps only the shapes it
    # does not write itself, so a second call is a second writer (or a fork
    # by interpreter version) whose bytes no test holds to the first
    "JSON is written by one writer": (
        PKG, lambda n, c: c and name_of(n) in {"dump", "dumps"}, False, ["cli.py:json_text"]),
    # a LeveledNetwork derives its levels with _hop_levels, the one while
    # frontier: loop, so a second one is a second BFS
    "levels are found by one BFS": (PKG, loops_on("frontier"), True, ["graphs.py:_hop_levels"]),
    # Kruskal, _is_mst and _greedy_trees call _find; the guarded search of at
    # most 9 vertices walks to a root inline, twice in _joined_later, its one
    # union-find. Calling _find there was slightly slower (medians of six
    # interleaved runs of 21 in-process medians, CPython 3.11.7 on 2 vCPUs):
    # --msts-only on unit-weight K8 33.1 -> 33.7 ms and on K(3,6) 49.8 ->
    # 51.9 ms, and the 24 MST and 32 all-trees span-entropy requests of 96
    # seed-1 enumerate benchmark requests 10.3 -> 10.5 and 34.7 -> 35.5 ms.
    # So those walks stay written out
    "union-find is written out at three sites only": (PKG, walks_to_root, True, [
        "graphs.py:_find", "graphs.py:_joined_later", "graphs.py:_joined_later"]),
}


def site_check(name, trees):
    files, match, exact, allowed = RULES[name]
    found = sorted(((path, line, f"{Path(path).name}:{'.'.join(scope)}", node) for path in files
                    for node, _, line, scope, called in sites(path, trees[path]) if match(node, called)),
                   key=lambda site: site[:3])
    at = [site for _, _, site, _ in found]
    if (sorted(at) == sorted(allowed)) if exact else set(at) <= set(allowed):
        return []
    return [f"{path}:{line}: {ast.unparse(node).splitlines()[0]} in {site}"
            for path, line, site, node in found if exact or site not in allowed] + [
        f"{name}: expected {'exactly' if exact else 'only'} at {', '.join(allowed) or 'no site'}"]


def unused_imports(trees):
    """__init__.py re-exports what it imports; __future__ imports are flags."""
    bad = []
    for path in PKG:
        if path.endswith("__init__.py"):
            continue
        imported, used = {}, set()
        for node, _, line, _, _ in sites(path, trees[path]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.partition(".")[0], line)
        bad += [f"{path}:{line}: imports {name} and never uses it"
                for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]
    return bad


def reads(paths, trees):
    """Every name the files ``paths`` read: as a name, an attribute or an import."""
    used = set()
    for path in paths:
        for node, *_ in sites(path, trees[path]):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def unused_private_names(trees):
    """A module-level _name must be read somewhere in the package; deletions
    leave such names behind."""
    defined, used = [], reads(PKG, trees)
    for path in PKG:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path, node.lineno, name) for name in names]
    return [f"{path}:{line}: defines {name} and never uses it" for path, line, name in defined
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            and name not in used]


def exports(trees):
    """__all__ lists each name __init__.py imports once, plus __version__."""
    path = LIB + "__init__.py"
    imported, listed = {"__version__": 0}, []
    for node in trees[path].body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name, alias.lineno) for alias in node.names)
        elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", "") for t in node.targets]:
            listed = [ast.literal_eval(elt) for elt in node.value.elts]
    bad = [f"{path}: __all__ lists {name!r} {n} times" for name, n in Counter(listed).items() if n > 1]
    bad += [f"{path}:{line}: imports {name!r} but __all__ omits it"
            for name, line in imported.items() if name not in listed]
    return bad + [f"{path}: __all__ lists {name!r}, which it does not import"
                  for name in listed if name not in imported]


# whether to reach these through an opt-in assign-leaders flag or to delete
# them is a later feature decision, and a simplicity change adds no option
UNREACHED = {"node_selection_probability", "level_leader_probability", "local_leader_probability"}


def unreached_exports(trees):
    """Each name __init__.py imports is read by another module of the package,
    its own included, or by a demo; a name only tests read is dead weight."""
    path = LIB + "__init__.py"
    used = reads([p for p in PKG if p != path] + list(DEMOS), trees) | UNREACHED
    return [f"{path}:{alias.lineno}: exports {alias.name} and no module or demo reads it"
            for node in trees[path].body if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name not in used]


CHECKS = {name: functools.partial(site_check, name) for name in RULES}
CHECKS.update({"library imports no name it leaves unused": unused_imports,
               "library defines no private name it never uses": unused_private_names,
               "package exports exactly what it imports": exports,
               "public names are reached": unreached_exports})


def before(anchor, text):
    return (anchor, text + anchor)


# (rule, file, anchor, replacement), a bare file name being in src/prefixcast;
# each planted line ends in "# planted", and a case with none deletes a site
PLANTS = [
    ("draws are mixed in one trial loop", "gossip.py", *before(
        "def _splitmix64(", "def _mix(z):\n    return z * 0x94D049BB133111EB  # planted\n\n\n")),
    ("draws are mixed in one trial loop", "graphs.py", *before(
        "def _vertex_ranks(", "def _mix(z):\n    return z * 0xBF58476D1CE4E5B9  # planted\n\n\n")),
    ("prefixes are scanned in one routine", "multicast.py", *before(
        "    steps = {(u, v) for u, v, _ in plan.carrier}", "    prefix_violations([])  # planted\n")),
    ("digit paths are checked by two constructors", "source_coding.py", *before(
        "    return PrefixCode(d, _huffman_paths(pmf, d))", "    _digit_paths(d, {})  # planted\n")),
    ("digit checks are called, never aliased", "hierarchy.py", *before(
        "\n\ndef total_nodes(", "\n_scan = prefix_violations  # planted")),
    ("prefixes are scanned in one routine", "source_coding.py", *before(
        "        if clashes:\n", "        prefix_violations(list(paths.values()))  # planted\n")),
    ("digit paths are checked by two constructors", "source_coding.py",
     "paths, clashes = _digit_paths(", "paths, clashes = dict("),
    ("input lines are read one way", "fileio.py", *before(
        "    pairs = [(tokens[0], _number(", "    text.splitlines()  # planted\n")),
    ("input lines are read one way", "cli.py", *before(
        "    code = huffman_code(pmf, args.D)\n", "    rep.read(args.pmf).splitlines()  # planted\n")),
    ("unchecked constructors are the measured ones", "gossip.py", *before("    def max_level(self)", (
        "    @classmethod\n    def _trusted(cls, graph, base_station, level):\n"
        "        net = object.__new__(cls)  # planted\n"
        "        net.__dict__.update(graph=graph, base_station=base_station, level=level)\n"
        "        return net\n\n"))),
    ("interval endpoints are checked in one routine", "fileio.py", *before(
        "            pairs.append(_endpoints(lo, hi))\n", (
            "            if float(lo) > float(hi):\n"
            "                raise ValueError(f\"empty interval: lo {lo} > hi {hi}\")  # planted\n"))),
    ("levels are found by one BFS", "gossip.py", *before("def _splitmix64(", (
        "def _levels(adj, frontier):\n    while frontier:  # planted\n"
        "        frontier = [v for u in frontier for v in adj[u]]\n\n\n"))),
    ("library imports only the standard library", "graphs.py", *before(
        "import math\n", "import numpy  # planted\n")),
    ("library imports no name it leaves unused", "gossip.py", *before(
        "import math\n", "import os  # planted\n")),
    ("library defines no private name it never uses", "fusion.py", *before(
        "import math\n", "_helper = 1  # planted\n")),
    ("package exports exactly what it imports", "__init__.py", *before(
        "__version__ = ", "from .graphs import _vertex_ranks  # planted\n")),
    ("public names are reached", "__init__.py", *before(
        "__version__ = ", "from .graphs import enumerate_spanning_trees  # planted\n")),
    ("JSON is written by one writer", "cli.py", *before(
        "            return json_text({", "            json.dumps(doc, indent=2)  # planted\n")),
    ("integers are checked one way", "cli.py", *before(
        "    s = IntervalSet(intervals, args.f)\n", "    int(x)  # planted\n")),
    ("references import no prefixcast", "tests/oracles.py", *before(
        "from collections import Counter, deque\n", "from prefixcast import graphs  # planted\n")),
    ("spanning trees are searched one way", "graphs.py", *before(
        "def _vertex_ranks(", "def _walk(stack):\n    while stack:  # planted\n        stack.pop()\n\n\n")),
    ("spanning trees are searched one way", "graphs.py", "    while stack:\n", "    while 0:\n"),
    ("prefixes are scanned in one routine", "source_coding.py", "prefix_violations(list(paths.values()))",
     "[]"),
    ("input lines are read one way", "fileio.py", "text.splitlines()", "text.split()"),
    ("unchecked constructors are the measured ones", "graphs.py",
     "object.__new__(cls)._set(vertices, edges, rank)", "cls.__new__(cls)._set(vertices, edges, rank)"),
    ("levels are found by one BFS", "graphs.py", "    while frontier:\n", "    while 0:\n"),
    ("endpoints are checked in one routine", "graphs.py", *before("        edges, keys = _checked_pairs(", (
        "        for u, v, _ in triples:\n"
        "            if u not in self.vertices or v not in self.vertices:\n"
        "                raise ValueError(f\"edge ({u!r}, {v!r}) references unknown vertex\")  # planted\n"))),
    ("endpoints are checked in one routine", "graphs.py", *before(
        "    n = len(g.vertices)\n    edges, keys, weights = g.edges, g._keys, g._weights\n",
        "    _checked_pairs(g.vertices, g.edges, \"edge\", g._order_key)  # planted\n")),
    ("endpoints are checked in one routine", "graphs.py",
     "arcs, _ = _checked_pairs(verts, ", "arcs, _ = _trusted_pairs(verts, "),
    ("union-find is written out at three sites only", "graphs.py",
     "        ra, rb = _find(parent, a), _find(parent, b)\n", (
        "        ra, rb = a, b\n        while parent[ra] != ra:  # planted\n            ra = parent[ra]\n"
        "        while parent[rb] != rb:  # planted\n            rb = parent[rb]\n")),
    ("union-find is written out at three sites only", "graphs.py",
     "def _find(parent: list, x: int) -> int:\n    while parent[x] != x:",
     "def _find(parent: list, x: int) -> int:\n    while x != parent[x]:"),
    ("draws are mixed in one trial loop", "gossip.py", (
        "z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64\n"
        "                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64\n"
        "                    gate_open = "), "gate_open = "),
]


@pytest.mark.parametrize("name", CHECKS)
def test_rule_holds_on_the_tree(name):
    assert CHECKS[name](TREES) == []


@pytest.mark.parametrize("name, path, anchor, new", PLANTS, ids=[
    f"{name}-{path.rpartition('/')[2]}-{i}" for i, (name, path, *_) in enumerate(PLANTS)])
def test_planted_violation_fails_its_rule(name, path, anchor, new):
    path = path if "/" in path else LIB + path
    assert TEXTS[path].count(anchor) == 1
    text = TEXTS[path].replace(anchor, new)
    bad = CHECKS[name]({**TREES, path: ast.parse(text, path)})
    assert bad
    planted = [i for i, line in enumerate(text.split("\n"), 1) if line.endswith("# planted")]
    assert all(any(msg.startswith(f"{path}:{i}:") for msg in bad) for i in planted), bad


def test_every_rule_has_a_planted_failure():
    assert set(CHECKS) == {name for name, *_ in PLANTS}
    deletions = {name for name, _, _, new in PLANTS if "# planted" not in new}
    assert deletions == {name for name, (_, _, exact, _) in RULES.items() if exact}


def test_the_workflow_holds_no_inline_rule():
    # a rule written into the workflow would run outside this table
    assert "import ast" not in (ROOT / ".github/workflows/tests.yml").read_text()


def test_the_workflow_holds_no_heredoc():
    # a worst case written into the workflow would run outside tests/test_worst_cases.py
    assert "<<" not in (ROOT / ".github/workflows/tests.yml").read_text()
