"""End-to-end checks of the command line tool.

Most tests drive ``prefixcast.cli.run`` in-process for speed; a few shell out
to the installed entry point to pin the real exit codes and byte-identical
reruns.
"""

import dataclasses
import io
import json
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import prefixcast.cli as cli_module
from prefixcast import graphs, source_coding
from prefixcast.cli import INTERNAL_EXIT, USAGE_EXIT, VALIDATION_EXIT, fmt, run


def cli(*args):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def line3(tmp_path):
    p = tmp_path / "line3.edges"
    p.write_text("BS A\nA B\n")
    return str(p)


@pytest.fixture
def square(tmp_path):
    p = tmp_path / "square.edges"
    p.write_text("A B 1\nB C 2\nC D 1\nD A 2\nA C 5\n")
    return str(p)


@pytest.fixture
def uniform3(tmp_path):
    p = tmp_path / "u3.pmf"
    third = 1.0 / 3.0
    p.write_text(f"a {third!r}\nb {third!r}\nc {1.0 - 2.0 * third!r}\n")
    return str(p)


# ------------------------------------------------------------- exit codes


def test_no_subcommand_is_usage_error():
    code, _, err = cli()
    assert code == USAGE_EXIT
    assert "error" in err


def test_unknown_flag_is_usage_error():
    code, _, _ = cli("mst", "--wat")
    assert code == USAGE_EXIT


def test_non_integer_flag_value_is_usage_error():
    code, _, _ = cli("reliability", "--q", "0.1", "--depth", "two")
    assert code == USAGE_EXIT


def test_missing_file_is_validation_error():
    code, out, err = cli("mst", "--graph", "/nonexistent/g.edges")
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err.count("\n") == 1  # exactly one diagnostic line
    assert "cannot read" in err


def test_malformed_pmf_is_validation_error(tmp_path):
    bad = tmp_path / "bad.pmf"
    bad.write_text("a 0.9\nb 0.9\n")  # sums to 1.8
    code, _, err = cli("entropy", "--pmf", str(bad))
    assert code == VALIDATION_EXIT
    assert err.strip()


BIG = str(10**400)  # a valid int flag that no float can hold


@pytest.mark.parametrize(
    "argv",
    [
        ["kraft", "--lengths", "1,2", "--D", BIG],
        ["kraft", "--consecutive", "1,2", "--D", BIG],
        ["kraft", "--consecutive", f"1,{BIG}"],
        ["kraft", "--progression", "1,1,2", "--D", BIG],
        ["code-from-lengths", "--lengths", "1,2", "--D", BIG],
        ["assign-leaders", "--pmf", "PMF", "--D", BIG],
        ["reliability", "--q", "0.5", "--depth", BIG],
    ],
    ids=lambda argv: " ".join(a for a in argv if a != BIG),
)
def test_huge_integer_flag_is_validation_error(argv, uniform3):
    code, out, err = cli(*(uniform3 if a == "PMF" else a for a in argv))
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert "too large" in err


def _bad_files(tmp_path) -> dict:
    """Input files, by placeholder, that each hold one bad value."""
    texts = {
        "WIDE": "-1e308 1e308\n-1e308 1e308\n",
        "NANPOS": "BS 0 0\nA nan 1\n",
        "INFPOS": "BS 0 0\nA 1 -inf\n",
        "NANPMF": "a nan\nb 1\n",
        "TWICEMAP": "a b\na c\n",
        "TWICEPOS": "a 0 0\na 1 1\n",
        "EMPTYIV": "2 1\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in texts}


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--pmf", "PMF", "--base", "inf"],
        ["graph-entropy", "--graph", "GRAPH", "--tsallis", "nan"],
        ["graph-entropy", "--graph", "GRAPH", "--tsallis", "inf"],
        ["fuse", "--intervals", "WIDE", "--f", "0"],
        ["fuse", "--intervals", "WIDE", "--f", "0", "--function", "m"],
        ["graph-entropy", "--graph", "GRAPH", "--tsallis", "-2000"],
        ["sectors", "--positions", "NANPOS", "--bs", "BS", "--K", "4"],
        ["sectors", "--positions", "INFPOS", "--bs", "BS", "--K", "4"],
        ["entropy", "--pmf", "NANPMF"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_non_finite_value_is_validation_error(argv, mode, uniform3, line3, tmp_path):
    # such values used to reach --json output as NaN or Infinity, not JSON,
    # or to end in an error line that did not name them
    files = {"PMF": uniform3, "GRAPH": line3, **_bad_files(tmp_path)}
    code, out, err = cli(*(files.get(a, a) for a in argv + mode))
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["gossip", "--graph", "GRAPH", "--bs", "BS", "--levels-probs", "0.3,0.6",
             "--trials", "3", "--seed", "1"],
            "prefixcast gossip: --levels-probs must be strictly decreasing; "
            "pass --allow-nonmonotone to override",
        ),
        (
            ["graph-entropy", "--graph", "GRAPH", "--tsallis", "1"],
            "prefixcast graph-entropy: q=1 is the Shannon limit, "
            "where the Tsallis form is undefined",
        ),
        (
            # M is past the listing bound, so no list of lengths is built
            ["kraft", "--consecutive", "1,99999999999999999999"],
            "prefixcast kraft: --consecutive M=99999999999999999999 "
            "is more lengths than can be listed",
        ),
        (
            ["graph-entropy", "--graph", "GRAPH", "--tsallis", "-2000"],
            "prefixcast graph-entropy: the Tsallis sum overflows at q=-2000.0",
        ),
        (
            ["sectors", "--positions", "NANPOS", "--bs", "BS", "--K", "4"],
            "prefixcast sectors: NANPOS:2: position (nan, 1) is not finite",
        ),
        (
            ["sectors", "--positions", "INFPOS", "--bs", "BS", "--K", "4"],
            "prefixcast sectors: INFPOS:2: position (1, -inf) is not finite",
        ),
        (
            ["entropy", "--pmf", "NANPMF"],
            "prefixcast entropy: NANPMF: probability nan for label 'a' is not a number",
        ),
        (["kraft", "--consecutive", "1"], "prefixcast kraft: --consecutive needs exactly N1,M"),
        (
            ["kraft", "--progression", "1,2"],
            "prefixcast kraft: --progression needs exactly N1,STEP,M",
        ),
        (
            ["code-from-lengths"],
            "prefixcast code-from-lengths: exactly one of --lengths or --lengths-file is required",
        ),
        (
            ["code-from-lengths", "--lengths", "1", "--lengths-file", "EMPTYIV"],
            "prefixcast code-from-lengths: exactly one of --lengths or --lengths-file is required",
        ),
        (
            ["kraft", "--lengths", "1,x"],
            "prefixcast kraft: --lengths must be comma-separated integers, got '1,x'",
        ),
        (
            ["gossip", "--graph", "GRAPH", "--bs", "BS", "--levels-probs", "a,b",
             "--trials", "1", "--seed", "1"],
            "prefixcast gossip: --levels-probs must be comma-separated numbers, got 'a,b'",
        ),
        (
            ["kl", "--graph", "GRAPH", "--graph2", "GRAPH", "--map", "TWICEMAP"],
            "prefixcast kl: TWICEMAP:2: vertex 'a' mapped twice",
        ),
        (
            ["sectors", "--positions", "TWICEPOS", "--bs", "BS", "--K", "4"],
            "prefixcast sectors: TWICEPOS:2: vertex 'a' positioned twice",
        ),
        (
            ["fuse", "--intervals", "EMPTYIV", "--f", "0"],
            "prefixcast fuse: EMPTYIV:1: empty interval: lo 2.0 > hi 1.0",
        ),
    ],
    ids=["gossip", "graph-entropy", "kraft", "tsallis-overflow", "nan-position",
         "inf-position", "nan-probability", "consecutive-arity", "progression-arity",
         "no-lengths", "both-lengths", "lengths-not-int", "levels-probs-not-number",
         "map-twice", "positions-twice", "empty-interval"],
)
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_stderr_names_flags_not_library_internals(argv, line, mode, line3, tmp_path):
    files = {"GRAPH": line3, **_bad_files(tmp_path)}
    code, out, err = cli(*(files.get(a, a) for a in argv + mode))
    # an input file is named in the error line by its path
    for name, path in files.items():
        line = line.replace(f" {name}:", f" {path}:")
    assert (code, out, err) == (VALIDATION_EXIT, "", line + "\n")


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_is_named(source, mode, tmp_path, monkeypatch):
    data = bytes.fromhex("fffe0a")
    if source == "stdin":
        path = "-"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    else:
        path = str(tmp_path / "lengths.txt")
        (tmp_path / "lengths.txt").write_bytes(data)
    code, out, err = cli("kraft", "--lengths-file", path, *mode)
    assert (code, out) == (VALIDATION_EXIT, "")
    assert err == (
        f"prefixcast kraft: cannot read {path}: "
        "not UTF-8 text (invalid start byte at byte 0)\n"
    )


def test_reused_parser_prints_what_a_fresh_one_prints(line3, tmp_path):
    lengths = tmp_path / "lengths.txt"
    lengths.write_text("1\n2\n3\n3\n")
    gossip = ("gossip", "--graph", line3, "--bs", "BS", "--levels-probs", "1.0,0.5",
              "--q", "0.2", "--trials", "20", "--seed", "3")
    sequence = [
        gossip,
        gossip + ("--source", "A", "--json"),
        gossip + ("--allow-nonmonotone", "--trial-log"),
        ("kraft", "--lengths", "1,2,3"),
        ("kraft", "--lengths-file", str(lengths), "--check-at", "3"),
        ("kraft", "--consecutive", "1,4", "--json"),
        ("kraft", "--progression", "1,2,3"),
        ("kraft", "--lengths", "1,2", "--wat"),
        ("--help",),
        ("kraft", "--help"),
    ]
    fresh = []
    for argv in sequence:
        cli_module._parser.cache_clear()
        fresh.append(cli(*argv))
    assert [code for code, _, _ in fresh] == [0] * 7 + [USAGE_EXIT, 0, 0]
    assert "allow_nonmonotone" not in fresh[0][1]
    reused = [cli(*argv) for argv in sequence + sequence[::-1]]
    assert reused == fresh + fresh[::-1]
    assert cli_module._parser.cache_info().misses == 1


def test_version_flag():
    code, out, _ = cli("--version")
    assert code == 0
    assert out.startswith("prefixcast ")


# ------------------------------------------------------------ manifest


def test_every_text_output_carries_the_manifest(square):
    code, out, _ = cli("mst", "--graph", square)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# prefixcast ")
    assert lines[1] == "# subcommand: mst"
    assert lines[2].startswith("# flags: mst --graph ")
    assert lines[3].startswith("# input: ") and "sha256=" in lines[3]


def test_seed_appears_in_manifest_only_for_seeded_runs(line3):
    _, out, _ = cli(
        "gossip", "--graph", line3, "--bs", "BS",
        "--levels-probs", "1.0,0.5", "--q", "0", "--trials", "10", "--seed", "3",
    )
    assert "# seed: 3" in out
    _, out2, _ = cli("levels", "--graph", line3, "--bs", "BS")
    assert "# seed" not in out2


def test_same_input_same_digest_different_input_different_digest(tmp_path, square):
    _, out1, _ = cli("mst", "--graph", square)
    _, out2, _ = cli("mst", "--graph", square)
    digest = [l for l in out1.splitlines() if l.startswith("# input")]
    assert digest == [l for l in out2.splitlines() if l.startswith("# input")]
    other = tmp_path / "other.edges"
    other.write_text("A B 1\nB C 2\n")
    _, out3, _ = cli("mst", "--graph", str(other))
    assert [l for l in out3.splitlines() if l.startswith("# input")] != digest


# ------------------------------------------------------- number formatting


def test_fmt_six_places_trailing_zeros_trimmed():
    assert fmt(0.875) == "0.875"
    assert fmt(5.0 / 3.0) == "1.666667"
    assert fmt(1.0) == "1"
    assert fmt(0.5) == "0.5"
    assert fmt(1e-9) == "0"
    assert fmt(-0.0000001) == "0"
    assert fmt(3) == "3"
    assert fmt(True) == "true"


# ----------------------------------------------------------------- kraft


def test_kraft_csv_satisfied():
    code, out, _ = cli("kraft", "--lengths", "1,2,3")
    assert code == 0
    assert "sum 0.875" in out
    assert "SATISFIED" in out


def test_kraft_csv_violated():
    code, out, _ = cli("kraft", "--lengths", "1,1,2")
    assert code == 0  # a verdict, not an error
    assert "sum 1.25" in out
    assert "VIOLATED" in out


def test_kraft_consecutive_closed_form_equals_direct_sum():
    _, out_cf, _ = cli("kraft", "--consecutive", "1,5")
    _, out_direct, _ = cli("kraft", "--lengths", "1,2,3,4,5")
    pick = lambda o: [l for l in o.splitlines() if l.startswith("sum ")]
    assert pick(out_cf) == pick(out_direct) == ["sum 0.96875"]


def test_kraft_progression_and_alphabet_check():
    code, out, _ = cli("kraft", "--progression", "1,2,4", "--check-at", "5")
    assert code == 0
    assert "SATISFIED" in out
    assert "satisfied_at_5 true" in out


# --check-at lists the set once more and hands kraft_alphabet_monotonicity the
# base verdict, so Kraft is decided again only at D', on a set of its own
@pytest.mark.parametrize("check_at, verdicts, sets", [([], 1, 1), (["--check-at", "3"], 2, 3)])
def test_kraft_progression_decides_kraft_once(monkeypatch, check_at, verdicts, sets):
    calls = {"verdicts": 0, "sets": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapper

    verdict = counted("verdicts", source_coding.satisfies_kraft)
    monkeypatch.setattr(source_coding, "satisfies_kraft", verdict)
    monkeypatch.setattr(cli_module, "satisfies_kraft", verdict)
    monkeypatch.setattr(
        source_coding.CodeLengthSet, "__post_init__",
        counted("sets", source_coding.CodeLengthSet.__post_init__),
    )
    code, out, _ = cli("kraft", "--progression", "2,3,5", *check_at)
    assert code == 0
    assert "lengths 2,5,8,11,14\n" in out
    assert out.endswith("SATISFIED\n" + "satisfied_at_3 true\n" * bool(check_at))
    assert calls == {"verdicts": verdicts, "sets": sets}


def test_kraft_source_flags_are_mutually_exclusive():
    code, _, err = cli("kraft", "--lengths", "1,2", "--consecutive", "1,2")
    assert code == VALIDATION_EXIT
    assert "exactly one" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["kraft", "--consecutive", "1,100000000000"],
            "prefixcast kraft: --consecutive M=100000000000 is more lengths than can be listed",
        ),
        (
            ["kraft", "--progression", "1,1,1000000000000"],
            "prefixcast kraft: --progression M=1000000000000 is more lengths than can be listed",
        ),
        (
            ["code-from-lengths", "--lengths", "1000000000"],
            "prefixcast code-from-lengths: the code's 1000000000 digits "
            "are more than can be listed",
        ),
    ],
    ids=["consecutive", "progression", "code-from-lengths"],
)
def test_unlistable_request_is_refused_before_building(argv, line):
    # these used to end in a MemoryError traceback or an out-of-memory kill;
    # a 1 GiB address-space cap makes such a regression fail fast
    proc = subprocess.run(
        [sys.executable, "-m", "prefixcast.cli", *argv],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (VALIDATION_EXIT, "", line + "\n")


def test_check_at_words_a_failing_base_alphabet_as_the_library_does():
    assert cli("kraft", "--lengths", "1,1,1", "--check-at", "3") == (
        VALIDATION_EXIT,
        "",
        "prefixcast kraft: Kraft inequality fails at the base alphabet size; "
        "monotonicity undefined\n",
    )


def test_kraft_lengths_file_from_stdin_records_digest():
    out = subprocess.run(
        [sys.executable, "-m", "prefixcast.cli", "kraft", "--lengths-file", "-"],
        input="1\n2\n3\n3\n", capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "# input: - sha256=" in out.stdout
    assert "sum 1\n" in out.stdout


@pytest.mark.parametrize("lengths", ["1,1,45", "1,1,60"])
def test_kraft_verdict_is_exact_just_above_one(lengths):
    code, out, _ = cli("kraft", "--lengths", lengths)
    assert code == 0
    assert "sum 1\n" in out  # the displayed float rounds to 1
    assert out.endswith("satisfied false\nVIOLATED\n")
    code, _, err = cli("code-from-lengths", "--lengths", lengths)
    assert code == VALIDATION_EXIT
    assert "Kraft" in err


# --------------------------------------------------------------- huffman


def test_huffman_uniform_three_symbols(uniform3):
    code, out, _ = cli("huffman", "--pmf", uniform3)
    assert code == 0
    assert "expected_length 1.666667" in out
    lengths = sorted(
        int(l.split()[2]) for l in out.splitlines()
        if l.split() and l.split()[0] in {"a", "b", "c"}
    )
    assert lengths == [1, 2, 2]


def test_huffman_json_has_code_table(uniform3):
    code, out, _ = cli("huffman", "--pmf", uniform3, "--json")
    assert code == 0
    doc = json.loads(out)
    assert {row["label"] for row in doc["result"]["code"]} == {"a", "b", "c"}
    assert doc["result"]["kraft_sum"] == 1.0


# ------------------------------------------------------ code-from-lengths


def test_code_from_lengths_with_labels():
    code, out, _ = cli("code-from-lengths", "--lengths", "1,2,2", "--labels", "x,y,z")
    assert code == 0
    assert "x 0 1" in out
    assert "y 10 2" in out
    assert "z 11 2" in out


@pytest.mark.parametrize("labels", ["", "a,,b", "a,b,"])
def test_code_from_lengths_refuses_an_empty_label(labels):
    # an empty --labels is not the default labels, and an empty label would
    # print a row with no label column
    code, out, err = cli("code-from-lengths", "--lengths", "1,2,2", "--labels", labels)
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == f"prefixcast code-from-lengths: --labels {labels!r} has an empty label\n"


@pytest.mark.parametrize(
    "labels, bad",
    [("a b,c,d", "a b"), ("a,b\tc,d", "b\tc"), ("a,b, c", " c"), ("a,#b,c", "#b"),
     ("a,b,c#", "c#"), ("a,b,c\nd", "c\nd"), ("a,b,\u00a0", "\u00a0")],
)
def test_code_from_lengths_refuses_a_label_no_input_file_could_carry(labels, bad):
    # whitespace splits a row and '#' starts a comment in every input format,
    # so such a label would print a row that reads back as other columns
    code, out, err = cli("code-from-lengths", "--lengths", "1,2,2", "--labels", labels)
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == f"prefixcast code-from-lengths: --labels label {bad!r} holds whitespace or '#'\n"


def test_code_from_lengths_rejects_infeasible():
    code, _, err = cli("code-from-lengths", "--lengths", "1,1,1")
    assert code == VALIDATION_EXIT
    assert "Kraft" in err


def test_code_from_lengths_label_count_mismatch():
    code, _, _ = cli("code-from-lengths", "--lengths", "1,2", "--labels", "x")
    assert code == VALIDATION_EXIT


def test_code_from_lengths_label_count_is_checked_before_kraft():
    # 1,1,1 also breaks Kraft; the label count is reported, in one line
    code, out, err = cli("code-from-lengths", "--lengths", "1,1,1", "--labels", "x")
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == "prefixcast code-from-lengths: 1 labels for 3 lengths\n"


@pytest.mark.parametrize(
    "d, lengths, labels, repeated",
    [
        ("2", "1,1", "a,a", "a"),
        ("2", "1,2,2", "a,b,a", "a"),
        # the first repeat in (length, index) order, not in input order
        ("3", "3,1,3,1", "a,b,a,b", "b"),
    ],
)
def test_code_from_lengths_repeated_label_is_validation_error(d, lengths, labels, repeated):
    code, out, err = cli(
        "code-from-lengths", "--D", d, "--lengths", lengths, "--labels", labels
    )
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert f"label {repeated!r} appears more than once" in err


# ------------------------------------------------------- graph subcommands


def test_graph_entropy_ring_hits_log2_n(tmp_path):
    ring = tmp_path / "ring5.edges"
    ring.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = cli("graph-entropy", "--graph", str(ring))
    assert code == 0
    assert "entropy_bits 2.321928" in out
    assert "regular_degree 2" in out


@pytest.mark.parametrize("q", ["1.0000000000000002", "0.9999999999999999"])
def test_tsallis_one_ulp_from_one_is_the_shannon_limit(line3, q):
    # degrees 1, 2, 1: the limit is 1.5 ln 2 = 1.0397207708399179 nats
    code, out, _ = cli("graph-entropy", "--graph", line3, "--tsallis", q)
    assert code == 0
    assert "tsallis_entropy 1.039721" in out.splitlines()
    code, out, _ = cli("graph-entropy", "--graph", line3, "--tsallis", q, "--json")
    assert json.loads(out)["result"]["tsallis_entropy"] == 1.0397207708399179


def test_graph_entropy_digraph_rejects_undirected_only_flags(line3):
    code, _, err = cli("graph-entropy", "--graph", line3, "--digraph", "--tsallis", "2")
    assert code == VALIDATION_EXIT
    assert "undirected" in err


def test_kl_identical_graphs_is_zero(line3):
    code, out, _ = cli("kl", "--graph", line3, "--graph2", line3)
    assert code == 0
    assert "kl_bits 0" in out


def test_mst_weight(square):
    code, out, _ = cli("mst", "--graph", square)
    assert code == 0
    assert "total_weight 4" in out
    assert sum(1 for l in out.splitlines() if l.startswith("edge ")) == 3


def test_mst_renders_a_negative_zero_weight_as_zero(tmp_path):
    # the text renderer prints -0.0 as 0; JSON prints the stored float, so
    # the weight check stores 0.0 and both renderings agree
    p = tmp_path / "zero.edges"
    p.write_text("a b -0\nb c 1\n")
    code, text, _ = cli("mst", "--graph", str(p))
    assert code == 0
    assert text.splitlines()[-3:] == ["edge a b 0", "edge b c 1", "total_weight 1"]
    code, out, _ = cli("mst", "--graph", str(p), "--json")
    assert code == 0
    edges = json.loads(out)["result"]["edges"]
    assert [repr(e["weight"]) for e in edges] == ["0.0", "1.0"]
    assert "-0.0" not in out


def test_failed_self_check_is_internal_error(square, monkeypatch):
    # span-entropy checks that each tree it returns is a spanning tree of the
    # graph; a failure is a bug, reported in one line with exit 70
    monkeypatch.setattr(graphs, "is_connected", lambda g: False)
    code, out, err = cli("span-entropy", "--graph", square)
    assert code == INTERNAL_EXIT == 70
    assert out == ""
    assert err == (
        "prefixcast span-entropy: internal error: the search returned 3 edges "
        "that are not a spanning tree of the graph\n"
    )


def test_table_of_unequal_columns_is_internal_error(tmp_path, monkeypatch):
    # columns of unequal length would lose rows to zip, so the report refuses
    # them as a bug, in one line with exit 70
    overlap = cli_module.overlap_function
    monkeypatch.setattr(cli_module, "overlap_function", lambda s: dataclasses.replace(
        overlap(s), at_points=overlap(s).at_points[:-1]))
    p = tmp_path / "two.intervals"
    p.write_text("0 1\n0.5 2\n")
    code, out, err = cli("fuse", "--intervals", str(p), "--f", "0", "--function", "omega")
    assert code == INTERNAL_EXIT
    assert out == ""
    assert err == "prefixcast fuse: internal error: table 'omega' has columns of unequal length\n"


def test_span_entropy_full_vs_msts_only(square):
    code, full, _ = cli("span-entropy", "--graph", square)
    assert code == 0
    assert "scope all-spanning-trees" in full
    assert "argmin " in full and "argmax " in full
    code, msts, _ = cli("span-entropy", "--graph", square, "--msts-only")
    assert code == 0
    assert "scope minimum-weight-spanning-trees" in msts


@pytest.mark.parametrize("scope", [[], ["--msts-only"]])
def test_span_entropy_trivial_graph_is_one_error_for_both_scopes(scope, tmp_path):
    p = tmp_path / "one.edges"
    p.write_text("vertex a\n")
    code, out, err = cli("span-entropy", "--graph", str(p), *scope)
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == "prefixcast span-entropy: spanning trees of a trivial graph have no edges\n"


@pytest.mark.parametrize("scope", [[], ["--msts-only"]])
def test_span_entropy_over_the_tree_budget_is_one_error(scope, tmp_path):
    # K9 has 9**7 spanning trees; the count is taken before the search
    p = tmp_path / "k9.edges"
    p.write_text("".join(f"{i} {j} 1\n" for i in range(9) for j in range(i + 1, 9)))
    code, out, err = cli("span-entropy", "--graph", str(p), *scope)
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == (
        "prefixcast span-entropy: graph has 4782969 spanning trees, over the "
        f"enumeration budget of {graphs.TREE_BUDGET}\n"
    )


@pytest.mark.parametrize("fmt_flag", [[], ["--json"]])
@pytest.mark.parametrize("scope", [[], ["--msts-only"]])
@pytest.mark.parametrize("pairs, message", [
    # the matrix-tree count of 0 reports the disconnection
    ("a b\nc d\n", "graph is disconnected; it has no spanning tree"),
    # the vertex guard comes before any count
    ("a b\nc d\ne f\ng h\ni j\n", "10 vertices exceeds the enumeration guard of 9"),
])
def test_span_entropy_disconnected_graph_errors_in_order(pairs, message, scope, fmt_flag, tmp_path):
    p = tmp_path / "split.edges"
    p.write_text(pairs)
    code, out, err = cli("span-entropy", "--graph", str(p), *scope, *fmt_flag)
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == f"prefixcast span-entropy: {message}\n"


@pytest.mark.parametrize("args", [["mst"], ["plan-multicast", "--root", "b"]])
def test_total_weight_overflow_is_one_error(args, tmp_path):
    g = tmp_path / "huge.edges"
    g.write_text("a b 1e308\nb c 1e308\n")
    pmf = tmp_path / "p.pmf"
    pmf.write_text("a 0.5\nc 0.5\n")
    extra = ["--pmf", str(pmf)] if args[0] == "plan-multicast" else []
    code, out, err = cli(*args, "--graph", str(g), *extra)
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == f"prefixcast {args[0]}: the total weight overflows a float\n"


def test_msts_only_skips_trees_whose_weight_overflows(tmp_path):
    # the path a-b-c-d is the one MST; every other tree takes a 1e308 edge,
    # and those with both sum past the largest float
    p = tmp_path / "heavy.edges"
    p.write_text("a b 1\nb c 1\nc d 1\na c 1e308\nb d 1e308\n")
    code, out, err = cli("span-entropy", "--graph", str(p), "--msts-only", "--json")
    assert code == 0 and err == ""
    path = graphs.graph_entropy(graphs.path_graph(4))
    result = json.loads(out)["result"]
    assert result["min_entropy_bits"] == result["max_entropy_bits"] == path


@pytest.mark.parametrize("edges, tree", [
    # the star at c is the one exact MST; a tree with one 1e16+2 edge weighs
    # 3e16 + 2, which a float sum rounds to the star's 3e16
    ("c x 1e16\nc y 1e16\nc z 1e16\nx y 10000000000000002\ny z 10000000000000002\n",
     graphs.star_graph(3)),
    # both MSTs are paths of 3 vertices, although their weights sum past the
    # largest float
    ("a b 1e308\nb c 1.7e308\na c 1.7e308\n", graphs.path_graph(3)),
], ids=["sum-rounds-to-the-minimum", "minimum-sum-overflows"])
def test_msts_only_keeps_exactly_the_minimum_trees(edges, tree, tmp_path):
    p = tmp_path / "g.edges"
    p.write_text(edges)
    h = graphs.graph_entropy(tree)
    code, out, err = cli("span-entropy", "--graph", str(p), "--msts-only")
    assert code == 0 and err == ""
    assert f"min_entropy_bits {fmt(h)}\nmax_entropy_bits {fmt(h)}\n" in out
    code, out, err = cli("span-entropy", "--graph", str(p), "--msts-only", "--json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["min_entropy_bits"] == result["max_entropy_bits"] == h


# --------------------------------------------------- hierarchy / multicast


def test_assign_leaders_output(tmp_path):
    pmf = tmp_path / "p.pmf"
    pmf.write_text("x 0.5\ny 0.25\nz 0.25\n")
    code, out, _ = cli("assign-leaders", "--pmf", str(pmf))
    assert code == 0
    assert "x 0 1 0.5" in out
    assert "expected_depth 1.5" in out
    assert "entropy_bound 1.5" in out
    assert "secure true" in out


def test_assign_leaders_nonbinary_notes_node_count_formula(tmp_path):
    pmf = tmp_path / "p.pmf"
    pmf.write_text("x 0.5\ny 0.25\nz 0.25\n")
    code, out, _ = cli("assign-leaders", "--pmf", str(pmf), "--D", "3")
    assert code == 0
    assert "geometric series" in out


def test_plan_multicast_success_with_audit(tmp_path):
    g = tmp_path / "g.edges"
    g.write_text("A B 1\nA C 1\nC D 1\nC E 1\nB D 9\n")
    pmf = tmp_path / "p.pmf"
    pmf.write_text("x 0.5\ny 0.25\nz 0.25\n")
    code, out, _ = cli(
        "plan-multicast", "--graph", str(g), "--root", "A",
        "--pmf", str(pmf), "--audit",
    )
    assert code == 0
    assert "mst_weight 4" in out
    assert "x 0 A->B" in out
    assert "audit_ok true" in out


def test_plan_multicast_capacity_exceeded(square, tmp_path):
    pmf = tmp_path / "p.pmf"
    pmf.write_text("x 0.5\ny 0.25\nz 0.25\n")
    code, _, err = cli("plan-multicast", "--graph", square, "--root", "A", "--pmf", str(pmf))
    assert code == VALIDATION_EXIT
    assert "cannot host" in err


STAR14 = "".join(f"h s{i} 1\n" for i in range(14))
PMF13 = "".join(f"L{i} {1 / 13!r}\n" for i in range(13))
PATH10 = "".join(f"v{i} v{i + 1} 1\n" for i in range(9))


@pytest.mark.parametrize(
    "edges, root, pmf, flags, path, leader",
    [
        ("A B 1\nB C 2\nC A 3\n", "A", "X 0.5\nY 0.5\n", ["--D", "2"], "1", "Y"),
        ("A B 1\nB C 2\nC A 3\n", "A", "X 0.5\nY 0.5\n", ["--D", "2", "--relax"], "01", "Y"),
        # at D >= 11 a digit-path is written dotted, by the _path_text of every table
        (STAR14, "h", PMF13, ["--D", "11"], "10.0", "L0"),
        # depth 9 against codewords 0, 10, 11: the last shift tried is 7 zeros
        (PATH10, "v0", "X 0.5\nY 0.25\nZ 0.25\n", ["--D", "2", "--relax"], "000000010", "Y"),
        # depth 4 against codewords 0, 10, 11: the zero run ends at the leaf a
        # after one zero, and the last shift tried is 2 zeros
        (
            "r a 1\nr b 2\nb c 1\nc d 1\nd e 1\n", "r", "x .5\ny .25\nz .25\n",
            ["--D", "2", "--relax"], "000", "x",
        ),
    ],
    ids=["triangle", "triangle-relax", "star-D11", "path-relax-deep", "zero-run-ends-early"],
)
def test_plan_multicast_capacity_error_names_path_and_leader(
    tmp_path, edges, root, pmf, flags, path, leader
):
    g = tmp_path / "g.edges"
    g.write_text(edges)
    p = tmp_path / "p.pmf"
    p.write_text(pmf)
    code, out, err = cli(
        "plan-multicast", "--graph", str(g), "--root", root, "--pmf", str(p), *flags
    )
    assert (code, out) == (VALIDATION_EXIT, "")
    assert err == (
        f"prefixcast plan-multicast: no tree node at digit-path {path!r} for leader "
        f"{leader!r}; the embedded tree cannot host this placement at arity {flags[1]}\n"
    )


def test_reliability_exact_values():
    code, out, _ = cli("reliability", "--q", "0.1", "--depth", "2")
    assert code == 0
    assert "path_reliability 0.81" in out
    assert "last_link_failure 0.09" in out


# ------------------------------------------------------- levels / sectors


def test_levels_line(line3):
    code, out, _ = cli("levels", "--graph", line3, "--bs", "BS")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert "BS 0" in body and "A 1" in body and "B 2" in body
    assert "max_level 2" in out


def test_sectors_quadrants(tmp_path):
    pos = tmp_path / "pos.txt"
    pos.write_text("BS 0 0\nE 1 0\nN 0 1\nW -1 0\nS 0 -1\n")
    code, out, _ = cli("sectors", "--positions", str(pos), "--bs", "BS", "--K", "4")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    for expect in ("BS 0", "E 0", "N 1", "W 2", "S 3"):
        assert expect in body


# ----------------------------------------------------------------- gossip


def test_gossip_requires_seed(line3):
    code, _, _ = cli(
        "gossip", "--graph", line3, "--bs", "BS",
        "--levels-probs", "1.0,0.5", "--trials", "10",
    )
    assert code == USAGE_EXIT


def test_gossip_rejects_nonmonotone_without_flag(line3):
    code, _, err = cli(
        "gossip", "--graph", line3, "--bs", "BS",
        "--levels-probs", "0.5,0.5", "--trials", "10", "--seed", "1",
    )
    assert code == VALIDATION_EXIT
    assert "decreasing" in err


def test_gossip_flooding_boundary(line3):
    code, out, _ = cli(
        "gossip", "--graph", line3, "--bs", "BS", "--levels-probs", "1,1",
        "--q", "0", "--trials", "64", "--seed", "5", "--allow-nonmonotone",
    )
    assert code == 0
    assert "delivery_ratio 1" in out
    assert "allow_nonmonotone true" in out


def test_gossip_default_source_is_deepest_vertex(line3):
    _, out, _ = cli(
        "gossip", "--graph", line3, "--bs", "BS",
        "--levels-probs", "1.0,0.5", "--q", "0", "--trials", "5", "--seed", "1",
    )
    assert "source B" in out
    assert "source_level 2" in out


def test_gossip_explicit_source_overrides(line3):
    _, out, _ = cli(
        "gossip", "--graph", line3, "--bs", "BS", "--source", "A",
        "--levels-probs", "1.0,0.5", "--q", "0", "--trials", "5", "--seed", "1",
    )
    assert "source A" in out
    assert "source_level 1" in out


def test_gossip_trial_log_row_per_trial_and_matching_summary(line3):
    code, out, _ = cli(
        "gossip", "--graph", line3, "--bs", "BS",
        "--levels-probs", "1.0,0.5", "--q", "0.2", "--trials", "40",
        "--seed", "9", "--trial-log",
    )
    assert code == 0
    rows = [l.split() for l in out.splitlines() if l.startswith("trial ")]
    assert len(rows) == 40
    delivered = sum(int(r[2]) for r in rows)
    assert f"delivered {delivered}" in out


def test_gossip_trial_log_agrees_with_summary_mode(line3):
    args = (
        "gossip", "--graph", line3, "--bs", "BS", "--levels-probs", "1.0,0.5",
        "--q", "0.2", "--trials", "40", "--seed", "9",
    )
    _, plain, _ = cli(*args)
    _, logged, _ = cli(*args, "--trial-log")
    tail = lambda o: [
        l for l in o.splitlines()
        if l.split()[0] in {"delivered", "delivery_ratio", "mean_transmissions", "mean_hops"}
    ]
    assert tail(plain) == tail(logged)


def test_gossip_reruns_byte_identical(line3):
    argv = [
        sys.executable, "-m", "prefixcast.cli", "gossip", "--graph", line3,
        "--bs", "BS", "--levels-probs", "1.0,0.5", "--q", "0.3",
        "--trials", "500", "--seed", "42",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# ------------------------------------------------------------------- fuse


def test_fuse_worked_example(tmp_path):
    iv = tmp_path / "iv.txt"
    iv.write_text("8 12\n11 13\n14 15\n")
    code, out, _ = cli("fuse", "--intervals", str(iv), "--f", "1", "--function", "compare")
    assert code == 0
    assert "m [11, 12] width 1" in out
    assert "s [11, 13] width 2" in out
    assert "m_within_s true" in out


def test_fuse_omega_breakpoints(tmp_path):
    iv = tmp_path / "iv.txt"
    iv.write_text("8 12\n11 13\n14 15\n")
    code, out, _ = cli("fuse", "--intervals", str(iv), "--f", "1", "--function", "omega")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert "11 2" in body and "12 2" in body and "14 1" in body


def test_fuse_inconsistent_s_rendering(tmp_path):
    iv = tmp_path / "iv.txt"
    iv.write_text("0 1\n10 11\n20 21\n")
    code, out, _ = cli("fuse", "--intervals", str(iv), "--f", "0", "--function", "s")
    assert code == 0
    assert "s inconsistent a=20 b=1" in out


def test_fuse_empty_m_rendering(tmp_path):
    iv = tmp_path / "iv.txt"
    iv.write_text("0 1\n10 11\n20 21\n")
    code, out, _ = cli("fuse", "--intervals", str(iv), "--f", "0", "--function", "m")
    assert code == 0
    assert "m empty" in out


def test_fuse_json_carries_null_for_empty_and_key_order(tmp_path):
    iv = tmp_path / "iv.txt"
    iv.write_text("0 1\n10 11\n20 21\n")
    code, out, _ = cli(
        "fuse", "--intervals", str(iv), "--f", "0", "--function", "compare", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["m"] is None
    assert doc["result"]["s"] == {"inconsistent": True, "a": 20.0, "b": 1.0}
    assert list(doc) == ["manifest", "result"]
    assert list(doc["manifest"])[:3] == ["tool", "version", "subcommand"]


# ------------------------------------------------------------------- json


def test_json_mode_parses_and_reruns_identically(square):
    code, out1, _ = cli("mst", "--graph", square, "--json")
    assert code == 0
    _, out2, _ = cli("mst", "--graph", square, "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["total_weight"] == 4.0
    assert [e["weight"] for e in doc["result"]["edges"]] == [1.0, 1.0, 2.0]
