"""Every bad input file ends in a clean exit, never a traceback.

Input files are drawn from free text, raw bytes (often not UTF-8) and
lines of tokens chosen to reach deep into the parsers: vertex ids, weights
and probabilities that are negative, non-finite, huge or not numbers at
all. Every file-reading subcommand must exit 0, 2 or 64 and write at most
one line to stderr. Lines are few, so the exhaustive spanning-tree
subcommands stay cheap.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.cli import USAGE_EXIT, VALIDATION_EXIT, run

TOKENS = (
    "a", "b", "c", "d", "1", "2", "0", "-1", "0.5", "0.25", "1e400",
    "nan", "inf", "-inf", "x", "#", "99",
)

lines = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join), max_size=8
).map("\n".join)

contents = st.one_of(
    lines.map(str.encode),
    st.text(max_size=60).map(str.encode),
    st.binary(max_size=40),
)

# F is the fuzzed file; GOOD_* are well-formed companions
COMMANDS = (
    ["huffman", "--pmf", "F"],
    ["huffman", "--pmf", "F", "--D", "3"],
    ["entropy", "--pmf", "F"],
    ["assign-leaders", "--pmf", "F"],
    ["kraft", "--lengths-file", "F"],
    ["code-from-lengths", "--lengths-file", "F", "--D", "3"],
    ["graph-entropy", "--graph", "F", "--tsallis", "2"],
    ["graph-entropy", "--graph", "F", "--digraph"],
    ["graph-entropy", "--graph", "GOOD_GRAPH", "--coloring", "F"],
    ["kl", "--graph", "F", "--graph2", "GOOD_GRAPH"],
    ["kl", "--graph", "GOOD_GRAPH", "--graph2", "GOOD_GRAPH", "--map", "F"],
    ["mst", "--graph", "F"],
    ["span-entropy", "--graph", "F"],
    ["span-entropy", "--graph", "F", "--msts-only"],
    ["plan-multicast", "--graph", "F", "--pmf", "GOOD_PMF", "--root", "a", "--audit"],
    ["plan-multicast", "--graph", "GOOD_GRAPH", "--pmf", "F", "--root", "a", "--audit", "--relax"],
    ["levels", "--graph", "F", "--bs", "a"],
    ["sectors", "--positions", "F", "--bs", "a", "--K", "4"],
    ["gossip", "--graph", "F", "--bs", "a", "--levels-probs", "0.9,0.5",
     "--trials", "3", "--seed", "1"],
    ["fuse", "--intervals", "F", "--f", "1"],
    ["fuse", "--intervals", "F", "--f", "1", "--function", "omega"],
)


@given(argv=st.sampled_from(COMMANDS), data=contents)
@settings(max_examples=300, deadline=None)
def test_malformed_input_files_exit_cleanly(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "F": data,
            "GOOD_GRAPH": b"a b 1\nb c 2\nc a 3\nc d 1\n",
            "GOOD_PMF": b"X 0.6\nY 0.4\n",
        }
        for name, body in files.items():
            Path(tmp, name).write_bytes(body)
        args = [str(Path(tmp, a)) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(args)
    assert code in (0, VALIDATION_EXIT, USAGE_EXIT)
    assert len(err.getvalue().splitlines()) <= 1
