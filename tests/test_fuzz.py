"""Random and mutated input files: each parser raises only its documented
errors, and the command line answers every file with exit status 0, 1 or 2
(2 with one `error:` line on stderr), never a traceback or exit 3.

Valid files are small (at most eight vertices or items), and a mutation
adds at most two characters at a time; an example whose numbers would
declare a graph of more than a few thousand vertices that is still accepted
is skipped, so none allocates a large graph.
"""
import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threshknap import cli
from threshknap.graphs import CapacityError, GraphFormatError, parse_graph
from threshknap.knapsack import InstanceFormatError, parse_instance
from threshknap.kthreshold import CoverFormatError, parse_cover
from threshknap.threshold import SequenceFormatError, parse_sequence

ERRORS = {
    parse_graph: (GraphFormatError, CapacityError),
    parse_sequence: (SequenceFormatError,),
    parse_cover: (CoverFormatError,),
    parse_instance: (InstanceFormatError,),
}

# characters the formats are made of, plus a few they are not
ALPHABET = "0123456789 \n\t-+/.#ekpvx01{}[]:,\"e_"


@st.composite
def sequence_texts(draw, n=None):
    n = n or draw(st.integers(1, 8))
    bits = "1" + "".join(draw(st.lists(st.sampled_from("01"), min_size=n - 1, max_size=n - 1)))
    vmap = draw(st.permutations(range(1, n + 1)))
    return f"{bits}\nv {' '.join(map(str, vmap))}\n"


@st.composite
def graph_texts(draw, n=None):
    n = draw(st.integers(0, 6)) if n is None else n
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return "".join([f"p {n} {len(edges)}\n", *(f"e {u} {v}\n" for u, v in edges)])


@st.composite
def cover_texts(draw):
    n = draw(st.integers(0, 6))  # no sequence has 0 vertices: a mismatch
    k = draw(st.integers(1, 3))
    blocks = [draw(st.one_of(sequence_texts(n), graph_texts(n))) for _ in range(k)]
    return f"k {k}\n" + "".join(blocks)


@st.composite
def instance_texts(draw):
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 3))
    number = st.integers(0, 12).map(str) | st.sampled_from(["1/2", "3/4", "0.5", "7/3"])
    sizes = [[draw(number) for _ in range(d)] for _ in range(n)]
    caps = [draw(number) for _ in range(d)]
    items = [{"id": f"a{j + 1}", "profit": draw(number)} for j in range(n)]
    if d == 1 and draw(st.booleans()):
        for item, row in zip(items, sizes):
            item["size"] = row[0]
        return json.dumps({"capacity": caps[0], "items": items})
    for item, row in zip(items, sizes):
        item["sizes"] = row
    return json.dumps({"capacities": caps, "items": items})


@st.composite
def mutated(draw, valid):
    """A valid file, then up to three edits: a deleted span, one or two
    inserted characters, a repeated or dropped line, or a cut."""
    text = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "repeat", "drop", "cut"]))
        if edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
        elif edit == "insert":
            text = text[:at] + draw(st.text(ALPHABET, min_size=1, max_size=2)) + text[at:]
        elif edit in ("repeat", "drop"):
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [lines[i]] * (2 if edit == "repeat" else 0)
            text = "\n".join(lines)
        else:
            text = text[:at]
    return text


def modest(text):
    """No number in the text is a vertex count that would build a large
    graph, yet still be accepted (eight digits are above MAX_VERTICES)."""
    return all(len(x) > 7 or int(x) <= 5000 for x in re.findall(r"\d+", text))


def long_literal(digits):
    """An instance whose profit is a JSON integer of that many digits,
    around the interpreter's default limit for integer strings."""
    return '{"capacity": "1", "items": [{"id": "a", "profit": %s, "size": "1"}]}' % ("7" * digits)


ANY_TEXT = st.text(ALPHABET, max_size=40) | st.text(max_size=20)
FILES = st.one_of(
    ANY_TEXT,
    st.integers(4290, 4310).map(long_literal),
    st.sampled_from(["p 0 0\n", "k 1\np 0 0\n", "k 2\n1\np 0 0\n", "p 10000000000000 0\n"]),
    mutated(graph_texts()),
    mutated(sequence_texts()),
    mutated(cover_texts()),
    mutated(instance_texts()),
)


@given(FILES)
@settings(max_examples=1500, deadline=None)
def test_parsers_raise_only_their_documented_errors(text):
    assume(modest(text))
    for parse, errors in ERRORS.items():
        try:
            parse(text)
        except errors:
            pass


@pytest.fixture(scope="module")
def path():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "input")


# `enumerate is` is left out: its family is exponential by design, and a
# random bit string of length 24 is inside its guard
COMMANDS = [
    ["recognize"],
    ["recognize", "--split", "--witness"],
    ["enumerate", "mis"],
    ["enumerate", "mc", "--count-only"],
    ["enumerate", "im"],
    ["check"],
    ["solve"],
    ["bound", "bp"],
    ["bound", "dvp"],
    ["bound", "dbp"],
]


@given(FILES)
@settings(max_examples=400, deadline=None)
def test_cli_answers_every_file_with_0_1_or_2(path, text):
    assume(modest(text))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + [path])
        assert code in (0, 1, 2), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
