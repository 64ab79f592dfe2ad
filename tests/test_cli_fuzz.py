"""The command line, fuzzed in-process: whatever the input file holds,
main returns 0, 2, 3 or 4 and raises nothing.

Three kinds of input: random bytes, graph6 lines, and edge lists (random
edges on at most 9 vertices, including loops and out-of-range ends, or up
to 10**6 vertices with no edges).  --brute on is left out: an admitted
brute run on 7 vertices takes seconds, which is work, not a fault.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koszulity.cli import main
from koszulity.graphs import build_graph, to_graph6

EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

options = st.tuples(
    st.sampled_from(["2", "3", "5", "7", "97", "1", "9", "101"]),
    st.sampled_from(["auto", "off"]),
    st.none() | st.integers(-2, 5000),
)


def run_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


def check_commands(data: bytes, formats, opts) -> None:
    p, brute, dual = opts
    dual_args = [] if dual is None else [f"--dual-order={dual}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        argvs = []
        if "graph6" in formats:
            argvs.append(["census", "--in", path, "-p", p, *dual_args])
        for fmt in formats:
            given_fmt = ["-i", path, "--format", fmt, "-p", p]
            argvs.append(["analyze", *given_fmt, "--brute", brute, *dual_args])
            argvs.append(["witness", *given_fmt])
        for argv in argvs:
            assert run_main(argv) in EXIT_CODES, argv


@st.composite
def small_graphs(draw, n=None):
    n = draw(st.integers(0, 9)) if n is None else n
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 9))
    edges = list(draw(small_graphs(n)).edges)
    if draw(st.booleans()):  # one loop or out-of-range end
        ends = st.integers(-1, n)
        edges.insert(draw(st.integers(0, len(edges))), draw(st.tuples(ends, ends)))
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@FUZZ
@given(st.binary(max_size=64), options)
def test_random_bytes(data, opts):
    check_commands(data, ("edgelist", "graph6"), opts)


@FUZZ
@given(st.lists(small_graphs(), min_size=1, max_size=3), options)
def test_graph6_lines(graphs, opts):
    text = "".join(to_graph6(g) + "\n" for g in graphs)
    check_commands(text.encode("ascii"), ("graph6",), opts)


@FUZZ
@given(edge_lists() | st.integers(0, 10**6).map(lambda n: f"{n}\n"), options)
def test_edge_lists(text, opts):
    check_commands(text.encode("ascii"), ("edgelist",), opts)
