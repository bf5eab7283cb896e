"""Fuzzed command lines: subcommands, generator specs and numeric flags drawn
at small sizes never end in an internal error (exit 1).

The one legitimate exit 1 is ``verify`` reporting a failed suite; on the
drawn graphs that can only be the connectivity gate of a disconnected graph.
Kept apart from test_cli.py so that the CLI tests do not need hypothesis.
"""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from leadergame.cli import main  # noqa: E402

COMMANDS = (
    "gen", "outcome", "nash", "security", "se-set", "tau", "simulate", "verify",
    "reconstruct-example2",
)

SIZES = st.integers(-1, 7)

SPECS = st.one_of(
    st.builds(
        "{}:{}".format,
        st.sampled_from(["path", "cycle", "star", "complete"]),
        SIZES,
    ),
    st.builds(
        lambda n, offsets: f"circulant:{n}:{','.join(map(str, offsets))}",
        SIZES,
        st.lists(st.integers(-1, 4), max_size=3),
    ),
    st.sampled_from(["path", "path:", "path:x", "path:3:1", "circulant:5", "circulant:5:1,x"]),
)

VERTEX_LISTS = st.one_of(
    st.lists(st.integers(-1, 8), max_size=3).map(lambda vs: ",".join(map(str, vs))),
    st.just("1,x"),
)

STATES = st.sampled_from(
    ["-1", "1", "0", "1/2", "-3/7", "x", "nan", "inf", "1/0", "1e400", "-1e307"]
)

FLOATS = st.sampled_from(["0", "-0.1", "0.01", "0.3", "0.5", "2", "nan", "inf"])


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(COMMANDS))
    if cmd == "reconstruct-example2":
        return [cmd, f"--tol={draw(st.sampled_from(['nan', '-1', '0', '5e-05', 'inf']))}"]
    argv = [cmd, "--graph", draw(SPECS)]
    if cmd in ("outcome", "nash", "security", "verify"):
        argv.append(f"--k={draw(st.integers(-1, 4))}")
    if cmd in ("outcome", "nash", "security") and draw(st.booleans()):
        argv.append(f"--cap={draw(st.integers(-1, 40))}")
    if cmd == "outcome":
        argv.append(f"--format={draw(st.sampled_from(['json', 'csv']))}")
        argv.append(f"--precision={draw(st.integers(-2, 25))}")
    if cmd == "verify":
        argv.append(f"--seed={draw(st.integers(-1, 3))}")
    if cmd == "simulate":
        argv += [f"--b={draw(VERTEX_LISTS)}", f"--d={draw(VERTEX_LISTS)}"]
        argv += [f"--y0={draw(STATES)}", f"--y1={draw(STATES)}"]
        if draw(st.booleans()):
            argv.append(f"--dt={draw(FLOATS)}")
        argv.append(f"--t-end={draw(st.sampled_from(['0', '-1', '0.5', '3', 'nan', 'inf']))}")
        argv.append(f"--tol={draw(FLOATS)}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_drawn_argv_never_exits_one(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error" not in err.getvalue()
    if code == 1:
        assert argv[0] == "verify" and "FAIL connectivity-gate" in out.getvalue()
    else:
        assert code in (0, 2)
