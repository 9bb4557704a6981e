"""cli.main returns an exit code, never a traceback, on well-formed argv."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ztwo import cli  # noqa: E402


_JSON = st.sampled_from([[], ["--json"]])
_TEXT = st.integers(-10 ** 6, 10 ** 6).map(str)
_SMALL = st.integers(-50, 5000).map(str)
WELL_FORMED_ARGV = st.one_of(
    st.builds(lambda d, j: ["classify", d, *j], _TEXT, _JSON),
    st.builds(lambda d, n, t, j: ["predict", d, "--n", n, "--tower", t, *j],
              _TEXT, st.integers(-3, 10 ** 5).map(str), st.sampled_from(["L", "K", "both"]), _JSON),
    st.builds(lambda D, j: ["classgroup", D, *j], _TEXT, _JSON),
    st.builds(lambda a, n, j: ["symbol", "--jacobi", a, n, *j], _TEXT, _TEXT, _JSON),
    st.builds(lambda a, p, j: ["symbol", "--quartic", a, p, *j], _TEXT, _SMALL, _JSON),
    st.builds(lambda p, j: ["symbol", "--quartic2", p, *j], _SMALL, _JSON),
    st.builds(lambda p: ["witness", "--pell", p], _SMALL),
    st.builds(lambda p, q: ["witness", "--kaplan", p, q], _SMALL, _SMALL),
    st.builds(lambda p, q: ["witness", "--legendre", p, q], _SMALL, _SMALL),
    st.builds(lambda lo, width, fam, fmt: ["scan", "--min", str(lo), "--max", str(lo + width),
                                           *fam, "--format", fmt],
              st.integers(-10, 10 ** 6), st.integers(-3, 30),
              st.sampled_from([[], ["--family", "A2"], ["--family", "B"]]),
              st.sampled_from(["csv", "json"])),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(WELL_FORMED_ARGV)
def test_main_never_raises_on_well_formed_argv(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
