"""The README's library quickstart runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The ```python block under the "Library quickstart" heading."""
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs_as_written():
    test = doctest.DocTestParser().get_doctest(quickstart(), {}, "quickstart", str(README), 0)
    assert len(test.examples) >= 8
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
