"""tools/src_lines.py gives every line exactly one kind.  The tool is loaded
from its file."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring.

Its second paragraph."""
import math  # a trailing comment leaves a code line

# a comment line
TEXT = """a string that is not a docstring

ends here"""


def f():
    """One line."""
    return math.pi
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_kind_on_a_known_source(src_lines):
    assert src_lines.count_lines(SOURCE) == {"code": 5, "docstring": 3, "comment": 1, "blank": 5}


def test_counts_partition_every_package_file(src_lines):
    for path in sorted((ROOT / "src" / "postgrasp").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert sum(src_lines.count_lines(source).values()) == len(source.splitlines()), path.name
