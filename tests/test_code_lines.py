import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    no docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def test_counts_only_code_lines():
    # import, class, x (two lines), def, return (two lines)
    assert code_lines.code_lines(SAMPLE) == 7


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["     2  b.py", "     7  pkg/a.py", "     9  total", ""]
