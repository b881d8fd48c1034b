import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
over three
lines"""
        return (os.sep,
                text)
'''


def test_counts_code_lines_only():
    """Docstrings, comments and blank lines do not count; every line of a
    multi-line expression or of a string that is not a docstring does."""
    # import, class, def, the three string lines, the two return lines
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["9", "total"]
