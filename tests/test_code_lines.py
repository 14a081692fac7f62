import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment-only line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return math.prod((self.size,
                          self.size))
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # counted: import, class, size, def, the two-line string assignment,
    # the two-line return
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0


def test_code_lines_total_over_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(tmp_path)]) == 9
    out = capsys.readouterr().out.split("\n")
    assert out[0].split() == ["a.py", "8"]
    assert out[1].split() == ["b.py", "1"]
    assert out[2].split() == ["total", "9"]
