import subprocess
import sys

from code_lines import ROOT, code_lines

FIXTURE = '''\
"""Module docstring,
over two lines."""

# a comment line


class Box:
    """Class docstring."""

    size = 3  # a trailing comment

    def area(self):
        """Method docstring."""
        note = """a string that is
        not a docstring"""
        return (self.size
                * self.size)


async def wait():
    \'\'\'Docstring in single quotes.\'\'\'
    pass
'''


def test_counts_token_lines_outside_comments_and_docstrings():
    # class, size, def, note (two lines), return (two lines), async def, pass
    assert code_lines(FIXTURE) == 9


def test_a_string_that_does_not_open_a_body_is_code():
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines("def f():\n    return '''a\nb'''\n") == 3


def test_the_command_prints_the_total_of_the_files_it_is_given(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    (tmp_path / "c.py").write_text("y = 2\n\n# done\n")
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "code_lines.py"),
                          str(tmp_path / "pkg"), str(tmp_path / "c.py")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "11\n"
