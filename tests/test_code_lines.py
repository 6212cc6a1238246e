"""tests/data/code_lines.py, which counts the code lines of each module of
the package: docstrings, comments and blank lines do not count."""
import importlib.util
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", DATA / "code_lines.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SOURCE = '''"""A module docstring
over two lines."""

# a comment
def f(x):
    """A function docstring."""
    return (x +
            1)
'''


def test_only_code_lines_count(tmp_path, capsys):
    tool = _tool()
    assert tool.code_lines(SOURCE) == 3
    (tmp_path / "m.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text("")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["empty.py 0", "m.py 3", "total 3"]


def test_every_package_module_is_counted(capsys):
    tool = _tool()
    assert tool.main([]) == 0
    rows = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    names = sorted(path.name for path in tool.SRC.glob("*.py"))
    assert [row[0] for row in rows] == names + ["total"]
    assert int(rows[-1][1]) == sum(int(row[1]) for row in rows[:-1]) > 0
