"""scripts/code_lines.py, the count that simplicity is reported in, on a
small package whose every line's count is known."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# Each module's source and its count: only the lines marked "# counts"
# hold code.  Docstrings, other bare strings, comments and blank lines
# count nothing; a call or string that spans lines counts each line.
MODULES = {
    "a_docs.py": (
        '"""A module docstring\n'
        "over two lines.\"\"\"\n"
        "\n"
        "# a comment line\n"
        "\n"
        "\n"
        "def f(x):  # counts\n"
        '    """A function docstring."""\n'
        '    "a bare string"\n'
        '    """another bare string,\n'
        '    over two lines"""\n'
        "    return g(  # counts\n"
        "        x,  # counts\n"
        "\n"
        "        1,  # counts\n"
        "    )  # counts\n",
        5,
    ),
    "b_strings.py": (
        'y = """a string that is not bare,  # counts\n'
        'spans three lines  # counts\n'
        'and counts each"""  # counts\n'
        "z = (y,  # counts\n"
        "     # a comment inside the call\n"
        "     y)  # counts\n",
        5,
    ),
    "c_empty.py": ('"""Nothing but a docstring."""\n', 0),
}


def test_code_lines_counts_only_code(tmp_path):
    for name, (source, _) in MODULES.items():
        (tmp_path / name).write_text(source)
    (tmp_path / "notes.txt").write_text("not a module\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    expected = [f"{count:6d}  {name}" for name, (_, count) in MODULES.items()]
    expected.append(f"{sum(count for _, count in MODULES.values()):6d}  total")
    assert out.splitlines() == expected
