"""The README's library example runs as printed, and the package exports what it lists."""

import contextlib
import io
import re
from pathlib import Path

import noonring

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_stated_fidelities():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    fidelities = [line.split()[1] for line in printed.getvalue().splitlines()]
    assert fidelities == ["0.9963"] * 3   # "# 0.9963 each" in the example


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from noonring import *", namespace)
    assert [name for name in noonring.__all__ if name not in namespace] == []
