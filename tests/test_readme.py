"""README's "Library layout" table lists exactly the package's public names."""

import importlib
import re
from pathlib import Path

import conealg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_layout_lists_exactly_all():
    section = README.read_text().split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for module, contents in re.findall(r"^\| `(conealg\.\w+)` *\|(.*)\|$", section, re.M):
        if module == "conealg.cli":  # the row names the command, not library names
            continue
        for name in re.findall(r"`(\w+)`", contents):
            assert getattr(importlib.import_module(module), name) is getattr(conealg, name)
            listed.append(name)
    assert sorted(listed) == sorted(conealg.__all__)
