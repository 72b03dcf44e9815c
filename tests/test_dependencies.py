"""semlog has no runtime dependencies: every module imports only the
standard library and semlog itself.  numpy or another third-party package
may be installed where the tests run, so an import of one would pass every
other test."""

import ast
import sys
from pathlib import Path

import semlog

PACKAGE = Path(semlog.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library_and_semlog():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 7
    allowed = sys.stdlib_module_names | {"semlog"}
    foreign = {
        str(path.relative_to(PACKAGE)): sorted(imported_modules(path) - allowed)
        for path in sources
    }
    assert {path: names for path, names in foreign.items() if names} == {}


def test_a_third_party_import_is_caught(tmp_path):
    source = tmp_path / "stray.py"
    source.write_text("import json\nfrom . import solver\n\ndef f():\n    import numpy.linalg\n")
    assert imported_modules(source) == {"json", "numpy"}
