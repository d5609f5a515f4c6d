"""Every ``repro`` name the end-to-end benchmark reaches for still exists.

``benchmarks/e2e/harness.py`` and ``layers.py`` import from ``src`` at module
level, inside the layer probes and inside code strings they run in fresh
interpreters.  A probe whose import fails nulls its metrics rather than
stopping the run, so a renamed or deleted name shows up only in a traced
benchmark run.  This test reads the two files without running them: every
``from repro... import name`` must resolve, and every attribute read off a
name bound that way (``_native.library_path``) must exist.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
FILES = ("harness.py", "layers.py")

_IMPORT_LINE = re.compile(r"^\s*(from\s+repro[\w.]*\s+import\s+.+|import\s+repro[\w.]*.*)$")


def _string_sources(tree):
    """Text of every string constant, f-string pieces included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _bindings(tree):
    """``(local name, module, imported name)`` per ``repro`` import of ``tree``;
    ``imported name`` is None for ``import repro...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield alias.asname or alias.name, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.asname or alias.name.split(".")[0], alias.name, None


def _uses(path):
    """The imports and the ``name.attribute`` reads of one benchmark file,
    in its own code and in the code strings it runs."""
    tree = ast.parse(path.read_text())
    bindings = list(_bindings(tree))
    attributes = [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    ]
    code_lines = [line for text in _string_sources(tree) for line in text.splitlines()]
    for line in code_lines:
        if _IMPORT_LINE.match(line):
            bindings.extend(_bindings(ast.parse(line.strip())))
    string_names = {local for local, _, _ in bindings}
    for line in code_lines:
        if not _IMPORT_LINE.match(line):
            attributes.extend(re.findall(r"\b(\w+)\.(\w+)\b", line))
    return bindings, [(name, attr) for name, attr in attributes if name in string_names]


def _resolve(module, name):
    target = importlib.import_module(module)
    if name is None:
        return importlib.import_module(module.split(".")[0])
    if hasattr(target, name):
        return getattr(target, name)
    return importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("filename", FILES)
def test_every_imported_name_resolves(filename):
    bindings, attributes = _uses(E2E / filename)
    assert bindings, f"no repro import found in {filename}"
    bound = {}
    missing = []
    for local, module, name in bindings:
        try:
            bound[local] = _resolve(module, name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"from {module} import {name}: {exc}")
    for local, attr in attributes:
        if local in bound and not hasattr(bound[local], attr):
            missing.append(f"{local}.{attr}")
    assert not missing, f"{filename} reaches for names src no longer has: {missing}"


def test_the_probed_names_are_read():
    """The guard sees the names the probes are known to need."""
    seen = set()
    for filename in FILES:
        bindings, attributes = _uses(E2E / filename)
        seen |= {name for _, _, name in bindings} | {attr for _, attr in attributes}
    assert {
        "parse_routine",
        "reference_mode",
        "compile_model_kernel",
        "FeatureGridWriter",
        "SHARD_BACKENDS",
        "load_kernels",
        "library_path",
    } <= seen


def test_both_shard_backends_exist():
    from repro.serving.frontend import SHARD_BACKENDS

    assert {"thread", "process"} <= set(SHARD_BACKENDS)
