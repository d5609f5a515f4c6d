"""Fingerprint every model the end-to-end benchmark's install fits.

Runs the benchmark's installation (``benchmarks/e2e/harness.py``: its
``PLATFORM``, ``ROUTINES`` and ``INSTALL`` literals, BLAS held to one
thread) with whichever ``repro`` is on ``PYTHONPATH``, saves the bundle, and
prints one JSON document:

* ``candidates`` — per routine and candidate model, the SHA-256 of every
  tree node array it holds (``feature``, ``threshold``, ``left``,
  ``right``, ``value`` and the depth of each ``FlatTree``), or of its
  pickle when it holds no trees;
* ``selected`` — the winning model per routine;
* ``bundle`` — the SHA-256 of every file ``save_bundle`` writes.

Two fits are bit-identical exactly when their digests are equal, so a change
to a grower is checked against the commit before it with::

    PYTHONPATH=<parent checkout>/src python benchmarks/install_fingerprint.py > parent.json
    PYTHONPATH=src python benchmarks/install_fingerprint.py > change.json
    python benchmarks/install_fingerprint.py --compare parent.json change.json

``--compare`` prints every entry that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import pickle
import sys
import tempfile
from pathlib import Path

HARNESS = Path(__file__).resolve().parent / "e2e" / "harness.py"


def harness_literals() -> dict:
    """``PLATFORM``, ``ROUTINES`` and ``INSTALL`` read from the harness source
    (importing it would put its own checkout's ``src`` first on the path)."""
    wanted = {"PLATFORM", "ROUTINES", "INSTALL"}
    found = {}
    for node in ast.parse(HARNESS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                found[name] = literal(node.value)
    missing = wanted - set(found)
    if missing:
        raise SystemExit(f"{HARNESS} no longer assigns {sorted(missing)} as literals")
    return found


def literal(node):
    """A literal, or a ``dict(key=literal, ...)`` call."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict" and not node.args:
        return {keyword.arg: ast.literal_eval(keyword.value) for keyword in node.keywords}
    return ast.literal_eval(node)


def flat_trees(model) -> list:
    """Every ``FlatTree`` a fitted model holds, in fit order."""
    if hasattr(model, "flat_tree_"):
        return [model.flat_tree_]
    trees = []
    for estimator in getattr(model, "estimators_", []):
        flat = getattr(estimator, "flat_tree_", None) or getattr(estimator, "flat_", None)
        if flat is not None:
            trees.append(flat)
    return trees


def model_digest(model) -> dict:
    trees = flat_trees(model)
    digest = hashlib.sha256()
    if not trees:
        digest.update(pickle.dumps(model))
        return {"pickle": digest.hexdigest()}
    for flat in trees:
        for name in ("feature", "threshold", "left", "right", "value"):
            array = getattr(flat, name)
            digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())
        digest.update(f"depth:{flat.depth}".encode())
    return {"trees": len(trees), "nodes": digest.hexdigest()}


def fingerprint() -> dict:
    literals = harness_literals()
    from repro.core.install import install_adsala
    from repro.core.persistence import save_bundle
    from repro.machine.platforms import get_platform

    bundle = install_adsala(
        get_platform(literals["PLATFORM"]), routines=literals["ROUTINES"], **literals["INSTALL"]
    )
    candidates = {
        routine: {
            name: model_digest(model)
            for name, model in installation.selection._fitted_models.items()
        }
        for routine, installation in sorted(bundle.routines.items())
    }
    with tempfile.TemporaryDirectory() as directory:
        save_bundle(bundle, directory)
        files = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())
        }
    return {"candidates": candidates, "selected": bundle.best_models(), "bundle": files}


def compare(a: dict, b: dict) -> list:
    """``(path, left, right)`` for every leaf entry that differs."""
    differences = []

    def walk(path, left, right):
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                walk(path + [key], left.get(key), right.get(key))
        elif left != right:
            differences.append(("/".join(path), left, right))

    walk([], a, b)
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        differences = compare(a, b)
        for path, left, right in differences:
            print(f"{path}: {left} != {right}")
        n_models = sum(len(models) for models in a["candidates"].values())
        print(f"{len(differences)} differences over {n_models} candidates and {len(a['bundle'])} bundle files")
        return 1 if differences else 0
    json.dump(fingerprint(), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    # NumPy reads the BLAS thread count when it loads: pin it first, as the
    # benchmark does.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
