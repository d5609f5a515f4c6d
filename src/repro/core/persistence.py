"""Persistence of installation bundles (paper Fig. 1: saved config + model).

The paper's installer writes two artefacts per routine: a preprocessing
configuration file and the trained, production-ready model.  Here the bundle
is written to a directory containing

* ``bundle.json`` — the *manifest*: schema version, bundle version, platform
  name, installer settings and per-routine metadata (winning model name,
  candidate thread counts, preprocessing config, selection summary, plus a
  SHA-256 checksum of the serialized model),
* ``<routine>.model.pkl`` — the pickled fitted model for each routine.

The split mirrors the paper's design: the JSON config is human-readable and
library-agnostic, the model file is opaque.

Manifest schema
---------------
``schema_version`` is the on-disk format revision (currently
:data:`SCHEMA_VERSION`); ``bundle_version`` is a user-chosen monotonically
increasing version of the *contents*, which the serving-layer
:class:`~repro.serving.registry.ModelRegistry` uses to keep several bundle
versions of one platform side by side.  Schema history:

* **1** — the original seed format (``format_version`` key, no checksums).
  Still loadable; missing optional keys (``selection``, ``dataset``,
  ``test_shapes``, ``settings``) fall back to empty defaults.
* **2** — adds ``schema_version``, ``bundle_version`` and a per-routine
  ``checksum`` over the model file, verified before unpickling.
* **3** — adds per-routine ``plugin`` provenance (name/version/source of the
  :class:`~repro.routines.plugin.RoutinePlugin` that provided the routine).
  Loading a bundle whose plugin is not registered in the current process
  fails with a :class:`BundleFormatError` naming the missing plugin; v1/v2
  bundles (builtin BLAS routines only) still load, and ``adsala bundle
  migrate`` stamps the provenance in place.
* **4** — adds a per-routine ``target``: what the pickled model predicts,
  ``"relative"`` (log-runtime over the shape's max-thread runtime, what
  every install fits), ``"log"`` (log-seconds, what installs fitted before
  the relative target) or ``"seconds"``.  A ``"relative"`` routine also
  carries its ``level``, the :class:`~repro.core.predictor.LevelHead` that
  puts the model's output back in seconds (``{"names": [...], "coef":
  [...]}``).  A missing target means ``"seconds"``, so v1-v3 bundles load
  and plan exactly as they did; ``adsala bundle migrate`` stamps
  ``"seconds"`` on them.  Any other value is a :class:`BundleFormatError`,
  so a library that predates a target refuses the bundle by name.

Structural problems (unknown schema, missing model file, checksum mismatch,
corrupt pickle) raise :class:`BundleFormatError` with a human-readable
message instead of surfacing a pickle traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict

from repro.core.install import InstallationBundle, RoutineInstallation
from repro.core.dataset import TimingDataset
from repro.core.predictor import TARGETS, LevelHead, ThreadPredictor
from repro.core.selection import CandidateEvaluation, SelectionReport
from repro.machine.platforms import get_platform
from repro.machine.simulator import TimingSimulator
from repro.machine.topology import MachineTopology, apply_calibration
from repro.routines.catalog import UnknownRoutineError, get_catalog

__all__ = [
    "SCHEMA_VERSION",
    "BundleFormatError",
    "save_bundle",
    "load_bundle",
    "read_manifest",
    "write_manifest",
    "write_routine_model",
    "load_routine",
    "verify_bundle",
    "migrate_manifest",
    "manifest_fingerprint",
    "simulator_from_settings",
]

_BUNDLE_FILE = "bundle.json"

#: Current on-disk manifest schema revision.
SCHEMA_VERSION = 4


class BundleFormatError(RuntimeError):
    """A bundle directory is structurally invalid (schema, checksum, pickle)."""


def write_manifest(directory: str | Path, manifest: dict) -> None:
    """Write ``bundle.json`` atomically (temp file + rename).

    A registry may hot-reload the directory at any moment; the rename
    guarantees readers see either the old or the new manifest, never a
    truncated intermediate.  The manifest file is the *switch point* of
    every bundle mutation: writers (installer, :class:`~repro.adaptive.promote.BundlePromoter`)
    stage new model files under fresh names first and only then swap the
    manifest, so a concurrent reload observes a fully consistent bundle on
    either side of the rename.
    """
    directory = Path(directory)
    target = directory / _BUNDLE_FILE
    tmp = target.with_suffix(".json.tmp")
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=2)
    os.replace(tmp, target)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _selection_to_dict(report: SelectionReport) -> dict:
    return {
        "routine": report.routine,
        "platform": report.platform,
        "best_model_name": report.best_model_name,
        "evaluations": [
            {
                "model_name": e.model_name,
                "rmse": e.rmse,
                "normalised_rmse": e.normalised_rmse,
                "eval_time_us": e.eval_time_us,
                "ideal_mean_speedup": e.ideal_mean_speedup,
                "ideal_aggregate_speedup": e.ideal_aggregate_speedup,
                "estimated_mean_speedup": e.estimated_mean_speedup,
                "estimated_aggregate_speedup": e.estimated_aggregate_speedup,
            }
            for e in report.evaluations
        ],
    }


def _selection_from_dict(data: dict) -> SelectionReport:
    return SelectionReport(
        routine=data["routine"],
        platform=data["platform"],
        best_model_name=data["best_model_name"],
        evaluations=[CandidateEvaluation(**e) for e in data["evaluations"]],
    )


def write_routine_model(
    directory: str | Path,
    installation: RoutineInstallation,
    filename: str | None = None,
) -> dict:
    """Pickle one routine's model into ``directory`` and return its manifest meta.

    The model file is written atomically (temp file + rename) under
    ``filename`` (default ``<routine>.model.pkl``); the returned meta dict is
    exactly the per-routine entry :func:`save_bundle` stores in the manifest.
    Promotion writes retrained models under *version-suffixed* filenames so
    the live manifest keeps pointing at untouched files until the manifest
    itself is atomically swapped.
    """
    directory = Path(directory)
    predictor = installation.predictor
    routine = installation.routine
    model_path = directory / (filename or f"{routine}.model.pkl")
    tmp = model_path.with_suffix(model_path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(predictor.model, handle)
    os.replace(tmp, model_path)
    level = {} if predictor.level is None else {"level": predictor.level.to_dict()}
    return {
        "plugin": _routine_provenance(routine),
        "model_file": model_path.name,
        "checksum": f"sha256:{_sha256_file(model_path)}",
        "model_name": predictor.model_name,
        "target": predictor.target,
        **level,
        "candidate_threads": list(predictor.candidate_threads),
        "preprocessing": predictor.pipeline.to_config().to_dict(),
        "selection": _selection_to_dict(installation.selection),
        "dataset": installation.dataset.to_dict(),
        "test_shapes": [dict(s) for s in installation.test_shapes],
    }


def _routine_provenance(routine: str) -> dict:
    """Identity of the catalog plugin providing ``routine`` (schema v3)."""
    return get_catalog().entry_for_key(routine).provenance()


def _require_resolvable(routine: str, meta: dict) -> None:
    """Fail with a clear error when a bundle routine has no plugin."""
    try:
        get_catalog().resolve(routine)
    except UnknownRoutineError as exc:
        plugin = meta.get("plugin") or {}
        if plugin.get("name"):
            raise BundleFormatError(
                f"Bundle routine {routine!r} was installed by plugin "
                f"{plugin['name']!r} (version {plugin.get('version', '?')}, "
                f"source {plugin.get('source', '?')}), which is not registered "
                f"in this process; point ADSALA_PLUGIN_PATH at the plugin "
                f"directory or install the plugin distribution, then reload"
            ) from exc
        raise BundleFormatError(
            f"Bundle routine {routine!r} is not provided by any registered "
            f"routine plugin; register the plugin (ADSALA_PLUGIN_PATH or an "
            f"'adsala.routines' entry point) before loading this bundle"
        ) from exc


def save_bundle(
    bundle: InstallationBundle,
    directory: str | Path,
    bundle_version: int = 1,
) -> Path:
    """Write an installation bundle to ``directory`` and return that path.

    The manifest is written at the current :data:`SCHEMA_VERSION` with a
    SHA-256 checksum per model file; ``bundle_version`` tags the contents so
    a registry can distinguish successive installs of the same platform.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    routines_meta: Dict[str, dict] = {
        routine: write_routine_model(directory, installation)
        for routine, installation in bundle.routines.items()
    }

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "bundle_version": int(bundle_version),
        "platform": bundle.platform.name,
        "settings": bundle.settings,
        "candidate_names": list(bundle.candidate_names),
        "routines": routines_meta,
    }
    write_manifest(directory, manifest)
    return directory


def manifest_schema_version(manifest: dict) -> int:
    """Schema revision of a parsed manifest (v1 used ``format_version``)."""
    return int(manifest.get("schema_version", manifest.get("format_version", 1)))


def read_manifest(directory: str | Path) -> dict:
    """Parse and validate ``bundle.json`` without touching any model file.

    Raises
    ------
    FileNotFoundError
        If the directory holds no manifest.
    BundleFormatError
        If the manifest is not valid JSON, lacks the required keys, or was
        written by a *newer* schema than this library understands.
    """
    directory = Path(directory)
    manifest_path = directory / _BUNDLE_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"No {_BUNDLE_FILE} found in {directory}")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "routines" not in manifest or "platform" not in manifest:
        raise BundleFormatError(
            f"{manifest_path} is missing required keys ('platform', 'routines')"
        )
    schema = manifest_schema_version(manifest)
    if schema > SCHEMA_VERSION:
        raise BundleFormatError(
            f"{manifest_path} uses schema version {schema}, but this library "
            f"only understands up to {SCHEMA_VERSION}; upgrade the library "
            f"(or re-install the bundle) instead of unpickling blindly"
        )
    return manifest


def manifest_fingerprint(directory: str | Path) -> str:
    """SHA-256 of the raw manifest bytes — cheap change detection.

    The serving registry polls this to hot-reload a bundle directory:
    any re-install rewrites ``bundle.json`` (checksums change with the
    models), so the fingerprint changes with the content.
    """
    return _sha256_file(Path(directory) / _BUNDLE_FILE)


def simulator_from_settings(
    platform: MachineTopology, settings: dict
) -> TimingSimulator:
    """Rebuild a bundle's timing simulator from its manifest settings.

    Shared by :func:`load_bundle` and the serving registry so the two ways
    of opening a bundle agree on the seed/noise defaults.

    When the settings carry a ``calibration`` mapping (stamped by the
    adaptive layer's :class:`~repro.adaptive.promote.BundlePromoter` after a
    drift-triggered promotion), the named platform is rescaled through
    :func:`repro.machine.topology.apply_calibration` before the simulator is
    built — the bundle then predicts with the machine as it measures *now*,
    not as it measured at install time.
    """
    calibrated = apply_calibration(platform, settings.get("calibration") or {})
    return TimingSimulator(
        calibrated,
        seed=int(settings.get("seed", 0)),
        noise_level=float(settings.get("noise_level", 0.04)),
    )


def load_routine(
    directory: str | Path,
    routine: str,
    meta: dict,
    platform: MachineTopology,
    verify_checksum: bool = True,
) -> RoutineInstallation:
    """Load one routine's model + metadata into a :class:`RoutineInstallation`.

    Verifies the manifest checksum over the model file *before* unpickling
    (when the manifest carries one) and converts low-level failures into
    :class:`BundleFormatError`.  Optional metadata keys missing from older
    (schema v1) bundles fall back to empty defaults.
    """
    from repro.preprocessing.pipeline import PreprocessingPipeline

    _require_resolvable(routine, meta)
    directory = Path(directory)
    model_file = meta.get("model_file", f"{routine}.model.pkl")
    model_path = directory / model_file
    if not model_path.exists():
        raise BundleFormatError(
            f"Bundle {directory} lists {model_file!r} for routine {routine!r} "
            f"but the file does not exist"
        )
    checksum = meta.get("checksum")
    if verify_checksum and checksum:
        algo, _, expected = str(checksum).partition(":")
        if algo != "sha256" or not expected:
            raise BundleFormatError(
                f"Unsupported checksum format {checksum!r} for routine {routine!r}"
            )
        actual = _sha256_file(model_path)
        if actual != expected:
            raise BundleFormatError(
                f"Checksum mismatch for {model_path}: manifest says "
                f"sha256:{expected[:12]}..., file is sha256:{actual[:12]}... "
                f"— the model file was modified after the bundle was written"
            )
    try:
        with open(model_path, "rb") as handle:
            model = pickle.load(handle)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise BundleFormatError(
            f"Could not unpickle model file {model_path}: {exc}"
        ) from exc

    try:
        pipeline = PreprocessingPipeline.from_config(meta["preprocessing"])
    except KeyError as exc:
        raise BundleFormatError(
            f"Routine {routine!r} metadata is missing required key {exc}"
        ) from exc
    target = meta.get("target", "seconds")  # schema <= 3 fitted seconds
    if target not in TARGETS:
        raise BundleFormatError(
            f"Routine {routine!r} has unknown target {target!r}; this library "
            f"reads {list(TARGETS)}"
        )
    level = None
    if target == "relative":
        try:
            level = LevelHead.from_dict(meta["level"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleFormatError(
                f"Routine {routine!r} has target 'relative' but no valid 'level': {exc!r}"
            ) from exc
    predictor = ThreadPredictor(
        routine=routine,
        pipeline=pipeline,
        model=model,
        candidate_threads=meta.get(
            "candidate_threads", platform.candidate_thread_counts()
        ),
        model_name=meta.get("model_name", "unknown"),
        target=target,
        level=level,
    )
    if "selection" in meta:
        selection = _selection_from_dict(meta["selection"])
    else:
        selection = SelectionReport(
            routine=routine,
            platform=platform.name,
            best_model_name=predictor.model_name,
        )
    if "dataset" in meta:
        dataset = TimingDataset.from_dict(meta["dataset"])
    else:
        dataset = TimingDataset(
            routine=routine, platform=platform.name, dims=[], threads=[], times=[]
        )
    return RoutineInstallation(
        routine=routine,
        predictor=predictor,
        selection=selection,
        dataset=dataset,
        test_shapes=[dict(s) for s in meta.get("test_shapes", [])],
    )


def load_bundle(directory: str | Path, verify_checksums: bool = True) -> InstallationBundle:
    """Load a bundle previously written by :func:`save_bundle`.

    Accepts both the current schema and older revisions (see the module
    docstring); structural problems raise :class:`BundleFormatError`.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    platform = get_platform(manifest["platform"])
    settings = manifest.get("settings", {}) or {}
    bundle = InstallationBundle(
        platform=platform,
        simulator=simulator_from_settings(platform, settings),
        candidate_names=list(manifest.get("candidate_names", [])),
        settings=settings,
    )
    for routine, meta in manifest["routines"].items():
        bundle.routines[routine] = load_routine(
            directory, routine, meta, platform, verify_checksum=verify_checksums
        )
    return bundle


def verify_bundle(directory: str | Path) -> dict:
    """Check a bundle's manifest and model files without unpickling anything.

    Returns a report dict::

        {"directory": ..., "schema_version": int, "bundle_version": int,
         "platform": str, "ok": bool,
         "routines": {routine: "ok" | "missing file" | "no checksum"
                               | "checksum mismatch" | "unknown plugin"}}
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    statuses: Dict[str, str] = {}
    for routine, meta in manifest["routines"].items():
        try:
            get_catalog().resolve(routine)
        except UnknownRoutineError:
            statuses[routine] = "unknown plugin"
            continue
        model_path = directory / meta.get("model_file", f"{routine}.model.pkl")
        if not model_path.exists():
            statuses[routine] = "missing file"
            continue
        checksum = meta.get("checksum")
        if not checksum:
            statuses[routine] = "no checksum"
            continue
        algo, _, expected = str(checksum).partition(":")
        if algo != "sha256" or not expected:
            # load_routine would refuse this entry too; "ok" here would let
            # verification pass on a bundle that cannot be loaded.
            statuses[routine] = "unsupported checksum"
        elif _sha256_file(model_path) == expected:
            statuses[routine] = "ok"
        else:
            statuses[routine] = "checksum mismatch"
    return {
        "directory": str(directory),
        "schema_version": manifest_schema_version(manifest),
        "bundle_version": int(manifest.get("bundle_version", 1)),
        "platform": manifest["platform"],
        "ok": all(status == "ok" for status in statuses.values()),
        "routines": statuses,
    }


def migrate_manifest(directory: str | Path) -> dict:
    """Upgrade an on-disk manifest in place to the current schema.

    Computes the missing per-routine checksums from the model files, renames
    the legacy ``format_version`` key, stamps ``schema_version`` /
    ``bundle_version``, records each routine's plugin provenance from
    the live catalog (schema v3) and stamps ``target: "seconds"`` where the
    key is missing, since models fitted before schema v4 predict seconds.
    A manifest already at the current schema is returned unchanged.
    Returns the (possibly rewritten) manifest.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest_schema_version(manifest) == SCHEMA_VERSION and all(
        meta.get("checksum") and meta.get("plugin") and meta.get("target")
        for meta in manifest["routines"].values()
    ):
        return manifest
    manifest.pop("format_version", None)
    manifest["schema_version"] = SCHEMA_VERSION
    manifest.setdefault("bundle_version", 1)
    for routine, meta in manifest["routines"].items():
        model_path = directory / meta.get("model_file", f"{routine}.model.pkl")
        if not model_path.exists():
            raise BundleFormatError(
                f"Cannot migrate {directory}: model file for {routine!r} is missing"
            )
        _require_resolvable(routine, meta)
        meta["model_file"] = model_path.name
        meta["checksum"] = f"sha256:{_sha256_file(model_path)}"
        meta.setdefault("plugin", _routine_provenance(routine))
        meta.setdefault("target", "seconds")
    write_manifest(directory, manifest)
    return manifest
