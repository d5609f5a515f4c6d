"""The routine catalog: every routine the reproduction can serve.

:class:`RoutineCatalog` maps base routine names to specs plus the identity
of the plugin that provided them.  The process-wide catalog built by
:func:`get_catalog` aggregates three discovery sources, in order:

1. **built-ins** — the BLAS-12 of the paper, re-homed as
   :class:`~repro.routines.builtin.BuiltinBlasPlugin`;
2. **plugin directories** — every ``*.py`` file in the directories listed
   in the ``ADSALA_PLUGIN_PATH`` environment variable (``os.pathsep``
   separated), loaded without being importable by name;
3. **entry points** — installed distributions advertising the
   ``adsala.routines`` entry-point group.

``parse_routine`` / ``routine_dims`` / key listings across the codebase are
thin queries against this catalog, so a routine registered here is
immediately usable by the sampler, gatherer, installer, simulator, serving
engine and CLI.  A plugin file that fails to load is skipped with a warning
(and recorded in :attr:`RoutineCatalog.load_errors`) rather than taking the
whole catalog down; name collisions, however, are hard errors.
"""

from __future__ import annotations

import os
import threading
import warnings
import zlib
from dataclasses import dataclass
from importlib import metadata as importlib_metadata
from importlib import util as importlib_util
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.routines.builtin import BuiltinBlasPlugin
from repro.routines.plugin import RoutinePlugin, SpecListPlugin
from repro.routines.spec import PRECISIONS, RoutineSpec

__all__ = [
    "UnknownRoutineError",
    "CatalogEntry",
    "RequestForm",
    "RoutineCatalog",
    "get_catalog",
    "reset_catalog",
    "ENTRY_POINT_GROUP",
    "PLUGIN_PATH_ENV",
]

ENTRY_POINT_GROUP = "adsala.routines"
PLUGIN_PATH_ENV = "ADSALA_PLUGIN_PATH"


class UnknownRoutineError(KeyError):
    """A routine key no registered plugin provides.

    Subclasses :class:`KeyError` for backward compatibility with the
    pre-catalog ``parse_routine``; carries the offending key and the
    registered catalog keys for structured handling (serving rejections,
    CLI messages).
    """

    def __init__(self, routine: str, known_keys: Sequence[str]):
        self.routine = routine
        self.known_keys = tuple(known_keys)
        super().__init__(
            f"Unknown BLAS routine or plugin key {routine!r}; registered "
            f"routine keys: {list(self.known_keys)} (or a base name without "
            f"the precision prefix)"
        )


@dataclass(frozen=True)
class CatalogEntry:
    """One registered base routine and the plugin identity behind it."""

    spec: RoutineSpec
    plugin_name: str
    plugin_version: str
    source: str  # "builtin", "directory", "entry-point" or "runtime"

    @property
    def base(self) -> str:
        return self.spec.name

    @property
    def has_simulator(self) -> bool:
        return self.spec.has_simulator

    def keys(self) -> List[str]:
        """Precision-qualified routine keys of this entry."""
        return [prefix + self.spec.name for prefix in self.spec.precisions]

    def provenance(self) -> Dict[str, str]:
        """The plugin identity dict recorded in bundle manifests."""
        return {
            "name": self.plugin_name,
            "version": self.plugin_version,
            "source": self.source,
        }


class _Value:
    """Marks one dimension value's place while a form's digest text is built."""

    def __repr__(self) -> str:
        return "\0"  # never in the repr of a str, which escapes it


class RequestForm:
    """How the requests for one routine key are taken in, one pass each.

    ``parts(dims)`` validates a dimension mapping into what the serving
    layers key on: the dims dict (in ``spec.dim_names`` order), the sorted
    ``dims_key`` and the values in that sorted order.  Anything but exact
    positive ``int`` values under exactly the spec's names goes through
    ``spec.dims_from_args``, the one source of validation errors and of the
    ``int()`` rule, and its answer through the same pass again.  For
    ``dgemm`` (dims ``m, k, n``) the function generated below reads::

        def parts(dims):
            v0 = dims.get('m'); v1 = dims.get('k'); v2 = dims.get('n')
            if len(dims) == 3 and v0.__class__ is int and v0 > 0 and ...:
                return ({'m': v0, 'k': v1, 'n': v2},
                        (('k', v1), ('m', v0), ('n', v2)), (v1, v0, v2))
            return parts(spec.dims_from_args(**dims))

    It is generated rather than a loop over the names because it is the
    frontend's whole intake: a loop costs 1.2-1.6 us per dgemm request
    against 0.5 us, and ``hot_stream`` read 309.6 against 330.1 plans/spin
    (medians, ten alternating runs each on a 2-core host).

    :meth:`digest` is the CRC-32 of ``repr((key, dims_key))``, the text
    :func:`~repro.serving.shard.shard_index` hashes, with the sorted values
    filled into a ``%d`` template of that text instead of built by ``repr``.
    """

    __slots__ = ("key", "spec", "parts", "_text")

    def __init__(self, key: str, spec: RoutineSpec):
        self.key = key
        self.spec = spec
        names = tuple(dict.fromkeys(spec.dim_names))
        order = sorted(names)
        # Names enter the source only as repr() literals, values only as locals.
        local = {name: f"v{i}" for i, name in enumerate(names)}
        fetch = "; ".join(f"{local[n]} = dims.get({n!r})" for n in names)
        plain = " and ".join(f"{v}.__class__ is int and {v} > 0" for v in local.values())
        normalized = ", ".join(f"{n!r}: {local[n]}" for n in names)
        dims_key = "".join(f"({n!r}, {local[n]}), " for n in order)
        ordered = "".join(f"{local[n]}, " for n in order)
        source = (
            "def parts(dims):\n"
            f"    {fetch}\n"
            f"    if len(dims) == {len(names)} and {plain}:\n"
            f"        return {{{normalized}}}, ({dims_key}), ({ordered})\n"
            "    return parts(spec.dims_from_args(**dims))\n"
        )
        namespace = {"spec": spec}
        exec(source, namespace)
        self.parts = namespace["parts"]
        # repr() writes the template itself (quoting, the one-dim trailing
        # comma); each value's place is marked by a character no repr'd name
        # holds, then becomes %d once any % in the names is escaped.
        text = repr((key, tuple((name, _Value()) for name in order)))
        self._text = text.replace("%", "%%").replace("\0", "%d").encode("utf-8")

    def digest(self, ordered: tuple) -> int:
        """``zlib.crc32(repr((key, dims_key)).encode("utf-8"))`` of the
        request whose sorted values ``parts`` returned."""
        return zlib.crc32(self._text % ordered)


class RoutineCatalog:
    """Ordered registry of routine specs keyed by base name."""

    def __init__(self):
        self._entries: Dict[str, CatalogEntry] = {}
        #: Successful :meth:`resolve` answers per spelling, filled on use and
        #: dropped by every registration.  Failures are never kept, so the
        #: memo is bounded by the case variants of registered names.
        self._resolved: Dict[str, Tuple[str, str, RoutineSpec]] = {}
        #: :class:`RequestForm` per routine key :meth:`resolve` answered,
        #: filled on use and dropped with the resolution memo.
        self._forms: Dict[str, RequestForm] = {}
        self._lock = threading.Lock()
        #: (origin, message) pairs for plugin files/entry points that failed
        #: to load and were skipped.
        self.load_errors: List[Tuple[str, str]] = []

    # -- registration ----------------------------------------------------------
    def register_plugin(
        self, plugin: RoutinePlugin, source: str = "runtime"
    ) -> List[str]:
        """Register every spec of a plugin; returns the new base names."""
        specs = list(plugin.routine_specs())
        if not specs:
            raise ValueError(f"Plugin {plugin.name!r} provides no routine specs")
        registered = []
        for spec in specs:
            self.register_spec(
                spec,
                plugin_name=str(plugin.name),
                plugin_version=str(plugin.version),
                source=source,
            )
            registered.append(spec.name)
        return registered

    def register_spec(
        self,
        spec: RoutineSpec,
        plugin_name: str,
        plugin_version: str = "0",
        source: str = "runtime",
    ) -> CatalogEntry:
        """Register one spec under a plugin identity (collisions are errors)."""
        if not isinstance(spec, RoutineSpec):
            raise TypeError(f"Expected a RoutineSpec, got {type(spec).__name__}")
        base = spec.name
        if not base or base != base.lower() or not base.isidentifier():
            raise ValueError(
                f"Routine base name {base!r} must be a lowercase identifier"
            )
        with self._lock:
            taken = self._all_names_locked()
            new_names = [base] + [p + base for p in spec.precisions]
            for name in new_names:
                if name in taken:
                    owner = self._owner_of_locked(name)
                    raise ValueError(
                        f"Routine name {name!r} from plugin {plugin_name!r} "
                        f"collides with {owner}"
                    )
            entry = CatalogEntry(
                spec=spec,
                plugin_name=plugin_name,
                plugin_version=plugin_version,
                source=source,
            )
            self._entries[base] = entry
            self._resolved.clear()
            self._forms.clear()
        return entry

    def _all_names_locked(self) -> set:
        names = set()
        for entry in self._entries.values():
            names.add(entry.base)
            names.update(entry.keys())
        return names

    def _owner_of_locked(self, name: str) -> str:
        for entry in self._entries.values():
            if name == entry.base or name in entry.keys():
                return (
                    f"routine {entry.base!r} of plugin {entry.plugin_name!r} "
                    f"({entry.source})"
                )
        return "an existing registration"

    # -- discovery -------------------------------------------------------------
    def load_directory(self, directory: str | Path) -> List[str]:
        """Load every ``*.py`` plugin file in a directory.

        Each file is executed as an anonymous module and may provide a
        ``register(catalog)`` function, a ``PLUGIN`` object, a ``PLUGINS``
        iterable or a ``ROUTINES`` spec list (with optional
        ``PLUGIN_NAME`` / ``PLUGIN_VERSION``).  Returns the base names
        registered; files that fail to execute are skipped with a warning.
        """
        directory = Path(directory)
        if not directory.is_dir():
            self._record_error(str(directory), "not a directory")
            return []
        registered: List[str] = []
        for path in sorted(directory.glob("*.py")):
            if path.name.startswith("_"):
                continue
            try:
                registered.extend(self._load_plugin_file(path))
            except Exception as exc:  # noqa: BLE001 - isolate bad plugin files
                self._record_error(str(path), f"{type(exc).__name__}: {exc}")
        return registered

    def _load_plugin_file(self, path: Path) -> List[str]:
        module_name = f"_adsala_plugin_{path.stem}_{abs(hash(str(path))) & 0xFFFF:x}"
        module_spec = importlib_util.spec_from_file_location(module_name, path)
        if module_spec is None or module_spec.loader is None:
            raise ImportError(f"cannot load plugin file {path}")
        module = importlib_util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return self._register_module(module, default_name=path.stem, source="directory")

    def _register_module(self, module, default_name: str, source: str) -> List[str]:
        register = getattr(module, "register", None)
        if callable(register):
            before = set(self._entries)
            register(self)
            return [base for base in self._entries if base not in before]
        plugins: List[RoutinePlugin] = []
        plugin = getattr(module, "PLUGIN", None)
        if plugin is not None:
            plugins.append(self._as_plugin(plugin))
        for candidate in getattr(module, "PLUGINS", ()):
            plugins.append(self._as_plugin(candidate))
        specs = list(getattr(module, "ROUTINES", ()))
        if specs:
            plugins.append(
                SpecListPlugin(
                    name=getattr(module, "PLUGIN_NAME", default_name),
                    specs=specs,
                    version=str(getattr(module, "PLUGIN_VERSION", "0")),
                )
            )
        if not plugins:
            raise ValueError(
                "plugin module defines none of register()/PLUGIN/PLUGINS/ROUTINES"
            )
        registered: List[str] = []
        for item in plugins:
            registered.extend(self.register_plugin(item, source=source))
        return registered

    @staticmethod
    def _as_plugin(candidate) -> RoutinePlugin:
        if isinstance(candidate, type):
            candidate = candidate()
        if not isinstance(candidate, RoutinePlugin):
            raise TypeError(
                f"Expected a RoutinePlugin, got {type(candidate).__name__}"
            )
        return candidate

    def load_entry_points(self, group: str = ENTRY_POINT_GROUP) -> List[str]:
        """Register plugins advertised through ``importlib.metadata``."""
        registered: List[str] = []
        try:
            entry_points = importlib_metadata.entry_points(group=group)
        except Exception as exc:  # pragma: no cover - environment dependent
            self._record_error(f"entry-points:{group}", str(exc))
            return registered
        for entry_point in entry_points:
            try:
                loaded = entry_point.load()
                if isinstance(loaded, (RoutinePlugin, type)):
                    plugin = self._as_plugin(loaded)
                elif callable(loaded):
                    plugin = self._as_plugin(loaded())
                else:
                    registered.extend(
                        self._register_module(
                            loaded, default_name=entry_point.name, source="entry-point"
                        )
                    )
                    continue
                registered.extend(self.register_plugin(plugin, source="entry-point"))
            except Exception as exc:  # noqa: BLE001 - isolate bad entry points
                self._record_error(
                    f"entry-point:{entry_point.name}",
                    f"{type(exc).__name__}: {exc}",
                )
        return registered

    def _record_error(self, origin: str, message: str) -> None:
        self.load_errors.append((origin, message))
        warnings.warn(
            f"Skipping routine plugin {origin}: {message}",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- queries ---------------------------------------------------------------
    def __contains__(self, base: str) -> bool:
        return base in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def bases(self) -> List[str]:
        """Registered base names in registration order."""
        return list(self._entries)

    def keys(self) -> List[str]:
        """All precision-qualified routine keys in registration order."""
        keys: List[str] = []
        for entry in self._entries.values():
            keys.extend(entry.keys())
        return keys

    def entries(self) -> List[CatalogEntry]:
        return list(self._entries.values())

    def entry(self, base: str) -> CatalogEntry:
        try:
            return self._entries[base]
        except KeyError:
            raise UnknownRoutineError(base, self.keys()) from None

    def entry_for_key(self, routine: str) -> CatalogEntry:
        """The entry behind a routine key (precision prefix allowed)."""
        _, base, _ = self.resolve(routine)
        return self._entries[base]

    def resolve(self, routine: str) -> Tuple[str, str, RoutineSpec]:
        """Split ``"dgemm"`` into ``("d", "gemm", spec)``.

        A bare base name defaults to double precision when the routine
        supports it, else to its first declared precision.
        """
        try:
            return self._resolved[routine]
        except (KeyError, TypeError):  # first use of this spelling, or unhashable
            pass
        key = str(routine).lower()
        entry = self._entries.get(key)
        if entry is not None:
            prefix = "d" if "d" in entry.spec.precisions else entry.spec.precisions[0]
            resolved = (prefix, key, entry.spec)
        else:
            prefix, base = key[:1], key[1:]
            entry = self._entries.get(base)
            if (
                entry is None
                or prefix not in PRECISIONS
                or prefix not in entry.spec.precisions
            ):
                raise UnknownRoutineError(routine, self.keys())
            resolved = (prefix, base, entry.spec)
        if routine.__class__ is str:
            self._resolved[routine] = resolved
        return resolved

    def request_form(self, routine: str) -> RequestForm:
        """The :class:`RequestForm` of the key ``routine`` resolves to
        (one :meth:`resolve`), built on first use and kept beside the
        resolution memo."""
        prefix, base, spec = self.resolve(routine)
        key = prefix + base
        try:
            return self._forms[key]
        except KeyError:
            form = self._forms[key] = RequestForm(key, spec)
            return form


# -- the process-wide catalog --------------------------------------------------
_global_lock = threading.Lock()
_global_catalog: Optional[RoutineCatalog] = None


def _env_plugin_dirs() -> Iterable[str]:
    raw = os.environ.get(PLUGIN_PATH_ENV, "")
    for part in raw.split(os.pathsep):
        part = part.strip()
        if part:
            yield part


def build_catalog(
    plugin_dirs: Optional[Sequence[str]] = None, entry_points: bool = True
) -> RoutineCatalog:
    """A fresh catalog with built-ins plus the requested discovery sources."""
    catalog = RoutineCatalog()
    catalog.register_plugin(BuiltinBlasPlugin(), source="builtin")
    dirs = list(_env_plugin_dirs()) if plugin_dirs is None else list(plugin_dirs)
    for directory in dirs:
        catalog.load_directory(directory)
    if entry_points:
        catalog.load_entry_points()
    return catalog


def get_catalog() -> RoutineCatalog:
    """The process-wide catalog, built on first use.

    Discovery (``ADSALA_PLUGIN_PATH`` directories, ``adsala.routines``
    entry points) runs once; call :func:`reset_catalog` to force a rescan
    (tests, or after changing the environment).
    """
    global _global_catalog
    catalog = _global_catalog
    if catalog is None:
        with _global_lock:
            catalog = _global_catalog
            if catalog is None:
                catalog = build_catalog()
                _global_catalog = catalog
    return catalog


def reset_catalog() -> None:
    """Drop the process-wide catalog so the next use rebuilds it."""
    global _global_catalog
    with _global_lock:
        _global_catalog = None
