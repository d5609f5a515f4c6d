"""Generated-input tests for the intake digest: no request changes shard.

The frontend routes a request by ``RequestForm.digest`` — its validated
values filled into the routine's template of ``repr((key, dims_key))`` —
instead of hashing that repr per request.  For every builtin routine key, a
one-dimension plugin routine and a plugin whose dimension names need
quoting and ``%`` escaping, with dims passed as ints, NumPy ints and floats
that ``int()`` accepts, hypothesis checks that

* ``parts`` answers what ``dims_from_args`` plus ``sorted`` answered: plain
  ``int`` values in ``dim_names`` order and the sorted ``dims_key``;
* the digest is ``zlib.crc32(repr((key, dims_key)).encode())``, so
  ``digest % n`` is ``shard_index(key, dims_key, n)`` for every shard count;
* ``request_digest`` (observations, quarantine reroutes) agrees with intake.
"""

import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routines import build_catalog, make_routine_spec
from repro.serving.shard import request_digest, shard_index


def _plugin_spec(name, dims):
    return make_routine_spec(
        name,
        dims,
        [("A", dims if len(dims) > 1 else (dims[0], "1"), "regular")],
        flops=lambda d: float(np.prod(list(d.values()))),
        measure=lambda platform, prec, d, t: np.asarray(t, dtype=float),
    )


CATALOG = build_catalog()
CATALOG.register_spec(_plugin_spec("line", ("len",)), plugin_name="one-dim")
CATALOG.register_spec(_plugin_spec("odd", ("q'%s", "p%d", 'r"')), plugin_name="quoting")
KEYS = sorted(CATALOG.keys())
BUILTIN_KEYS = set(build_catalog().keys())

#: How a caller may pass a dimension ``value``: every one ``int()`` maps back to it.
SPELLINGS = {
    "int": int,
    "int64": np.int64,
    "int32": np.int32,
    "float": float,
    "float + 0.25": lambda value: value + 0.25,
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_intake_digest_is_the_crc_of_the_repr(data):
    key = data.draw(st.sampled_from(KEYS), label="key")
    form = CATALOG.request_form(key)
    names = form.spec.dim_names
    values = [data.draw(st.integers(1, 2**31 - 1), label=name) for name in names]
    kinds = [data.draw(st.sampled_from(sorted(SPELLINGS)), label="spelling") for _ in names]
    dims = {name: SPELLINGS[kind](value) for name, kind, value in zip(names, kinds, values)}

    normalized, dims_key, ordered = form.parts(dims)

    assert list(normalized.items()) == list(zip(names, values))
    assert {type(value) for value in normalized.values()} == {int}
    assert dims_key == tuple(sorted(normalized.items()))
    assert ordered == tuple(value for _, value in dims_key)
    digest = form.digest(ordered)
    assert digest == zlib.crc32(repr((key, dims_key)).encode("utf-8"))
    for n_shards in (1, 2, 3, 4, 7):
        assert digest % n_shards == shard_index(key, dims_key, n_shards)
    if key in BUILTIN_KEYS:  # the process-wide catalog holds only the builtins here
        assert request_digest(key, dims) == digest
