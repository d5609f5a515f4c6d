"""Generated-input tests for the process-shard frame codec.

The framed pipe is the one byte boundary between the serving parent and a
worker process, so it gets the differential treatment: for every routine
key of the live catalog (contrib plugins registered), hypothesis draws
batches of requests, plans and observations and asserts that

* ``encode_requests``/``decode_requests``, ``encode_plans``/``decode_plans``
  and ``encode_observation`` round-trip **bit-exactly** — ids, dims up to
  10⁶, threads, finite and extreme float times, fallback fields, batch
  sizes 1…64;
* every strict prefix of a frame raises (``ValueError`` /
  ``FrameCorruptionError``) instead of decoding into something shorter or
  different;
* every single-byte flip in the 16-byte header changes the ``(kind,
  count)`` pair the receiver checks, and decoding under the flipped count
  raises or answers a different number of items — never a plan under the
  wrong request id.

The decoders are pure functions over a bytes object, so none of this can
block.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runtime import ExecutionPlan
from repro.routines.catalog import build_catalog, get_catalog, reset_catalog
from repro.routines.contrib import register
from repro.serving.engine import PlanRequest, normalize_request
from repro.serving.procshard import (
    KIND_OBSERVE,
    KIND_PLANS,
    KIND_REQUESTS,
    FrameCorruptionError,
    _apply_observation,
    _parse_frame,
    decode_plans,
    decode_requests,
    encode_observation,
    encode_plans,
    encode_requests,
)

MAX_DIM = 10**6
HEADER_BYTES = 16

_listing = build_catalog(plugin_dirs=[], entry_points=False)
register(_listing)
ROUTINE_KEYS = _listing.keys()
DIM_NAMES = {key: tuple(_listing.resolve(key)[2].dim_names) for key in ROUTINE_KEYS}
#: Keys a fallback may substitute: the observation frame spells the plan's
#: dims in the *served* routine's order, so the two must share dim names.
STAND_INS = {
    key: [other for other in ROUTINE_KEYS if DIM_NAMES[other] == DIM_NAMES[key]]
    for key in ROUTINE_KEYS
}

#: What a malformed frame may raise.  ``KeyError`` is the catalog's
#: ``UnknownRoutineError``: a header flip can make the string table read as
#: routine names nobody registered.
MALFORMED = (ValueError, FrameCorruptionError)
MISREAD = MALFORMED + (KeyError,)


@pytest.fixture(scope="module", autouse=True)
def contrib_catalog():
    reset_catalog()
    register(get_catalog())
    yield
    reset_catalog()


routine_keys = st.sampled_from(ROUTINE_KEYS)
request_ids = st.integers(0, 2**62)
dim_values = st.integers(1, MAX_DIM)
times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)
policies = st.one_of(
    st.sampled_from(["installed", "cross-precision", "max-threads"]),
    st.text(
        st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=12,
    ),
)


@st.composite
def plan_requests(draw):
    routine = draw(routine_keys)
    dims = {name: draw(dim_values) for name in DIM_NAMES[routine]}
    request = normalize_request(routine, dims, draw(request_ids))
    assert request.dims == dims  # every catalog key takes plain positive dims
    return request


@st.composite
def answered_batches(draw):
    """``(requests, plans)``: one plan per request, fallbacks included."""
    requests = draw(st.lists(plan_requests(), min_size=1, max_size=64))
    plans = []
    for request in requests:
        served = draw(st.none() | st.sampled_from(STAND_INS[request.routine]))
        plans.append(
            ExecutionPlan(
                routine=served or request.routine,
                dims=request.dims,
                threads=draw(st.integers(1, 4096)),
                predicted_time=draw(times),
                baseline_time=draw(times),
                from_cache=draw(st.booleans()),
                fallback_from=request.routine if served else None,
                policy=draw(policies),
            )
        )
    return requests, plans


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _plan_fields(plan: ExecutionPlan):
    return (
        plan.routine,
        plan.dims,
        plan.threads,
        _bits(plan.predicted_time),
        _bits(plan.baseline_time),
        plan.from_cache,
        plan.fallback_from,
        plan.policy,
    )


def _request_fields(request: PlanRequest):
    return (request.request_id, request.routine, request.dims, request.dims_key)


def _receive_requests(frame: bytes):
    """The worker's side of a requests frame (``_worker_main``)."""
    kind, count, payload = _parse_frame(frame)
    if kind != KIND_REQUESTS:
        raise FrameCorruptionError(f"frame kind {kind}")
    return decode_requests(count, payload)


def _receive_plans(frame: bytes, requests):
    """The parent's side of a reply (``ProcessShard._execute_batch``)."""
    kind, count, payload = _parse_frame(frame)
    if kind != KIND_PLANS:
        raise FrameCorruptionError(f"frame kind {kind}")
    return decode_plans(count, payload, requests)


class _Recorder:
    """Stands in for the engine behind ``_apply_observation``."""

    def record_observation(self, plan, observed_time):
        self.seen = (plan, observed_time)


def _receive_observation(frame: bytes):
    kind, _, payload = _parse_frame(frame)
    if kind != KIND_OBSERVE:
        raise FrameCorruptionError(f"frame kind {kind}")
    recorder = _Recorder()
    _apply_observation(recorder, payload)
    return recorder.seen


def _header_flips(frame: bytes, mask: int):
    for position in range(HEADER_BYTES):
        flipped = bytearray(frame)
        flipped[position] ^= mask
        yield bytes(flipped)


@given(batch=answered_batches())
@settings(max_examples=60, deadline=None)
def test_frames_round_trip_bit_exactly(batch):
    requests, plans = batch
    decoded = _receive_requests(encode_requests(requests))
    assert [_request_fields(r) for r in decoded] == [
        _request_fields(r) for r in requests
    ]
    answered = _receive_plans(encode_plans(plans), decoded)
    assert [_plan_fields(p) for p in answered] == [_plan_fields(p) for p in plans]
    for request, plan in zip(decoded, answered):
        assert plan.dims is request.dims  # rebuilt against the retained dims


@given(batch=answered_batches(), observed=times)
@settings(max_examples=40, deadline=None)
def test_observation_round_trips_bit_exactly(batch, observed):
    _, plans = batch
    plan = plans[0]
    seen, seen_time = _receive_observation(encode_observation(plan, observed))
    assert (seen.routine, seen.dims, seen.threads) == (
        plan.routine, plan.dims, plan.threads
    )
    assert _bits(seen.predicted_time) == _bits(plan.predicted_time)
    assert _bits(seen_time) == _bits(observed)


@given(batch=answered_batches())
@settings(max_examples=15, deadline=None)
def test_every_strict_prefix_of_a_frame_raises(batch):
    requests, plans = batch
    requests, plans = requests[:8], plans[:8]  # keeps the prefix sweep short
    frame = encode_requests(requests)
    for cut in range(len(frame)):
        with pytest.raises(MALFORMED):
            _receive_requests(frame[:cut])
    frame = encode_plans(plans)
    for cut in range(len(frame)):
        with pytest.raises(MALFORMED):
            _receive_plans(frame[:cut], requests)
    frame = encode_observation(plans[0], 1.0)
    for cut in range(len(frame)):
        with pytest.raises(MALFORMED):
            _receive_observation(frame[:cut])


@given(batch=answered_batches(), mask=st.integers(1, 255))
@settings(max_examples=40, deadline=None)
def test_every_header_byte_flip_fails_the_kind_or_count_check(batch, mask):
    requests, plans = batch
    n = len(requests)
    for flipped in _header_flips(encode_requests(requests), mask):
        kind, count, _ = _parse_frame(flipped)
        assert (kind, count) != (KIND_REQUESTS, n)
        try:
            decoded = _receive_requests(flipped)
        except MISREAD:
            continue
        # Decoded under a wrong count: the reply then carries that count,
        # which the parent's decode_plans refuses.
        assert len(decoded) != n
    for flipped in _header_flips(encode_plans(plans), mask):
        kind, count, _ = _parse_frame(flipped)
        assert (kind, count) != (KIND_PLANS, n)
        with pytest.raises(MALFORMED):
            _receive_plans(flipped, requests)
