"""Deployment validation: bad knobs fail construction, not mid-replay."""

import pytest

from repro.api import Deployment
from repro.runtime.session import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MIN_CHUNK,
    REPLAY_MODES,
)


def test_defaults_are_valid_and_frozen():
    deployment = Deployment.single()
    assert deployment.replay_mode == "auto"
    assert deployment.batch_size == DEFAULT_BATCH_SIZE
    assert deployment.min_chunk == DEFAULT_MIN_CHUNK
    assert deployment.check_every == 0
    with pytest.raises(AttributeError):
        deployment.check_every = 3


def test_replay_modes_are_auto_event_batch():
    assert REPLAY_MODES == ("auto", "event", "batch")


@pytest.mark.parametrize("mode", REPLAY_MODES)
def test_every_documented_replay_mode_is_accepted(mode):
    assert Deployment.single(replay_mode=mode).replay_mode == mode


@pytest.mark.parametrize("mode", ["fast", "", "AUTO", "batched", "chunked"])
def test_unknown_replay_modes_are_rejected_with_the_choices(mode):
    with pytest.raises(ValueError, match=r"auto.*event.*batch"):
        Deployment.single(replay_mode=mode)


def test_non_string_replay_mode_is_a_type_error():
    with pytest.raises(TypeError, match="replay_mode must be a str"):
        Deployment.single(replay_mode=3)


@pytest.mark.parametrize("batch_size", [0, -1, -4096])
def test_non_positive_batch_sizes_are_rejected(batch_size):
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        Deployment.single(batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [2.5, "64", None, True])
def test_non_int_batch_sizes_are_type_errors(batch_size):
    with pytest.raises(TypeError, match="batch_size must be an int"):
        Deployment.single(batch_size=batch_size)


@pytest.mark.parametrize("min_chunk", [0, -1, -32])
def test_non_positive_min_chunks_are_rejected(min_chunk):
    with pytest.raises(ValueError, match="min_chunk must be >= 1"):
        Deployment.single(min_chunk=min_chunk)


@pytest.mark.parametrize("min_chunk", [2.5, "32", None, True])
def test_non_int_min_chunks_are_type_errors(min_chunk):
    with pytest.raises(TypeError, match="min_chunk must be an int"):
        Deployment.single(min_chunk=min_chunk)


def test_min_chunk_above_batch_size_is_allowed():
    """batch_size caps every scan, so an oversized floor is harmless."""
    deployment = Deployment.single(batch_size=4, min_chunk=64)
    assert deployment.min_chunk == 64


def test_negative_check_every_is_rejected():
    with pytest.raises(ValueError, match="check_every must be >= 0"):
        Deployment.single(check_every=-1)


@pytest.mark.parametrize("check_every", [1.5, "2", True])
def test_non_int_check_every_is_a_type_error(check_every):
    with pytest.raises(TypeError, match="check_every must be an int"):
        Deployment.single(check_every=check_every)


def test_sharded_deployments_validate_the_same_knobs():
    with pytest.raises(TypeError, match="batch_size"):
        Deployment.sharded(2, batch_size="big")
    with pytest.raises(ValueError, match="replay_mode"):
        Deployment.sharded(2, replay_mode="warp")
    with pytest.raises(ValueError, match="min_chunk"):
        Deployment.sharded(2, min_chunk=0)


def test_min_chunk_reaches_the_replay(small_trace):
    """The knob travels from the deployment into the session's replay."""
    from repro.api import Engine
    from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
    from repro.queries.range_query import RangeQuery

    deployment = Deployment.single(
        replay_mode="batch", batch_size=512, min_chunk=8
    )
    assert deployment.batch_size == 512
    assert deployment.min_chunk == 8
    reference = Engine().run_protocol(
        small_trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
    )
    report = Engine().run_protocol(
        small_trace,
        ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
        deployment=deployment,
    )
    assert report.ledger == reference.ledger
