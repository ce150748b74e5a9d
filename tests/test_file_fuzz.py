"""Loader fuzzing: damaged `.mlpd`, `.fmpl` and `.traj` files must either load
or raise MalformedFileError, never any other exception.  The pool and the
trajectory file hold three records each, so damage can also make one record
disagree with the others.  Undamaged checkpoints of another depth must
fail by name on their architecture, and version-1 ones (which have no
depth field) by name on their version.

Each file is damaged one way per example: some bits flipped, a run of bytes
overwritten, or the tail cut off.  Positions are drawn half the time from the
headers, where a damaged field changes how the rest is parsed, and half the
time from the whole file.  The examples are derandomized, so every run
checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famelab import denoiser
from famelab.denoiser import _CKPT_HEADER, MlpDenoiser, load_checkpoint, save_checkpoint
from famelab.errors import MalformedFileError
from famelab.pool import _POOL_HEADER, FailurePool, load_pool, save_pool
from famelab.schedule import _HEADER, load_trajectories, new_trajectories

V1_HEADER_SIZE = _CKPT_HEADER.size - 4

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _records(rng, seeds, class_ids, scores, T=3, d=2):
    r = new_trajectories(len(seeds), T, d)
    r["seed"], r["class_id"], r["score"] = seeds, class_ids, scores
    r["states"] = rng.standard_normal((len(seeds), T + 1, d))
    r["outputs"] = rng.standard_normal((len(seeds), T, d))
    return r


@st.composite
def damaged(draw, blob, hot):
    """blob damaged by flipped bits, overwritten bytes or truncation; `hot`
    is the length of the header region positions favour."""
    where = st.one_of(st.integers(0, hot - 1), st.integers(0, len(blob) - 1))
    kind = draw(st.sampled_from(("flip", "overwrite", "truncate")))
    if kind == "truncate":
        return blob[: draw(where)]
    buf = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(where)
        if kind == "flip":
            buf[i] ^= 1 << draw(st.integers(0, 7))
        else:
            data = draw(st.binary(min_size=1, max_size=8))[: len(buf) - i]
            buf[i : i + len(data)] = data
    return bytes(buf)


def loads_or_malformed(load, path, buf):
    path.write_bytes(buf)
    try:
        load(path)
    except MalformedFileError:
        pass


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    save_checkpoint(MlpDenoiser(2, 2, seed=0), d / "m.mlpd")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(denoiser, "N_HIDDEN", 4)
        save_checkpoint(MlpDenoiser(2, 2, seed=0), d / "deep.mlpd")
    # the same model in the version-1 layout, whose header ended before the
    # final u4, the depth field
    m = (d / "m.mlpd").read_bytes()
    (d / "v1.mlpd").write_bytes(m[:4] + b"\x01\x00" + m[6 : V1_HEADER_SIZE] + m[_CKPT_HEADER.size :])
    records = _records(rng, [10, 11, 12], [1, 1, 2], [0.1, 0.5, 0.2])
    save_pool(FailurePool(records, "per-class", 123, 456), d / "p.fmpl")
    unconditional = _records(rng, [7, 8, 9], [-1] * 3, [0.3, float("nan"), 0.1])
    (d / "t.traj").write_bytes(unconditional.tobytes())
    names = ("m.mlpd", "deep.mlpd", "v1.mlpd", "p.fmpl", "t.traj")
    return {name: (d / name).read_bytes() for name in names}


def test_blobs_load_undamaged(blobs, tmp_path):
    loaders = {"m.mlpd": load_checkpoint, "p.fmpl": load_pool, "t.traj": load_trajectories}
    for name, load in loaders.items():
        (tmp_path / name).write_bytes(blobs[name])
        loaded = load(tmp_path / name)
        if name != "m.mlpd":
            assert len(loaded) == 3


def test_checkpoint_depth_mismatch_names_the_architecture(blobs, tmp_path, monkeypatch):
    """A checkpoint of another depth fails on its architecture, not on its
    body length; a version-1 file fails on its version, even at the depth
    of 3 its models had."""
    path = tmp_path / "x.mlpd"
    path.write_bytes(blobs["deep.mlpd"])
    with pytest.raises(MalformedFileError, match="does not match this build"):
        load_checkpoint(path)
    path.write_bytes(blobs["v1.mlpd"])
    with pytest.raises(MalformedFileError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)
    for depth in (2, 4):
        monkeypatch.setattr(denoiser, "N_HIDDEN", depth)
        path.write_bytes(blobs["m.mlpd"])
        with pytest.raises(MalformedFileError, match="does not match this build"):
            load_checkpoint(path)


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint(blobs, tmp_path, data):
    buf = data.draw(damaged(blobs["m.mlpd"], _CKPT_HEADER.size))
    loads_or_malformed(load_checkpoint, tmp_path / "x.mlpd", buf)


@FUZZ
@given(data=st.data())
def test_damaged_v1_checkpoint(blobs, tmp_path, data):
    buf = data.draw(damaged(blobs["v1.mlpd"], V1_HEADER_SIZE))
    loads_or_malformed(load_checkpoint, tmp_path / "x.mlpd", buf)


@FUZZ
@given(data=st.data())
def test_damaged_pool(blobs, tmp_path, data):
    buf = data.draw(damaged(blobs["p.fmpl"], _POOL_HEADER.size + _HEADER.itemsize))
    loads_or_malformed(load_pool, tmp_path / "x.fmpl", buf)


@FUZZ
@given(data=st.data())
def test_damaged_trajectory(blobs, tmp_path, data):
    buf = data.draw(damaged(blobs["t.traj"], _HEADER.itemsize))
    loads_or_malformed(load_trajectories, tmp_path / "x.traj", buf)
