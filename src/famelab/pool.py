"""Failure-mode memory.

A pool holds the lowest-scoring candidate trajectories with their cached
per-step conditional denoiser outputs.  During guided sampling each new
trajectory binds one pool record (chosen by hashing the trajectory seed, so
the choice is stable for the trajectory's whole lifetime and costs no random
draws) and replays that record's cached output at every gated step as the
negative direction.  Replaying cached outputs instead of re-running the model
keeps guided inference at the same model-evaluation count as plain CFG.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompatiblePoolError,
    InvalidArgumentError,
    MalformedFileError,
    MalformedPoolError,
    NotFoundError,
    PoolBuildFailedError,
    check_fields,
)
from .sampler import sample_batch
from .schedule import NoiseSchedule, splitmix64, trajectories_from_bytes, trajectory_dtype

POOL_MAGIC = b"FMPL"
POOL_VERSION = 1
POOL_MODES = ("global", "per-class")
# magic, version, mode, n_records, T, d, schedule hash, source hash
_POOL_HEADER = struct.Struct("<4sHBIIIQQ")

# fixed salt separating pool selection from every other use of the seed
_SELECT_SALT = 0xF7A319E5D2C40B61


class FailurePool:
    """Immutable set of failure trajectories plus provenance fingerprints.

    records is a `trajectory_dtype` array, cached outputs included, sorted
    ascending by score (per class, classes ascending, in per-class mode).
    """

    def __init__(self, records, mode, schedule_hash, source_hash):
        if mode not in POOL_MODES:
            raise InvalidArgumentError(f"unknown pool mode {mode!r}")
        records = np.array(records)
        if records.ndim != 1 or len(records) == 0:
            raise InvalidArgumentError("pool needs at least one record")
        if "outputs" not in (records.dtype.names or ()):
            raise InvalidArgumentError("pool records must carry cached denoiser outputs")
        if records.dtype != trajectory_dtype(*records.dtype["outputs"].shape):
            raise InvalidArgumentError("pool records must be packed trajectory records")
        cls, score = records["class_id"], records["score"]
        same_group = np.ones(len(records) - 1, dtype=bool)
        if mode == "per-class":
            if (cls < 0).any():
                raise InvalidArgumentError("per-class pool records must be conditional")
            if (cls[1:] < cls[:-1]).any():
                raise InvalidArgumentError("per-class pool records must be grouped by ascending class")
            same_group = cls[1:] == cls[:-1]
        if (same_group & (score[1:] < score[:-1])).any():
            raise InvalidArgumentError("pool records must be sorted ascending by score")

        records.flags.writeable = False
        self.records = records
        self.mode = mode
        self.schedule_hash = int(schedule_hash)
        self.source_hash = int(source_hash)
        self._outputs = records["outputs"].astype(np.float64)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def T(self) -> int:
        return self.records.dtype["outputs"].shape[0]

    @property
    def dim(self) -> int:
        return self.records.dtype["outputs"].shape[1]

    def check_compatible(self, schedule: NoiseSchedule, dim: int, source_hash: int) -> None:
        if self.T != schedule.T or self.schedule_hash != schedule.fingerprint():
            raise IncompatiblePoolError(
                f"pool was built on a different schedule (T={self.T} vs {schedule.T})"
            )
        if self.dim != dim:
            raise IncompatiblePoolError(f"pool dimension {self.dim} != source dimension {dim}")
        if self.source_hash != source_hash:
            raise IncompatiblePoolError(
                f"pool was built on a different source "
                f"(fingerprint {self.source_hash:#x} vs {source_hash:#x})"
            )

    def select_indices(self, seeds, class_ids=None) -> np.ndarray:
        """Bind one record to each trajectory by hashing its seed.

        Each trajectory draws from a group of records lo:hi, record
        lo + mix % (hi - lo) with mix the seed's salted splitmix64 hash.  In
        global mode the group is the whole pool and classes are ignored; in
        per-class mode it is the run of the trajectory's own class in the
        class-sorted records.  Pure function of (seed, class), so the
        binding is constant for the trajectory's lifetime and identical no
        matter how trajectories are batched.
        """
        mix = splitmix64(np.asarray(seeds, dtype=np.uint64) ^ _SELECT_SALT)
        if self.mode == "global":
            lo, hi = 0, len(self)
        else:
            if class_ids is None:
                raise NotFoundError("per-class pool needs class ids to select from")
            class_ids = np.asarray(class_ids)
            lo = np.searchsorted(self.records["class_id"], class_ids, "left")
            hi = np.searchsorted(self.records["class_id"], class_ids, "right")
            if (lo == hi).any():
                raise NotFoundError(f"pool has no records for class {int(class_ids[lo == hi][0])}")
        return lo + (mix % np.asarray(hi - lo, dtype=np.uint64)).astype(np.int64)

    def replay_outputs(self, indices, step: int) -> np.ndarray:
        """Cached denoiser outputs of the bound records at one step."""
        return self._outputs[np.asarray(indices), step]


@dataclass(frozen=True)
class PoolBuildConfig:
    """How to grow a pool: candidates per class, how many failures to keep
    (total in global mode, per class otherwise), and the build seed."""

    n_candidates_per_class: int
    n_f: int = 8
    mode: str = "global"
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_candidates_per_class < 1:
            raise InvalidArgumentError("n_candidates_per_class must be >= 1")
        if self.n_f < 1:
            raise InvalidArgumentError("n_f must be >= 1")
        if self.mode not in POOL_MODES:
            raise InvalidArgumentError(f"unknown pool mode {self.mode!r}")

    def check_classes(self, n_classes: int) -> None:
        """Raise InvalidArgumentError unless n_classes classes of candidates
        fill the n_f slots: in all in global mode, per class in per-class mode."""
        n_cand = self.n_candidates_per_class * (n_classes if self.mode == "global" else 1)
        if self.n_f > n_cand:
            raise InvalidArgumentError(f"pool n_f={self.n_f} exceeds {n_cand} {self.mode} candidates")


def build_pool(source, sampler_cfg, scorer, build_cfg: PoolBuildConfig, class_ids) -> FailurePool:
    """Sample candidates per class through the given guided source (typically
    plain CFG), score their endpoints, and keep the worst.

    Ranking uses the float32-rounded stored scores with ties broken by
    candidate order, so rebuilding from the same seed gives the same pool
    byte for byte.  Candidates with non-finite scores are excluded; if fewer
    finite candidates remain than requested, the build fails.
    """
    class_ids = [int(c) for c in class_ids]
    if not class_ids:
        raise InvalidArgumentError("need at least one class to build a pool")
    build_cfg.check_classes(len(class_ids))
    n_cand = build_cfg.n_candidates_per_class

    batch = sample_batch(source, sampler_cfg, build_cfg.seed, class_ids, n_cand)
    for b, c in enumerate(class_ids):
        block = batch[b * n_cand : (b + 1) * n_cand]
        finals = block["states"][:, -1].astype(np.float64)
        block["score"] = np.asarray(scorer(finals, c), dtype=np.float64)

    def bottom(lo, hi, k):
        """Batch rows of the k lowest finite scores among rows lo:hi."""
        vals = batch["score"][lo:hi]
        order = np.argsort(vals, kind="stable")  # NaNs sort last
        order = order[np.isfinite(vals[order])]
        if len(order) < k:
            raise PoolBuildFailedError(
                f"only {len(order)} finite-scored candidates for {k} pool slots"
            )
        return lo + order[:k]

    if build_cfg.mode == "global":
        kept = bottom(0, len(batch), build_cfg.n_f)
    else:
        blocks = sorted(range(len(class_ids)), key=lambda b: class_ids[b])
        kept = np.concatenate(
            [bottom(b * n_cand, (b + 1) * n_cand, build_cfg.n_f) for b in blocks]
        )
    return FailurePool(
        batch[kept],
        build_cfg.mode,
        schedule_hash=sampler_cfg.schedule.fingerprint(),
        source_hash=source.fingerprint(),
    )


def save_pool(pool: FailurePool, path) -> None:
    """Write the pool header, then the records exactly as a .traj file holds them."""
    mode_byte = POOL_MODES.index(pool.mode)
    with open(path, "wb") as fh:
        fh.write(
            _POOL_HEADER.pack(
                POOL_MAGIC,
                POOL_VERSION,
                mode_byte,
                len(pool),
                pool.T,
                pool.dim,
                pool.schedule_hash,
                pool.source_hash,
            )
        )
        fh.write(pool.records)


def load_pool(path) -> FailurePool:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _POOL_HEADER.size:
        raise MalformedPoolError("truncated pool header", offset=len(buf))
    magic, version, mode_byte, n, T, d, shash, srchash = _POOL_HEADER.unpack_from(buf)
    if magic != POOL_MAGIC:
        raise MalformedPoolError(f"bad pool magic {magic!r}", offset=0)
    if version != POOL_VERSION:
        raise MalformedPoolError(f"unsupported pool version {version}", offset=4)
    if mode_byte >= len(POOL_MODES):
        raise MalformedPoolError(f"unknown pool mode byte {mode_byte}", offset=6)
    try:
        records = trajectories_from_bytes(buf, _POOL_HEADER.size)
    except MalformedFileError as exc:
        # record-level offsets are already absolute within the file buffer
        err = MalformedPoolError(str(exc))
        err.offset = exc.offset
        raise err from exc
    if len(records) != n:
        raise MalformedPoolError(f"pool header declares {n} records, file holds {len(records)}", offset=7)
    if records.dtype["outputs"].shape != (T, d):
        raise MalformedPoolError(
            f"record shape {records.dtype['outputs'].shape} != pool header ({T}, {d})",
            offset=_POOL_HEADER.size,
        )
    try:
        return FailurePool(records, POOL_MODES[mode_byte], shash, srchash)
    except InvalidArgumentError as exc:
        raise MalformedPoolError(f"pool contents invalid: {exc}") from exc
