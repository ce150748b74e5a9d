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
)
from .sampler import sample_batch
from .schedule import (
    NoiseSchedule,
    splitmix64,
    trajectory_from_bytes,
    trajectory_to_bytes,
)

POOL_MAGIC = b"FMPL"
POOL_VERSION = 1
POOL_MODES = ("global", "per-class")
# magic, version, mode, n_records, T, d, schedule hash, source hash
_POOL_HEADER = struct.Struct("<4sHBIIIQQ")

# fixed salt separating pool selection from every other use of the seed
_SELECT_SALT = 0xF7A319E5D2C40B61


class FailurePool:
    """Immutable set of failure trajectories plus provenance fingerprints."""

    def __init__(self, records, mode, schedule_hash, source_hash):
        if mode not in POOL_MODES:
            raise InvalidArgumentError(f"unknown pool mode {mode!r}")
        records = tuple(records)
        if not records:
            raise InvalidArgumentError("pool needs at least one record")
        T, d = records[0].T, records[0].dim
        for r in records:
            if (r.T, r.dim) != (T, d):
                raise InvalidArgumentError("pool records disagree on schedule length or dimension")
            if r.denoiser_outputs is None:
                raise InvalidArgumentError("pool records must carry cached denoiser outputs")
        if mode == "per-class":
            if any(r.class_id is None for r in records):
                raise InvalidArgumentError("per-class pool records must be conditional")
            cls = [r.class_id for r in records]
            groups = [cls[0]]
            for c in cls[1:]:
                if c != groups[-1]:
                    groups.append(c)
            if sorted(set(cls)) != groups:
                raise InvalidArgumentError("per-class pool records must be grouped by ascending class")
            for c in set(cls):
                scores = [r.quality_score for r in records if r.class_id == c]
                if any(a > b for a, b in zip(scores, scores[1:])):
                    raise InvalidArgumentError("pool records must be sorted ascending by score")
        else:
            scores = [r.quality_score for r in records]
            if any(a > b for a, b in zip(scores, scores[1:])):
                raise InvalidArgumentError("pool records must be sorted ascending by score")

        self.records = records
        self.mode = mode
        self.schedule_hash = int(schedule_hash)
        self.source_hash = int(source_hash)
        self._outputs = np.stack([r.denoiser_outputs for r in records]).astype(np.float64)
        self._buckets = {}
        if mode == "per-class":
            for i, r in enumerate(records):
                self._buckets.setdefault(r.class_id, []).append(i)
            self._buckets = {c: np.array(v) for c, v in self._buckets.items()}

    def __len__(self) -> int:
        return len(self.records)

    @property
    def T(self) -> int:
        return self.records[0].T

    @property
    def dim(self) -> int:
        return self.records[0].dim

    def check_compatible(self, schedule: NoiseSchedule, dim: int) -> None:
        if self.T != schedule.T or self.schedule_hash != schedule.fingerprint():
            raise IncompatiblePoolError(
                f"pool was built on a different schedule (T={self.T} vs {schedule.T})"
            )
        if self.dim != dim:
            raise IncompatiblePoolError(f"pool dimension {self.dim} != source dimension {dim}")

    def select_indices(self, seeds, class_ids=None) -> np.ndarray:
        """Bind one record to each trajectory by hashing its seed.

        Global mode ignores classes; per-class mode draws uniformly within
        the trajectory's own class bucket.  Pure function of (seed, class),
        so the binding is constant for the trajectory's lifetime and
        identical no matter how trajectories are batched.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        mix = np.array([splitmix64(int(s) ^ _SELECT_SALT) for s in seeds], dtype=np.uint64)
        if self.mode == "global":
            return (mix % np.uint64(len(self.records))).astype(np.int64)
        if class_ids is None:
            raise NotFoundError("per-class pool needs class ids to select from")
        out = np.empty(len(seeds), dtype=np.int64)
        for i, c in enumerate(np.asarray(class_ids)):
            bucket = self._buckets.get(int(c))
            if bucket is None:
                raise NotFoundError(f"pool has no records for class {int(c)}")
            out[i] = bucket[int(mix[i] % np.uint64(len(bucket)))]
        return out

    def replay_outputs(self, indices, step: int) -> np.ndarray:
        """Cached denoiser outputs of the bound records at one step."""
        return self._outputs[np.asarray(indices), step]

    def __eq__(self, other):
        if not isinstance(other, FailurePool):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.schedule_hash == other.schedule_hash
            and self.source_hash == other.source_hash
            and len(self.records) == len(other.records)
            and all(a == b for a, b in zip(self.records, other.records))
        )


@dataclass(frozen=True)
class PoolBuildConfig:
    """How to grow a pool: candidates per class, how many failures to keep
    (total in global mode, per class otherwise), and the build seed."""

    n_candidates_per_class: int
    n_f: int = 8
    mode: str = "global"
    seed: int = 0

    def __post_init__(self):
        if self.n_candidates_per_class < 1:
            raise InvalidArgumentError("n_candidates_per_class must be >= 1")
        if self.n_f < 1:
            raise InvalidArgumentError("n_f must be >= 1")
        if self.mode not in POOL_MODES:
            raise InvalidArgumentError(f"unknown pool mode {self.mode!r}")


def build_pool(source, sampler_cfg, scorer, build_cfg: PoolBuildConfig, class_ids, workers=None) -> FailurePool:
    """Sample candidates per class through the given (typically CFG-guided)
    source, score their endpoints, and keep the worst.

    Ranking uses the float32-rounded stored scores with ties broken by
    candidate order, so rebuilding from the same seed gives the same pool
    byte for byte.  Candidates with non-finite scores are excluded; if fewer
    finite candidates remain than requested, the build fails.
    """
    if not sampler_cfg.record_outputs:
        raise InvalidArgumentError("pool building needs record_outputs enabled")
    class_ids = [int(c) for c in class_ids]
    if not class_ids:
        raise InvalidArgumentError("need at least one class to build a pool")
    n_cand = build_cfg.n_candidates_per_class
    total = n_cand * len(class_ids)
    if build_cfg.mode == "global" and build_cfg.n_f > total:
        raise InvalidArgumentError(f"n_f={build_cfg.n_f} exceeds {total} candidates")
    if build_cfg.mode == "per-class" and build_cfg.n_f > n_cand:
        raise InvalidArgumentError(
            f"per-class n_f={build_cfg.n_f} exceeds {n_cand} candidates per class"
        )

    records = sample_batch(source, sampler_cfg, build_cfg.seed, class_ids, n_cand, workers=workers)
    scored = []
    for b, c in enumerate(class_ids):
        block = records[b * n_cand : (b + 1) * n_cand]
        finals = np.stack([r.final_sample for r in block]).astype(np.float64)
        scores = np.asarray(scorer(finals, c), dtype=np.float64)
        scored.extend(r.with_score(s) for r, s in zip(block, scores))

    def bottom(group, k):
        vals = np.array([r.quality_score for r in group])
        order = np.argsort(vals, kind="stable")  # NaNs sort last
        order = order[np.isfinite(vals[order])]
        if len(order) < k:
            raise PoolBuildFailedError(
                f"only {len(order)} finite-scored candidates for {k} pool slots"
            )
        return [group[i] for i in order[:k]]

    if build_cfg.mode == "global":
        kept = bottom(scored, build_cfg.n_f)
        kept.sort(key=lambda r: r.quality_score)
    else:
        kept = []
        blocks = sorted(range(len(class_ids)), key=lambda b: class_ids[b])
        for b in blocks:
            group = scored[b * n_cand : (b + 1) * n_cand]
            kept.extend(bottom(group, build_cfg.n_f))
    return FailurePool(
        kept,
        build_cfg.mode,
        schedule_hash=sampler_cfg.schedule.fingerprint(),
        source_hash=source.fingerprint(),
    )


def save_pool(pool: FailurePool, path) -> None:
    mode_byte = POOL_MODES.index(pool.mode)
    with open(path, "wb") as fh:
        fh.write(
            _POOL_HEADER.pack(
                POOL_MAGIC,
                POOL_VERSION,
                mode_byte,
                len(pool.records),
                pool.T,
                pool.dim,
                pool.schedule_hash,
                pool.source_hash,
            )
        )
        for r in pool.records:
            fh.write(trajectory_to_bytes(r))


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
    if n < 1:
        raise MalformedPoolError("pool declares zero records", offset=7)
    records = []
    off = _POOL_HEADER.size
    try:
        for _ in range(n):
            rec, off = trajectory_from_bytes(buf, off)
            if (rec.T, rec.dim) != (T, d):
                raise MalformedPoolError(
                    f"record shape ({rec.T}, {rec.dim}) != pool header ({T}, {d})", offset=off
                )
            records.append(rec)
    except MalformedPoolError:
        raise
    except MalformedFileError as exc:
        # record-level offsets are already absolute within the file buffer
        err = MalformedPoolError(str(exc))
        err.offset = exc.offset
        raise err from exc
    if off != len(buf):
        raise MalformedPoolError("trailing bytes after pool records", offset=off)
    try:
        return FailurePool(records, POOL_MODES[mode_byte], shash, srchash)
    except InvalidArgumentError as exc:
        raise MalformedPoolError(f"pool contents invalid: {exc}") from exc
