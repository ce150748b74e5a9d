"""Noise schedules, deterministic per-trajectory random streams, and trajectory records.

A schedule is a strictly decreasing array of T+1 noise levels ending exactly at
zero.  Every sampled trajectory owns a 64-bit seed derived from
(base_seed, class_id, index) so results are reproducible regardless of batch
layout or worker count.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, MalformedFileError

SCHEDULE_KINDS = ("linear-sigma", "karras-like")
KARRAS_RHO = 7.0

_MASK64 = (1 << 64) - 1

TRAJECTORY_MAGIC = b"FAME"
TRAJECTORY_VERSION = 1
# magic, version, T, d, class_id (-1 = unconditional), seed, quality_score
_TRAJ_HEADER = struct.Struct("<4sHIIiQf")


def splitmix64(z: int) -> int:
    """One splitmix64 output step; used to derive independent seeds."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, *keys: int) -> int:
    """Mix a base seed with integer keys into a new 64-bit seed.

    Sensitive to key order and to every bit of every key, so
    derive_seed(s, class_id, index) gives each trajectory its own stream.
    Negative keys (the unconditional class id -1) are folded into 64 bits.
    """
    h = splitmix64(int(base_seed) & _MASK64)
    for k in keys:
        h = splitmix64(h ^ (int(k) & _MASK64))
    return h


class Rng:
    """Deterministic random stream with a recorded seed.

    Thin wrapper over numpy's PCG64 generator; the seed is kept so trajectory
    records can be replayed bit-for-bit later.
    """

    __slots__ = ("seed", "generator")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, shape):
        return self.generator.standard_normal(shape)

    def uniform(self, lo, hi, shape=None):
        return self.generator.uniform(lo, hi, shape)

    def random(self, shape=None):
        return self.generator.random(shape)

    def integers(self, lo, hi, shape=None):
        return self.generator.integers(lo, hi, shape)

    def choice(self, n, size, p=None):
        return self.generator.choice(n, size=size, p=p)


@dataclass(frozen=True)
class NoiseSchedule:
    """Strictly decreasing noise levels sigma_0 > ... > sigma_T = 0."""

    sigmas: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        sig = np.asarray(self.sigmas, dtype=np.float64)
        if sig.ndim != 1 or sig.size < 2:
            raise InvalidArgumentError("schedule needs at least two levels")
        if not np.all(np.isfinite(sig)):
            raise InvalidArgumentError("schedule levels must be finite")
        if sig[-1] != 0.0:
            raise InvalidArgumentError("last schedule level must be exactly 0")
        if not np.all(np.diff(sig) < 0):
            raise InvalidArgumentError("schedule levels must be strictly decreasing")
        sig = sig.copy()
        sig.flags.writeable = False
        object.__setattr__(self, "sigmas", sig)

    @property
    def T(self) -> int:
        return len(self.sigmas) - 1

    @property
    def sigma_max(self) -> float:
        return float(self.sigmas[0])

    @property
    def sigma_min(self) -> float:
        """Smallest nonzero level."""
        return float(self.sigmas[-2])

    def fingerprint(self) -> int:
        h = hashlib.blake2b(self.sigmas.tobytes(), digest_size=8)
        return int.from_bytes(h.digest(), "little")

    def __eq__(self, other):
        if not isinstance(other, NoiseSchedule):
            return NotImplemented
        return np.array_equal(self.sigmas, other.sigmas)

    def __hash__(self):
        return hash(self.sigmas.tobytes())


def make_schedule(kind: str, T: int, sigma_min: float, sigma_max: float) -> NoiseSchedule:
    """Build a named schedule with T integration steps (T+1 levels).

    "linear-sigma" spaces levels evenly from sigma_max to sigma_min and snaps
    the final level to zero.  "karras-like" applies the rho=7 power-law ramp
    between the same endpoints and appends the zero level.
    """
    if kind not in SCHEDULE_KINDS:
        raise InvalidArgumentError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}")
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise InvalidArgumentError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < sigma_min < sigma_max) or not np.isfinite(sigma_max):
        raise InvalidArgumentError(
            f"need 0 < sigma_min < sigma_max finite, got ({sigma_min}, {sigma_max})"
        )
    if kind == "linear-sigma":
        sig = np.linspace(sigma_max, sigma_min, T + 1)
        sig[-1] = 0.0
    else:
        if T == 1:
            sig = np.array([sigma_max, 0.0])
        else:
            inv_rho = 1.0 / KARRAS_RHO
            ramp = np.linspace(0.0, 1.0, T)
            body = (
                sigma_max**inv_rho + ramp * (sigma_min**inv_rho - sigma_max**inv_rho)
            ) ** KARRAS_RHO
            sig = np.concatenate([body, [0.0]])
    return NoiseSchedule(sig, kind=kind)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One finished trajectory: seed, class, every visited state, and the
    denoiser output consumed at each step.

    Arrays are stored as float32 so file round trips are byte-exact;
    quality_score is float32-rounded for the same reason and is NaN until a
    scorer has run.
    """

    seed: int
    class_id: int | None
    states: np.ndarray  # (T+1, d) float32
    denoiser_outputs: np.ndarray | None  # (T, d) float32
    quality_score: float = float("nan")

    @property
    def final_sample(self) -> np.ndarray:
        return self.states[-1]

    @property
    def T(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @staticmethod
    def create(seed, class_id, states, denoiser_outputs, quality_score=float("nan")):
        states = np.ascontiguousarray(states, dtype=np.float32)
        if states.ndim != 2 or states.shape[0] < 2:
            raise InvalidArgumentError("states must be (T+1, d) with T >= 1")
        if denoiser_outputs is not None:
            denoiser_outputs = np.ascontiguousarray(denoiser_outputs, dtype=np.float32)
            if denoiser_outputs.shape != (states.shape[0] - 1, states.shape[1]):
                raise InvalidArgumentError("denoiser_outputs must be (T, d)")
        if class_id is not None and int(class_id) < 0:
            raise InvalidArgumentError("class_id must be None or >= 0")
        return TrajectoryRecord(
            seed=int(seed) & _MASK64,
            class_id=None if class_id is None else int(class_id),
            states=states,
            denoiser_outputs=denoiser_outputs,
            quality_score=float(np.float32(quality_score)),
        )

    def with_score(self, score: float) -> "TrajectoryRecord":
        return replace(self, quality_score=float(np.float32(score)))

    def __eq__(self, other):
        if not isinstance(other, TrajectoryRecord):
            return NotImplemented
        score_eq = (
            self.quality_score == other.quality_score
            or (np.isnan(self.quality_score) and np.isnan(other.quality_score))
        )
        outputs_eq = (
            (self.denoiser_outputs is None) == (other.denoiser_outputs is None)
            and (
                self.denoiser_outputs is None
                or np.array_equal(self.denoiser_outputs, other.denoiser_outputs)
            )
        )
        return (
            self.seed == other.seed
            and self.class_id == other.class_id
            and score_eq
            and outputs_eq
            and np.array_equal(self.states, other.states)
        )


def trajectory_to_bytes(record: TrajectoryRecord) -> bytes:
    """Serialize a record; requires denoiser outputs to be present."""
    if record.denoiser_outputs is None:
        raise InvalidArgumentError("cannot serialize a record without denoiser outputs")
    header = _TRAJ_HEADER.pack(
        TRAJECTORY_MAGIC,
        TRAJECTORY_VERSION,
        record.T,
        record.dim,
        -1 if record.class_id is None else record.class_id,
        record.seed,
        record.quality_score,
    )
    return header + record.states.tobytes() + record.denoiser_outputs.tobytes()


def trajectory_from_bytes(buf: bytes, offset: int = 0) -> tuple[TrajectoryRecord, int]:
    """Parse one record starting at offset; returns (record, next offset)."""
    if len(buf) - offset < _TRAJ_HEADER.size:
        raise MalformedFileError("truncated trajectory header", offset=len(buf))
    magic, version, T, d, class_id, seed, score = _TRAJ_HEADER.unpack_from(buf, offset)
    if magic != TRAJECTORY_MAGIC:
        raise MalformedFileError(f"bad trajectory magic {magic!r}", offset=offset)
    if version != TRAJECTORY_VERSION:
        raise MalformedFileError(f"unsupported trajectory version {version}", offset=offset)
    if T < 1 or d < 1:
        raise MalformedFileError(f"invalid trajectory dims T={T}, d={d}", offset=offset)
    body = offset + _TRAJ_HEADER.size
    n_states = (T + 1) * d
    n_out = T * d
    end = body + 4 * (n_states + n_out)
    if len(buf) < end:
        raise MalformedFileError("truncated trajectory body", offset=len(buf))
    states = np.frombuffer(buf, dtype="<f4", count=n_states, offset=body).reshape(T + 1, d)
    outputs = np.frombuffer(
        buf, dtype="<f4", count=n_out, offset=body + 4 * n_states
    ).reshape(T, d)
    record = TrajectoryRecord(
        seed=seed,
        class_id=None if class_id < 0 else class_id,
        states=states.copy(),
        denoiser_outputs=outputs.copy(),
        quality_score=score,
    )
    return record, end


def save_trajectory(record: TrajectoryRecord, path) -> None:
    with open(path, "wb") as fh:
        fh.write(trajectory_to_bytes(record))


def load_trajectory(path) -> TrajectoryRecord:
    with open(path, "rb") as fh:
        buf = fh.read()
    record, end = trajectory_from_bytes(buf)
    if end != len(buf):
        raise MalformedFileError("trailing bytes after trajectory", offset=end)
    return record
