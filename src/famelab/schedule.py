"""Noise schedules, deterministic per-trajectory random streams, and trajectory records.

A schedule is a strictly decreasing array of T+1 noise levels ending exactly at
zero.  Every sampled trajectory owns a 64-bit seed derived from
(base_seed, class_id, index); its initial noise is numpy's default_rng(seed)
stream, bit for bit, with the seed words computed for a whole chunk at once
(`initial_noise`), so results are reproducible regardless of batch layout.

Trajectories live in one numpy structured array whose packed, little-endian
record (`trajectory_dtype`) is also the file format: a 30-byte header (magic
b"FAME", version u2, T u4, d u4, class_id i4, seed u8, score f4), then
float32 states (T+1, d) and denoiser outputs (T, d).  A .traj file is such
records back to back, `records.tobytes()`; a pool file is its own header
followed by the same.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import InvalidArgumentError, MalformedFileError, check_int

SCHEDULE_KINDS = ("linear-sigma", "karras-like")
KARRAS_RHO = 7.0

_MASK64 = (1 << 64) - 1

TRAJECTORY_MAGIC = b"FAME"
TRAJECTORY_VERSION = 1
# the head of every trajectory record; the quality score is NaN until a scorer
# has run.  The sampler writes class ids >= 1; the readers also accept the -1
# that older files hold for an unconditional trajectory
_HEADER = np.dtype(
    [
        ("magic", "S4"),
        ("version", "<u2"),
        ("T", "<u4"),
        ("d", "<u4"),
        ("class_id", "<i4"),
        ("seed", "<u8"),
        ("score", "<f4"),
    ]
)


def splitmix64(z):
    """One splitmix64 step of an int, or of each element of a uint64 array."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed, *keys):
    """Mix a base seed with integer keys into a new 64-bit seed.

    Sensitive to key order and to every bit of every key, so
    derive_seed(s, class_id, index) gives each trajectory its own stream.
    Negative keys (a config seed may be negative) are folded into 64 bits.
    Integer array arguments give the uint64 array of element-wise seeds.
    """
    h = None
    for v in (base_seed, *keys):
        v = v.astype(np.uint64) if isinstance(v, np.ndarray) else int(v) & _MASK64
        h = splitmix64(v if h is None else h ^ v)
    return h


# numpy's SeedSequence constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16


def _hash(v, i, init=_INIT_A, mult=_MULT_A):
    """Step i of a SeedSequence hash chain on a uint32 array: xor with the
    chain's constant init * mult**i, multiply by the next one, xor-shift."""
    h = init * pow(mult, i, 1 << 32)
    v = (v ^ (h & 0xFFFFFFFF)) * (h * mult & 0xFFFFFFFF)
    return v ^ (v >> _XSHIFT)


def _seed_words(seeds):
    """`SeedSequence(s).generate_state(4, np.uint64)` of each uint64 seed, (m, 4).
    A seed below 2**32 has one entropy word; hashing the missing one as 0
    gives the same pool, so the two-word form covers every seed."""
    s = np.asarray(seeds, dtype=np.uint64)
    words = [(s & 0xFFFFFFFF).astype(np.uint32), (s >> 32).astype(np.uint32)]
    pool = [_hash(w, i) for i, w in enumerate(words + [np.zeros_like(words[0])] * 2)]
    # mix every pool word into every other, the hash chain running on
    for i, (src, dst) in enumerate(permutations(range(4), 2), len(pool)):
        v = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], i)
        pool[dst] = v ^ (v >> _XSHIFT)
    state = [_hash(pool[i % 4], i, _INIT_B, _MULT_B) for i in range(8)]
    return np.stack(state, axis=-1).astype("<u4").view("<u8")


class _Words(np.random.bit_generator.ISeedSequence):
    """Hands each bit generator seeded from it the next row of state words."""

    def __init__(self, words):
        self.rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self.rows)


def initial_noise(seeds, d):
    """The (m, d) standard normals `np.random.default_rng(s).standard_normal(d)`
    draws for each of m seeds, bit for bit, the seed words computed at once."""
    words, out = _Words(_seed_words(seeds)), np.empty((len(seeds), d))
    for row in out:
        np.random.Generator(np.random.PCG64(words)).standard_normal(out=row)
    return out


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Strictly decreasing noise levels sigma_0 > ... > sigma_T = 0."""

    sigmas: np.ndarray

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

    def fingerprint(self) -> int:
        h = hashlib.blake2b(self.sigmas.tobytes(), digest_size=8)
        return int.from_bytes(h.digest(), "little")


def check_schedule(kind: str, T: int, sigma_min: float, sigma_max: float) -> None:
    """Raise InvalidArgumentError unless make_schedule accepts these
    arguments; builds no array, so a config can be checked without one."""
    if kind not in SCHEDULE_KINDS:
        raise InvalidArgumentError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}")
    check_int("T", T)
    if T < 1:
        raise InvalidArgumentError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < sigma_min < sigma_max) or not np.isfinite(sigma_max):
        raise InvalidArgumentError(
            f"need 0 < sigma_min < sigma_max finite, got ({sigma_min}, {sigma_max})"
        )


def make_schedule(kind: str, T: int, sigma_min: float, sigma_max: float) -> NoiseSchedule:
    """Build a named schedule with T integration steps (T+1 levels).

    "linear-sigma" spaces levels evenly from sigma_max to sigma_min and snaps
    the final level to zero.  "karras-like" applies the rho=7 power-law ramp
    between the same endpoints and appends the zero level.
    """
    check_schedule(kind, T, sigma_min, sigma_max)
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
    return NoiseSchedule(sig)


def trajectory_dtype(T: int, d: int) -> np.dtype:
    """The packed record of one trajectory with T steps in d dimensions: the
    header, the float32 states (T+1, d) and the float32 conditional denoiser
    outputs (T, d) consumed at each step."""
    return np.dtype(_HEADER.descr + [("states", "<f4", (T + 1, d)), ("outputs", "<f4", (T, d))])


def new_trajectories(n: int, T: int, d: int) -> np.ndarray:
    """n zeroed records with magic, version, T and d set and scores NaN."""
    if T < 1 or d < 1:
        raise InvalidArgumentError(f"trajectories need T >= 1 and d >= 1, got T={T}, d={d}")
    records = np.zeros(n, trajectory_dtype(T, d))
    records["magic"] = TRAJECTORY_MAGIC
    records["version"] = TRAJECTORY_VERSION
    records["T"] = T
    records["d"] = d
    records["score"] = np.nan
    return records


def trajectories_from_bytes(buf: bytes, offset: int = 0) -> np.ndarray:
    """Parse the records that fill buf from offset to its end.

    The first header fixes T and d; the rest must be a whole number of
    records, each with the first one's magic, version, T and d.  Any other
    content raises MalformedFileError at an offset into buf.
    """
    if len(buf) - offset < _HEADER.itemsize:
        raise MalformedFileError("truncated trajectory header", offset=len(buf))
    head = np.frombuffer(buf, _HEADER, count=1, offset=offset)[0]
    if head["magic"] != TRAJECTORY_MAGIC:
        raise MalformedFileError(f"bad trajectory magic {bytes(head['magic'])!r}", offset=offset)
    if head["version"] != TRAJECTORY_VERSION:
        raise MalformedFileError(f"unsupported trajectory version {head['version']}", offset=offset)
    T, d = int(head["T"]), int(head["d"])
    if T < 1 or d < 1:
        raise MalformedFileError(f"invalid trajectory dims T={T}, d={d}", offset=offset)
    # the record size, worked out before a dtype is built from damaged T and d
    size = _HEADER.itemsize + 4 * (2 * T + 1) * d
    n, rest = divmod(len(buf) - offset, size)
    if n == 0:
        raise MalformedFileError("truncated trajectory body", offset=len(buf))
    if rest:
        raise MalformedFileError("partial trajectory record at the end", offset=offset + n * size)
    records = np.frombuffer(buf, trajectory_dtype(T, d), offset=offset)
    bad = (
        (records["magic"] != TRAJECTORY_MAGIC)
        | (records["version"] != TRAJECTORY_VERSION)
        | (records["T"] != T)
        | (records["d"] != d)
    )
    if bad.any():
        i = int(bad.argmax())
        raise MalformedFileError(
            f"record {i} header differs from the first record's", offset=offset + i * size
        )
    return records.copy()


def load_trajectories(path) -> np.ndarray:
    """Read a .traj file: one or more records, as written by `famelab sample`."""
    with open(path, "rb") as fh:
        return trajectories_from_bytes(fh.read())
