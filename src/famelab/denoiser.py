"""Small MLP denoiser with noise-level preconditioning.

The network predicts a residual around a noise-dependent skip connection:

    D(x; sigma, c) = c_skip(sigma) x + c_out(sigma) F(c_in(sigma) x, sigma, c)

with c_skip = 1/(sigma^2+1), c_out = sigma/sqrt(sigma^2+1), c_in =
1/sqrt(sigma^2+1) (unit data scale).  The final linear layer starts at zero,
so an untrained model is already the optimal linear denoiser for unit-variance
data.  Noise levels enter as Fourier features of log(sigma)/4; class labels
are looked up in an embedding table whose row 0 is the unconditional (null)
token.  Training is plain denoising score matching with label dropout, so one
network answers both conditional and unconditional queries.

There are two forward passes over the same arithmetic.  `_denoise` is the
inference pass (`sampler.NeuralSource.denoise`): it keeps no activations and
runs the hidden layers through two (n, HIDDEN) buffers that swap roles from
layer to layer, with the SiLU gate, bias adds and matmuls written into them.
The buffers live in a scratch dict the caller may pass; the sampler makes
one per chunk segment and hands it to every call there, so they are faulted
in once per segment and freed with it.  `_apply` is the training pass: it
keeps each layer's input, pre-activation and gate for the backward pass, but
still adds biases and forms gates in place.  Buffer reuse matters because a
fresh (n, HIDDEN) float64 temporary of a megabyte or so is handed back to
the operating system when freed, so the next one is faulted in page by page
again; at n=1024 a call that allocates its buffers takes about 580 minor
page faults, and one that reuses them none.  Every operation keeps its
operands and order, so both passes give the same bits as the plain
expressions, with or without scratch.

`_param_shapes` defines the layer stack (the class embedding, then each of
the N_HIDDEN + 1 layers' weight and bias) and the order that `flat_params`
and checkpoints use.  Gradients are handwritten reverse accumulation, one
loop from the output layer down; the optimizer is Adam, updated in place.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    MalformedFileError,
    TrainingDivergedError,
    check_fields,
)
from .gmm import GmmSpec, choice_cdf, sample_clean_batch
from .schedule import derive_seed

HIDDEN = 128
N_HIDDEN = 3
EMBED_DIM = 16
N_FREQ = 8  # sin/cos pairs -> 2 * N_FREQ features
SIGMA_DATA = 1.0

CHECKPOINT_MAGIC = b"MLPD"
CHECKPOINT_VERSION = 2
_CKPT_HEADER = struct.Struct("<4sHIIIIII")


def _param_shapes(dim, n_classes):
    """Each parameter's shape, in checkpoint order: the class embedding, then
    w{i}, b{i} of each of the N_HIDDEN + 1 layers, layer i taking fans[i]
    features to fans[i + 1]."""
    fans = [dim + 2 * N_FREQ + EMBED_DIM] + [HIDDEN] * N_HIDDEN + [dim]
    shapes = {"emb": (n_classes + 1, EMBED_DIM)}
    for i in range(N_HIDDEN + 1):
        shapes[f"w{i}"] = (fans[i], fans[i + 1])
        shapes[f"b{i}"] = (fans[i + 1],)
    return shapes


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_size: int = 256
    lr: float = 1e-3
    sigma_lo: float = 0.02
    sigma_hi: float = 12.0
    label_dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.steps < 1 or self.batch_size < 1:
            raise InvalidArgumentError("steps and batch_size must be positive")
        if not (self.lr > 0 and np.isfinite(self.lr)):
            raise InvalidArgumentError("lr must be positive")
        if not (0.0 < self.sigma_lo < self.sigma_hi < np.inf):
            raise InvalidArgumentError("need 0 < sigma_lo < sigma_hi < inf")
        if not (0.0 <= self.label_dropout < 1.0):
            raise InvalidArgumentError("label_dropout must be in [0, 1)")


def _gate(a, out):
    """out = 1 / (1 + exp(-a)), the SiLU gate, computed in out."""
    np.negative(a, out=out)
    # saturation overflow in exp is benign: the gate -> 0 exactly
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def _silu_grad(a, s):
    # s * (1 + a * (1 - s)) with one temporary
    t = 1.0 - s
    t *= a
    t += 1.0
    t *= s
    return t


def _precondition(sigma):
    s2 = sigma**2
    c_skip = SIGMA_DATA**2 / (s2 + SIGMA_DATA**2)
    c_out = sigma * SIGMA_DATA / np.sqrt(s2 + SIGMA_DATA**2)
    c_in = 1.0 / np.sqrt(s2 + SIGMA_DATA**2)
    return c_skip, c_out, c_in


def _fourier(sigma):
    u = np.log(sigma) / 4.0
    freq = 2.0 ** np.arange(N_FREQ)
    ang = u[:, None] * freq[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class MlpDenoiser:
    """SiLU MLP with N_HIDDEN hidden layers over (c_in x, sigma features, class embedding)."""

    def __init__(self, dim: int, n_classes: int, params: dict | None = None, seed: int = 0):
        if dim < 1 or n_classes < 1:
            raise InvalidArgumentError("dim and n_classes must be positive")
        self.dim = dim
        self.n_classes = n_classes
        if params is None:
            rng = np.random.default_rng(seed)
            shapes = _param_shapes(dim, n_classes)
            params = {k: np.zeros(shape) for k, shape in shapes.items()}
            params["emb"] = 0.5 * rng.standard_normal(shapes["emb"])
            for i in range(N_HIDDEN):
                shape = shapes[f"w{i}"]
                params[f"w{i}"] = rng.standard_normal(shape) / np.sqrt(shape[0])
        self._check_shapes(params)
        self.params = params

    def _check_shapes(self, params):
        want = _param_shapes(self.dim, self.n_classes)
        if set(params) != set(want):
            raise InvalidArgumentError(f"parameter keys {sorted(params)} != {sorted(want)}")
        for k, shape in want.items():
            if params[k].shape != shape:
                raise InvalidArgumentError(f"param {k} has shape {params[k].shape}, want {shape}")

    def flat_params(self) -> np.ndarray:
        return np.concatenate(
            [self.params[k].ravel() for k in _param_shapes(self.dim, self.n_classes)]
        )

    def fingerprint(self) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<II", self.dim, self.n_classes))
        h.update(self.flat_params().astype(np.float32).tobytes())
        return int.from_bytes(h.digest(), "little")


def _features(params, X, sig, tokens):
    """Preconditioning coefficients and the input features of the first layer."""
    c_skip, c_out, c_in = _precondition(sig)
    h = np.concatenate([c_in[:, None] * X, _fourier(sig), params["emb"][tokens]], axis=1)
    return c_skip, c_out, h


def _layer(h, w, b, out=None):
    """h @ w + b, written into out when given."""
    out = np.matmul(h, w, out=out)
    out += b
    return out


def _denoise(params, X, sig, tokens, scratch=None):
    """Inference forward pass: D(X; sig, tokens), no activations kept.

    Two (n, HIDDEN) buffers swap roles: `a` holds a pre-activation and then,
    scaled by its gate in `g`, the activation; the next layer's matmul and
    bias go into `g`.  They are kept in scratch, a dict, for the next call of
    the same n; without one they are the call's own.  The output is always
    a new array.
    """
    c_skip, c_out, h = _features(params, X, sig, tokens)
    scratch = {} if scratch is None else scratch
    bufs = scratch.get("hidden")
    if bufs is None or len(bufs[0]) != len(h):
        # two arrays: one (2, n, HIDDEN) block measured 2 MiB more peak RSS
        # on a neural sampling run
        bufs = scratch["hidden"] = (np.empty((len(h), HIDDEN)), np.empty((len(h), HIDDEN)))
    a, g = bufs
    _layer(h, params["w0"], params["b0"], out=a)
    for i in range(1, N_HIDDEN):
        a *= _gate(a, g)
        _layer(a, params[f"w{i}"], params[f"b{i}"], out=g)
        a, g = g, a
    a *= _gate(a, g)
    out = _layer(a, params[f"w{N_HIDDEN}"], params[f"b{N_HIDDEN}"])
    return c_skip[:, None] * X + c_out[:, None] * out


def _apply(params, X, sig, tokens):
    """Training forward pass: D and the cache `loss_and_grad` backpropagates:
    c_out, each hidden layer's (input, pre-activation, gate), the last input."""
    c_skip, c_out, h = _features(params, X, sig, tokens)
    hidden = []
    for i in range(N_HIDDEN):
        a = _layer(h, params[f"w{i}"], params[f"b{i}"])
        s = _gate(a, np.empty_like(a))
        hidden.append((h, a, s))
        h = a * s
    out = _layer(h, params[f"w{N_HIDDEN}"], params[f"b{N_HIDDEN}"])
    D = c_skip[:, None] * X + c_out[:, None] * out
    return D, (c_out, hidden, h)


def loss_and_grad(model: MlpDenoiser, x0, sigma, tokens, eps):
    """Denoising score-matching loss and parameter gradients for one batch.

    loss = mean over the batch of || D(x0 + sigma*eps; sigma, c) - x0 ||^2.
    Raises TrainingDivergedError if the loss is not finite.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.int64)
    B = len(x0)
    xn = x0 + sigma[:, None] * eps
    D, (c_out, hidden, h) = _apply(model.params, xn, sigma, tokens)
    r = D - x0
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float((r * r).sum() / B)
    if not np.isfinite(loss):
        raise TrainingDivergedError(step=None, message="non-finite loss")

    p = model.params
    g = (2.0 / B) * r * c_out[:, None]
    grads = {}
    for i in range(N_HIDDEN, -1, -1):
        grads[f"w{i}"] = h.T @ g
        grads[f"b{i}"] = g.sum(axis=0)
        g = g @ p[f"w{i}"].T
        if i:
            h, a, s = hidden[i - 1]
            g *= _silu_grad(a, s)
    g_emb = np.zeros_like(p["emb"])
    np.add.at(g_emb, tokens, g[:, model.dim + 2 * N_FREQ :])
    grads["emb"] = g_emb
    return loss, grads


def train(spec: GmmSpec, cfg: TrainConfig) -> MlpDenoiser:
    """Train a denoiser on a mixture by denoising score matching.

    Classes are drawn by prior, labels dropped to the null token with
    probability cfg.label_dropout, and noise levels log-uniformly from
    [sigma_lo, sigma_hi].  Fully deterministic given cfg.seed.
    """
    model = MlpDenoiser(spec.dim, max(spec.class_ids), seed=derive_seed(cfg.seed, 1))
    rng = np.random.default_rng(derive_seed(cfg.seed, 2))
    class_ids = np.array(spec.class_ids)
    priors = np.array([spec.class_priors[c] for c in spec.class_ids])
    class_cdf = choice_cdf(priors / priors.sum())

    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(vv) for k, vv in model.params.items()}
    for step in range(1, cfg.steps + 1):
        cls = class_ids[class_cdf.searchsorted(rng.random(cfg.batch_size), side="right")]
        x0 = sample_clean_batch(spec, rng, cls)
        tokens = np.where(rng.random(cfg.batch_size) < cfg.label_dropout, 0, cls)
        sigma = np.exp(rng.uniform(np.log(cfg.sigma_lo), np.log(cfg.sigma_hi), cfg.batch_size))
        eps = rng.standard_normal((cfg.batch_size, spec.dim))
        try:
            loss, grads = loss_and_grad(model, x0, sigma, tokens, eps)
        except TrainingDivergedError:
            raise TrainingDivergedError(step) from None
        bc1 = 1.0 - beta1**step
        bc2 = 1.0 - beta2**step
        for k, g in grads.items():
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), in place with one
            # temporary t; g is this step's own array, so it is reused last
            mk, vk = m[k], v[k]
            mk *= beta1
            t = (1.0 - beta1) * g
            mk += t
            vk *= beta2
            np.multiply(1.0 - beta2, g, out=t)
            t *= g
            vk += t
            np.divide(mk, bc1, out=t)
            t *= cfg.lr
            np.divide(vk, bc2, out=g)
            np.sqrt(g, out=g)
            g += eps_adam
            t /= g
            model.params[k] -= t
    return model


def save_checkpoint(model: MlpDenoiser, path) -> None:
    """Write the architecture header, then the parameters as float32 in
    `_param_shapes` order."""
    with open(path, "wb") as fh:
        fh.write(
            _CKPT_HEADER.pack(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                model.dim,
                model.n_classes,
                HIDDEN,
                EMBED_DIM,
                N_FREQ,
                N_HIDDEN,
            )
        )
        for k in _param_shapes(model.dim, model.n_classes):
            fh.write(model.params[k].astype("<f4").tobytes())


def load_checkpoint(path) -> MlpDenoiser:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _CKPT_HEADER.size:
        raise MalformedFileError("truncated checkpoint header", offset=len(buf))
    magic, version, dim, n_classes, hidden, embed, nfreq, n_hidden = _CKPT_HEADER.unpack_from(buf)
    if magic != CHECKPOINT_MAGIC:
        raise MalformedFileError(f"bad checkpoint magic {magic!r}", offset=0)
    if version != CHECKPOINT_VERSION:
        raise MalformedFileError(f"unsupported checkpoint version {version}", offset=4)
    if dim < 1:
        raise MalformedFileError("checkpoint declares dim 0", offset=6)
    if n_classes < 1:
        raise MalformedFileError("checkpoint declares zero classes", offset=10)
    if (hidden, embed, nfreq, n_hidden) != (HIDDEN, EMBED_DIM, N_FREQ, N_HIDDEN):
        raise MalformedFileError(
            f"checkpoint architecture ({hidden}, {embed}, {nfreq}, {n_hidden}) "
            "does not match this build"
        )
    params = {}
    off = _CKPT_HEADER.size
    for k, shape in _param_shapes(dim, n_classes).items():
        count = int(np.prod(shape))
        end = off + 4 * count
        if len(buf) < end:
            raise MalformedFileError("truncated checkpoint body", offset=len(buf))
        params[k] = (
            np.frombuffer(buf, dtype="<f4", count=count, offset=off)
            .astype(np.float64)
            .reshape(shape)
        )
        off = end
    if off != len(buf):
        raise MalformedFileError("trailing bytes after checkpoint", offset=off)
    return MlpDenoiser(dim, n_classes, params=params)
