"""MLP denoiser: preconditioning, handwritten gradients, training, checkpoints."""

import tracemalloc
import warnings

import numpy as np
import pytest

from famelab import denoiser
from famelab.denoiser import (
    _CKPT_HEADER,
    HIDDEN,
    N_FREQ,
    MlpDenoiser,
    TrainConfig,
    _apply,
    _denoise,
    _fourier,
    _gate,
    _precondition,
    _silu_grad,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    train,
)
from famelab.errors import (
    InvalidArgumentError,
    MalformedFileError,
    TrainingDivergedError,
)
from famelab.gmm import GmmComponent, GmmSpec, sample_clean_batch
from famelab.sampler import NeuralSource
from famelab.schedule import derive_seed, make_schedule
from tests.oracles import ideal_denoiser
from tests.test_gmm import two_mode_1d


def small_spec():
    return GmmSpec(
        {
            1: [GmmComponent(np.array([-1.5, 0.0]), 0.2 * np.eye(2), 1.0, 2.6)],
            2: [GmmComponent(np.array([1.5, 0.5]), 0.2 * np.eye(2), 1.0, 2.6)],
        },
        {1: 0.5, 2: 0.5},
    )


def forward(model, x, sigma, class_id=None):
    """D(x; sigma, c) through the sampler's source; class_id None is the
    null token."""
    tokens = None if class_id is None else np.full(len(x), class_id)
    return NeuralSource(model).denoise(x, sigma, [tokens])[0]


class TestForward:
    def test_init_is_pure_skip_connection(self):
        """Zero-initialized output layer: D(x; sigma) = x / (sigma^2 + 1)."""
        model = MlpDenoiser(dim=2, n_classes=4, seed=0)
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        for sigma in (0.05, 1.0, 10.0):
            np.testing.assert_allclose(forward(model, x, sigma), x / (sigma**2 + 1.0), atol=1e-14)

    def test_single_matches_batch(self):
        model = train(small_spec(), TrainConfig(steps=30, batch_size=32, seed=1))
        x = np.random.default_rng(0).standard_normal((5, 2))
        batch = forward(model, x, 0.7, 2)
        # BLAS accumulates a row differently inside a 5-row batch than alone
        # (a one-row matmul is a matrix-vector product), so agreement is to
        # rounding, not bitwise
        for i in range(5):
            np.testing.assert_allclose(batch[i], forward(model, x[i : i + 1], 0.7, 2)[0], rtol=1e-12)

    def test_conditioning_changes_output_after_training(self):
        model = train(small_spec(), TrainConfig(steps=200, batch_size=64, seed=2))
        x = np.array([[0.0, 0.0]])
        d1 = forward(model, x, 1.0, 1)
        d2 = forward(model, x, 1.0, 2)
        d0 = forward(model, x, 1.0, None)
        assert not np.allclose(d1, d2)
        assert not np.allclose(d1, d0)

    def test_per_sample_sigma_and_tokens(self):
        # per-sample levels and tokens in one batch, as training feeds them,
        # against each row evaluated alone through the source; random output
        # weights so the hidden layers reach D
        model = MlpDenoiser(dim=2, n_classes=3, params=perturbed_params(2, 3, seed=3))
        x = np.random.default_rng(1).standard_normal((4, 2))
        sig = np.array([0.1, 0.5, 1.0, 2.0])
        tokens = np.array([0, 1, 2, 3])
        out = _denoise(model.params, x, sig, tokens)
        for i in range(4):
            np.testing.assert_allclose(
                out[i], forward(model, x[i : i + 1], sig[i], tokens[i])[0], rtol=1e-12
            )


class TestGradients:
    def test_matches_finite_differences_on_every_tensor(self):
        """Central differences on at least 32 parameters spread over all
        tensors; relative error under 1e-4."""
        model = MlpDenoiser(dim=2, n_classes=3, seed=7)
        # give the zero output layer something to backprop through
        model.params["w3"] = np.random.default_rng(8).standard_normal((128, 2)) * 0.1
        rng = np.random.default_rng(9)
        B = 8
        x0 = rng.standard_normal((B, 2))
        sigma = np.exp(rng.uniform(np.log(0.1), np.log(3.0), B))
        tokens = rng.integers(0, 4, B)
        eps = rng.standard_normal((B, 2))

        _, grads = loss_and_grad(model, x0, sigma, tokens, eps)
        pick = np.random.default_rng(10)
        checked = 0
        for key in sorted(model.params):
            flat = model.params[key].ravel()
            gflat = grads[key].ravel()
            idx = pick.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idx:
                h = 1e-5 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = loss_and_grad(model, x0, sigma, tokens, eps)
                flat[i] = orig - h
                lm, _ = loss_and_grad(model, x0, sigma, tokens, eps)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(1e-8, abs(fd) + abs(gflat[i]))
                assert abs(fd - gflat[i]) / denom < 1e-4, (key, i, fd, gflat[i])
                checked += 1
        assert checked >= 32

    def test_embedding_rows_untouched_by_batch_have_zero_grad(self):
        model = MlpDenoiser(dim=2, n_classes=3, seed=1)
        model.params["w3"] = np.random.default_rng(2).standard_normal((128, 2)) * 0.1
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((6, 2))
        tokens = np.array([1, 1, 3, 3, 1, 3])
        _, grads = loss_and_grad(model, x0, np.full(6, 0.5), tokens, rng.standard_normal((6, 2)))
        assert np.all(grads["emb"][0] == 0)
        assert np.all(grads["emb"][2] == 0)
        assert np.any(grads["emb"][1] != 0)
        assert np.any(grads["emb"][3] != 0)

    def test_non_finite_loss_raises(self):
        model = MlpDenoiser(dim=2, n_classes=2, seed=0)
        model.params["b3"][:] = np.inf
        with pytest.raises(TrainingDivergedError):
            loss_and_grad(
                model, np.zeros((2, 2)), np.ones(2), np.zeros(2, dtype=int), np.zeros((2, 2))
            )


class TestTraining:
    def test_loss_decreases_and_model_approaches_ideal(self):
        spec = small_spec()
        model = train(spec, TrainConfig(steps=800, batch_size=128, seed=4))
        init = MlpDenoiser(2, 2, seed=999)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 2)) * 2.0
        for sigma in (0.3, 1.0):
            want = ideal_denoiser(spec, x, sigma, 1)
            err_trained = np.abs(forward(model, x, sigma, 1) - want).mean()
            err_init = np.abs(forward(init, x, sigma, 1) - want).mean()
            assert err_trained < 0.5 * err_init

    def test_deterministic(self):
        spec = two_mode_1d()
        cfg = TrainConfig(steps=50, batch_size=32, seed=11)
        a = train(spec, cfg)
        b = train(spec, cfg)
        np.testing.assert_array_equal(a.flat_params(), b.flat_params())
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_model(self):
        spec = two_mode_1d()
        a = train(spec, TrainConfig(steps=50, batch_size=32, seed=11))
        b = train(spec, TrainConfig(steps=50, batch_size=32, seed=12))
        assert not np.array_equal(a.flat_params(), b.flat_params())

    def test_divergence_reports_step(self):
        """Adam steps scale with lr, so an absurd rate overflows the forward
        pass within a few steps and must raise with the step recorded."""
        spec = two_mode_1d()
        with pytest.raises(TrainingDivergedError) as exc:
            train(spec, TrainConfig(steps=400, batch_size=8, lr=1e60, seed=0))
        assert exc.value.step is not None

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(steps=0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(sigma_lo=2.0, sigma_hi=1.0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(label_dropout=1.0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(lr=0.0)


class TestCheckpoint:
    def test_round_trip_bytes_exact(self, tmp_path):
        model = train(small_spec(), TrainConfig(steps=40, batch_size=32, seed=6))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        back = load_checkpoint(p1)
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.dim == model.dim and back.n_classes == model.n_classes

    def test_loaded_model_matches_to_float32(self, tmp_path):
        model = train(small_spec(), TrainConfig(steps=40, batch_size=32, seed=6))
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        back = load_checkpoint(p)
        x = np.random.default_rng(7).standard_normal((8, 2))
        np.testing.assert_allclose(forward(back, x, 0.8, 1), forward(model, x, 0.8, 1), atol=1e-4)

    def test_malformed(self, tmp_path):
        model = MlpDenoiser(2, 2, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        blob = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(MalformedFileError):
            load_checkpoint(bad)
        bad.write_bytes(blob[:-10])
        with pytest.raises(MalformedFileError):
            load_checkpoint(bad)
        bad.write_bytes(blob + b"\x00\x00")
        with pytest.raises(MalformedFileError):
            load_checkpoint(bad)

    def test_zero_dim_or_classes_in_header_is_malformed(self, tmp_path):
        """A well-formed body for dim=0 (resp. n_classes=0) must not reach the
        model constructor's InvalidArgumentError."""
        p = tmp_path / "m.ckpt"
        save_checkpoint(MlpDenoiser(2, 2, seed=0), p)
        header = bytearray(p.read_bytes()[: _CKPT_HEADER.size])
        for field_offset, shapes in (
            (6, [(3, 16), (2 * N_FREQ + 16, HIDDEN), (HIDDEN,), (HIDDEN, HIDDEN), (HIDDEN,),
                 (HIDDEN, HIDDEN), (HIDDEN,), (HIDDEN, 0), (0,)]),
            (10, [(1, 16), (2 + 2 * N_FREQ + 16, HIDDEN), (HIDDEN,), (HIDDEN, HIDDEN), (HIDDEN,),
                  (HIDDEN, HIDDEN), (HIDDEN,), (HIDDEN, 2), (2,)]),
        ):
            bad_header = bytearray(header)
            bad_header[field_offset : field_offset + 4] = b"\x00\x00\x00\x00"
            body = b"".join(np.zeros(shape, dtype="<f4").tobytes() for shape in shapes)
            p.write_bytes(bytes(bad_header) + body)
            with pytest.raises(MalformedFileError) as exc:
                load_checkpoint(p)
            assert exc.value.offset == field_offset


# ---------------------------------------------------------------------------
# Oracles: the plain-expression forward, backward and Adam loop that the
# in-place and two-buffer code must reproduce bit for bit.


def oracle_silu(a):
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a))
    return a * s, s


def oracle_silu_grad(a, s):
    return s * (1.0 + a * (1.0 - s))


def oracle_apply(params, X, sig, tokens):
    c_skip, c_out, c_in = _precondition(sig)
    h = np.concatenate([c_in[:, None] * X, _fourier(sig), params["emb"][tokens]], axis=1)
    a0 = h @ params["w0"] + params["b0"]
    h1, s0 = oracle_silu(a0)
    a1 = h1 @ params["w1"] + params["b1"]
    h2, s1 = oracle_silu(a1)
    a2 = h2 @ params["w2"] + params["b2"]
    h3, s2 = oracle_silu(a2)
    out = h3 @ params["w3"] + params["b3"]
    D = c_skip[:, None] * X + c_out[:, None] * out
    return D, (c_out, h, a0, s0, h1, a1, s1, h2, a2, s2, h3)


def oracle_loss_and_grad(model, x0, sigma, tokens, eps):
    B = len(x0)
    xn = x0 + sigma[:, None] * eps
    D, (c_out, h, a0, s0, h1, a1, s1, h2, a2, s2, h3) = oracle_apply(
        model.params, xn, sigma, tokens
    )
    r = D - x0
    p = model.params
    g_out = (2.0 / B) * r * c_out[:, None]
    grads = {"w3": h3.T @ g_out, "b3": g_out.sum(axis=0)}
    g = g_out @ p["w3"].T
    g = g * oracle_silu_grad(a2, s2)
    grads["w2"] = h2.T @ g
    grads["b2"] = g.sum(axis=0)
    g = g @ p["w2"].T
    g = g * oracle_silu_grad(a1, s1)
    grads["w1"] = h1.T @ g
    grads["b1"] = g.sum(axis=0)
    g = g @ p["w1"].T
    g = g * oracle_silu_grad(a0, s0)
    grads["w0"] = h.T @ g
    grads["b0"] = g.sum(axis=0)
    g_h = g @ p["w0"].T
    g_emb = np.zeros_like(p["emb"])
    np.add.at(g_emb, tokens, g_h[:, model.dim + 2 * N_FREQ :])
    grads["emb"] = g_emb
    return grads


def oracle_train(spec, cfg):
    model = MlpDenoiser(spec.dim, max(spec.class_ids), seed=derive_seed(cfg.seed, 1))
    rng = np.random.default_rng(derive_seed(cfg.seed, 2))
    class_ids = np.array(spec.class_ids)
    priors = np.array([spec.class_priors[c] for c in spec.class_ids])
    priors = priors / priors.sum()
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(vv) for k, vv in model.params.items()}
    for step in range(1, cfg.steps + 1):
        cls = class_ids[rng.choice(len(class_ids), size=cfg.batch_size, p=priors)]
        x0 = sample_clean_batch(spec, rng, cls)
        tokens = np.where(rng.random(cfg.batch_size) < cfg.label_dropout, 0, cls)
        sigma = np.exp(rng.uniform(np.log(cfg.sigma_lo), np.log(cfg.sigma_hi), cfg.batch_size))
        eps = rng.standard_normal((cfg.batch_size, spec.dim))
        grads = oracle_loss_and_grad(model, x0, sigma, tokens, eps)
        bc1 = 1.0 - beta1**step
        bc2 = 1.0 - beta2**step
        for k, g in grads.items():
            m[k] = beta1 * m[k] + (1.0 - beta1) * g
            v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
            model.params[k] -= cfg.lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps_adam)
    return model


def perturbed_params(dim, n_classes, seed):
    """Random weights everywhere, including the zero-initialized output layer
    and the biases, so every term of the forward pass matters."""
    params = MlpDenoiser(dim, n_classes, seed=seed).params
    rng = np.random.default_rng(seed + 1)
    return {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in params.items()}


class TestInferenceForward:
    def test_equals_training_forward_exactly(self):
        params = perturbed_params(2, 8, seed=20)
        sigmas = make_schedule("karras-like", 64, 0.01, 10.0).sigmas
        rng = np.random.default_rng(21)
        for n in (2, 3, 1000, 1024):
            X = 3.0 * rng.standard_normal((n, 2))
            tokens = rng.integers(0, 9, n)
            tokens[0] = 0
            for k in (0, 16, 40, 63):
                sig = np.full(n, sigmas[k])
                np.testing.assert_array_equal(
                    _denoise(params, X, sig, tokens), _apply(params, X, sig, tokens)[0]
                )
            sig = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
            np.testing.assert_array_equal(
                _denoise(params, X, sig, tokens), _apply(params, X, sig, tokens)[0]
            )

    def test_matches_oracle_when_exp_overflows_without_warning(self):
        params = perturbed_params(2, 3, seed=22)
        params["w0"] = params["w0"] * 2000.0
        rng = np.random.default_rng(23)
        X = 4.0 * rng.standard_normal((64, 2))
        sig = np.full(64, 0.05)
        tokens = rng.integers(0, 4, 64)
        want, cache = oracle_apply(params, X, sig, tokens)
        assert np.any(-cache[2] > 710.0)  # exp(-a0) overflows somewhere
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _denoise(params, X, sig, tokens)
            got_train = _apply(params, X, sig, tokens)[0]
        assert np.all(np.isfinite(want))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_train, want)

    def test_silu_and_grad_match_oracle_formulas(self):
        a = np.concatenate([np.random.default_rng(24).standard_normal((50, 7)).ravel() * 30.0, [0.0, -800.0, 800.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _gate(a, np.empty_like(a))
        want_h, want_s = oracle_silu(a)
        np.testing.assert_array_equal(a * s, want_h)
        np.testing.assert_array_equal(s, want_s)
        np.testing.assert_array_equal(_silu_grad(a, s), oracle_silu_grad(a, want_s))

    def test_scratch_gives_the_same_bits(self):
        """Buffers kept in a scratch dict, fresh, reused by a call of at
        most as many rows or remade for one of more, give the bits of a call
        without scratch, and the output never lives in them."""
        params = perturbed_params(2, 8, seed=33)
        rng = np.random.default_rng(34)
        scratch = {}
        for n in (3, 1024, 1024, 7, 976, 2048):
            X = 3.0 * rng.standard_normal((n, 2))
            sig = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
            tokens = rng.integers(0, 9, n)
            before = scratch.get("hidden")
            reused = before is not None and len(before[0]) >= n
            got = _denoise(params, X, sig, tokens, scratch)
            np.testing.assert_array_equal(got, _denoise(params, X, sig, tokens))
            assert (scratch["hidden"] is before) == reused
            rows = len(before[0]) if reused else n
            assert [b.shape for b in scratch["hidden"]] == [(rows, HIDDEN)] * 2
            assert not any(np.shares_memory(got, b) for b in scratch["hidden"])

    def test_peak_allocation_is_about_two_hidden_buffers(self):
        n = 1024
        params = perturbed_params(2, 8, seed=25)
        rng = np.random.default_rng(26)
        X = rng.standard_normal((n, 2))
        sig = np.full(n, 0.5)
        tokens = rng.integers(0, 9, n)
        _denoise(params, X, sig, tokens)
        tracemalloc.start()
        try:
            _denoise(params, X, sig, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * HIDDEN * 8, peak


class TestInPlaceTraining:
    def test_gradients_match_oracle_exactly(self):
        model = MlpDenoiser(dim=2, n_classes=3, seed=27)
        model.params = perturbed_params(2, 3, seed=27)
        rng = np.random.default_rng(28)
        B = 64
        x0 = rng.standard_normal((B, 2))
        sigma = np.exp(rng.uniform(np.log(0.02), np.log(12.0), B))
        tokens = rng.integers(0, 4, B)
        eps = rng.standard_normal((B, 2))
        _, grads = loss_and_grad(model, x0, sigma, tokens, eps)
        want = oracle_loss_and_grad(model, x0, sigma, tokens, eps)
        assert grads.keys() == want.keys()
        for k in want:
            np.testing.assert_array_equal(grads[k], want[k], err_msg=k)

    def test_train_matches_oracle_adam_loop_exactly(self):
        cfg = TrainConfig(steps=25)
        got = train(small_spec(), cfg)
        want = oracle_train(small_spec(), cfg)
        for k in want.params:
            np.testing.assert_array_equal(got.params[k], want.params[k], err_msg=k)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_n_hidden_sets_the_depth(monkeypatch, tmp_path, depth):
    """Shapes, init, both forward passes, the gradients and the checkpoint
    all follow N_HIDDEN."""
    monkeypatch.setattr(denoiser, "N_HIDDEN", depth)
    params = perturbed_params(2, 3, seed=30)
    assert len(params) == 2 * (depth + 1) + 1
    model = MlpDenoiser(2, 3, params=params)
    rng = np.random.default_rng(31)
    B = 8
    x0 = rng.standard_normal((B, 2))
    sigma = np.exp(rng.uniform(np.log(0.1), np.log(3.0), B))
    tokens = rng.integers(0, 4, B)
    eps = rng.standard_normal((B, 2))
    np.testing.assert_array_equal(
        _denoise(params, x0, sigma, tokens), _apply(params, x0, sigma, tokens)[0]
    )

    _, grads = loss_and_grad(model, x0, sigma, tokens, eps)
    assert grads.keys() == params.keys()
    pick = np.random.default_rng(32)
    for key, value in params.items():
        flat = value.ravel()
        i = pick.integers(flat.size)
        h = 1e-5 * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = loss_and_grad(model, x0, sigma, tokens, eps)
        flat[i] = orig - h
        lm, _ = loss_and_grad(model, x0, sigma, tokens, eps)
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        g = grads[key].ravel()[i]
        assert abs(fd - g) / max(1e-8, abs(fd) + abs(g)) < 1e-4, (key, i, fd, g)

    path = tmp_path / "m.mlpd"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.fingerprint() == model.fingerprint()
    save_checkpoint(back, tmp_path / "again.mlpd")
    assert (tmp_path / "again.mlpd").read_bytes() == path.read_bytes()
    # the header records the depth, so another build rejects it by name
    monkeypatch.setattr(denoiser, "N_HIDDEN", 3)
    with pytest.raises(MalformedFileError, match="does not match this build"):
        load_checkpoint(path)
