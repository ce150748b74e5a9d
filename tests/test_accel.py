"""Equivalence of the numba and numpy kernel variants, plus path selection."""

import os
import subprocess
import sys

import numpy as np
import pytest

import famelab
from famelab import _accel
from famelab._kernels import (
    _nb_gmm_eval,
    _nb_pairwise_sqdist,
    _np_gmm_eval,
    _np_pairwise_sqdist,
    gmm_eval,
    pairwise_sqdist,
)


def child_env(**overrides):
    """Environment for a child interpreter that imports the same famelab as
    this process, whether or not the package is installed."""
    env = {k: v for k, v in os.environ.items() if k != "FAMELAB_NO_NUMBA"}
    src = os.path.dirname(os.path.dirname(famelab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(overrides)
    return env


def random_mixture(rng, n, d, K):
    X = rng.standard_normal((n, d)) * 3.0
    means = rng.standard_normal((K, d)) * 2.0
    lams = np.empty((K, d))
    qmats = np.empty((K, d, d))
    for k in range(K):
        a = rng.standard_normal((d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        lam, q = np.linalg.eigh(cov)
        lams[k] = lam
        qmats[k] = q
    w = rng.random(K) + 0.1
    logw = np.log(w / w.sum())
    return X, means, qmats, lams, logw


class TestGmmEvalEquivalence:
    def test_paths_agree_over_random_mixtures(self):
        for trial in range(20):
            rng = np.random.default_rng(4000 + trial)
            d = int(rng.integers(1, 4))
            X, means, qmats, lams, logw = random_mixture(
                rng, n=int(rng.integers(1, 30)), d=d, K=int(rng.integers(1, 5))
            )
            sig2 = float(rng.random() * 4.0)
            ref = _np_gmm_eval(X, means, qmats, lams, logw, sig2)
            got = _nb_gmm_eval(X, means, qmats, lams, logw, sig2)
            for r, g in zip(ref, got):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)

    def test_paths_agree_at_zero_noise(self):
        rng = np.random.default_rng(77)
        X, means, qmats, lams, logw = random_mixture(rng, n=40, d=2, K=3)
        ref = _np_gmm_eval(X, means, qmats, lams, logw, 0.0)
        got = _nb_gmm_eval(X, means, qmats, lams, logw, 0.0)
        for r, g in zip(ref, got):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)

    def test_underflow_point_gives_neg_inf_on_both_paths(self):
        rng = np.random.default_rng(3)
        _, means, qmats, lams, logw = random_mixture(rng, n=1, d=2, K=2)
        X = np.full((1, 2), 1e200)
        for fn in (_np_gmm_eval, _nb_gmm_eval):
            logp, resp, score, denoise = fn(X, means, qmats, lams, logw, 1.0)
            assert logp[0] == -np.inf
            np.testing.assert_array_equal(resp, 0.0)
            np.testing.assert_array_equal(score, 0.0)
            np.testing.assert_array_equal(denoise, 0.0)


class TestPairwiseSqdistEquivalence:
    def test_paths_agree(self):
        for trial in range(10):
            rng = np.random.default_rng(500 + trial)
            a = rng.standard_normal((int(rng.integers(1, 50)), 3))
            b = rng.standard_normal((int(rng.integers(1, 50)), 3))
            np.testing.assert_allclose(
                _nb_pairwise_sqdist(a, b), _np_pairwise_sqdist(a, b), rtol=1e-12, atol=1e-12
            )

    def test_self_distance_is_exactly_zero(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((16, 2))
        for fn in (_np_pairwise_sqdist, _nb_pairwise_sqdist):
            np.testing.assert_array_equal(np.diag(fn(a, a)), 0.0)


class TestPathSelection:
    def test_bound_names_match_selector(self):
        if _accel.USE_NUMBA:
            assert gmm_eval is _nb_gmm_eval
            assert pairwise_sqdist is _nb_pairwise_sqdist
        else:
            assert gmm_eval is _np_gmm_eval
            assert pairwise_sqdist is _np_pairwise_sqdist

    def test_env_flag_forces_numpy_path(self):
        code = (
            "import famelab._accel as a, famelab._kernels as k;"
            "print(a.USE_NUMBA, k.gmm_eval is k._np_gmm_eval)"
        )
        env = child_env(FAMELAB_NO_NUMBA="1")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False True"

    def test_flag_unset_prefers_numba_when_available(self):
        env = child_env()
        code = (
            "import famelab._accel as a, famelab._kernels as k;"
            "print(a.HAVE_NUMBA, a.USE_NUMBA, k.gmm_eval is k._nb_gmm_eval)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        have, use, bound = proc.stdout.split()
        if have == "True":
            assert use == "True" and bound == "True"
        else:
            pytest.skip("numba unavailable in this environment")

    def test_numpy_fallback_full_suite_smoke(self):
        # the selected path feeds every mixture evaluation; a short end-to-end
        # run under the flag guards against fallback-only breakage
        code = (
            "from famelab.gmm import preset\n"
            "from famelab.schedule import make_schedule, derive_seed\n"
            "from famelab.sampler import AnalyticSource, SamplerConfig, sample_batch\n"
            "s = preset('imbalanced2d')\n"
            "sched = make_schedule('karras-like', 8, 0.02, 8.0)\n"
            "recs = sample_batch(AnalyticSource(s), SamplerConfig(schedule=sched), 1, (1,), 4)\n"
            "print(len(recs))\n"
        )
        env = child_env(FAMELAB_NO_NUMBA="1")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "4"
