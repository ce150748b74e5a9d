"""End-to-end acceptance checks.

Each check prints one verdict line (outside pytest's capture, so it survives
into piped output) and then asserts the same condition, making a full run
double as a checklist.  The neural checks share one trained model, one
failure pool, and memoized sampling runs through the session-scoped frame.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest

from famelab.denoiser import (
    MlpDenoiser,
    TrainConfig,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    train,
)
from famelab.gmm import (
    BAD_TAG,
    GmmComponent,
    GmmSpec,
    exact_sampler,
    noised_log_density,
    preset,
)
from famelab.guidance import GuidanceConfig, guided_source
from famelab.metrics import (
    ComponentTagScorer,
    LogDensityScorer,
    frechet_distance,
    mode_stats,
    precision_recall,
)
from famelab.pool import PoolBuildConfig, build_pool, load_pool, save_pool
from famelab.sampler import AnalyticSource, NeuralSource, SamplerConfig, sample_batch, sample_finals
from famelab.schedule import derive_seed, make_schedule
from tests.test_gmm import projected_density_1d
from tests.test_guidance import SpyBase, fame_score_identity_check
from tests.test_metrics import histogram_kl
from tests.oracles import analytic_score, ideal_denoiser

N_PER_CLASS = 300
PAIRED_SEEDS = tuple(derive_seed(7, 200, i) for i in range(5))
CFG_BASELINE = GuidanceConfig(w=1.5, f=0.0)
FAME_POINT = GuidanceConfig(w=1.5, f=0.02, tau=0.3)


def _verdict(capsys, index: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {index:2d}/10] {label}: {'PASS' if ok else 'FAIL'}")


class RunStats(NamedTuple):
    bad_fraction: float
    outlier_fraction: float
    mean_score: float


class NeuralFrame:
    """Shared experimental frame for the trained-denoiser checks.

    A deliberately small training budget leaves the usual early-training
    artifacts in place (a mildly contracted ring, a still-populated failure
    mode), which is the regime the guidance and replay checks are about.
    The short 32-step schedule stops at sigma 0.35, the scale of the good
    modes, so the final denoiser application stays a well-conditioned
    projection.
    """

    def __init__(self):
        self.spec = preset("imbalanced2d")
        self.classes = self.spec.class_ids
        self.scorer = ComponentTagScorer(self.spec)
        self.log_scorer = LogDensityScorer(self.spec)
        self.model = train(self.spec, TrainConfig(steps=650))
        self.schedule = make_schedule("linear-sigma", 32, 0.35, 10.0)
        self.base = NeuralSource(self.model)
        self.sampler_cfg = SamplerConfig(schedule=self.schedule, method="heun")
        self.pool = build_pool(
            guided_source(self.base, None, CFG_BASELINE),
            self.sampler_cfg,
            self.scorer,
            PoolBuildConfig(
                n_candidates_per_class=200, n_f=8, mode="global", seed=derive_seed(0, 101)
            ),
            self.classes,
        )
        self._runs = {}
        self._refs = {}

    def run(self, guidance: GuidanceConfig, seed: int) -> dict:
        key = (guidance.w, guidance.f, guidance.tau, seed)
        if key not in self._runs:
            pool = self.pool if guidance.f > 0 else None
            batch = sample_batch(
                guided_source(self.base, pool, guidance),
                self.sampler_cfg,
                seed,
                self.classes,
                N_PER_CLASS,
            )
            finals = batch["states"][:, -1].astype(np.float64)
            self._runs[key] = {c: finals[batch["class_id"] == c] for c in self.classes}
        return self._runs[key]

    def reference(self, seed: int) -> dict:
        if seed not in self._refs:
            self._refs[seed] = {
                c: exact_sampler(
                    self.spec, np.random.default_rng(derive_seed(seed, 103, c)), class_id=c, n=N_PER_CLASS
                )
                for c in self.classes
            }
        return self._refs[seed]

    def stats(self, samples: dict) -> RunStats:
        bad, outl, scores = [], [], []
        for c, x in samples.items():
            ms = mode_stats(self.spec, x, c)
            bad.append(ms.bad_fraction)
            outl.append(ms.outlier_fraction)
            scores.append(self.scorer(x, c))
        return RunStats(
            float(np.mean(bad)), float(np.mean(outl)), float(np.mean(np.concatenate(scores)))
        )

    def frechet_to_reference(self, samples: dict, seed: int) -> float:
        gen = np.concatenate([samples[c] for c in self.classes])
        ref = np.concatenate([self.reference(seed)[c] for c in self.classes])
        return frechet_distance(gen, ref)


@pytest.fixture(scope="session")
def frame():
    return NeuralFrame()


def test_analytic_score_matches_finite_differences(capsys):
    """Central differences of the noised log density reproduce the analytic
    score to 1e-5 relative on over 1000 probe points, in under 10 seconds."""
    spec = preset("imbalanced2d")
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst, probes = 0.0, 0
    for sigma in (0.05, 0.2, 1.0, 3.0, 10.0):
        h = 1e-6 * max(1.0, sigma * sigma)
        for cid in (None, 1, 3, 5, 8):
            x = exact_sampler(spec, rng, class_id=cid, n=50)
            x = x + sigma * rng.standard_normal((50, 2))
            s = analytic_score(spec, x, sigma, cid)
            fd = np.empty_like(s)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[:, j] = (
                    noised_log_density(spec, x + e, sigma, cid)
                    - noised_log_density(spec, x - e, sigma, cid)
                ) / (2 * h)
            rel = np.abs(fd - s) / np.maximum(np.abs(s), 1.0)
            worst = max(worst, float(rel.max()))
            probes += len(x)
    elapsed = time.perf_counter() - t0
    ok = probes >= 1000 and worst < 1e-5 and elapsed < 10.0
    _verdict(capsys, 1, "analytic score vs central differences", ok)
    assert probes >= 1000
    assert worst < 1e-5, worst
    assert elapsed < 10.0, elapsed


def test_denoiser_identity_and_replay_score_identity(capsys):
    """The ideal denoiser equals x + sigma^2 * score to 1e-10, and the
    score-space and denoiser-space forms of the replay-guided update agree
    to 1e-9 on over 1000 probes."""
    spec = preset("imbalanced2d")
    rng = np.random.default_rng(12)
    worst_den, n_den = 0.0, 0
    for sigma in (0.05, 0.5, 2.0, 8.0):
        for cid in (None, 2, 7):
            x = exact_sampler(spec, rng, class_id=cid, n=90)
            x = x + sigma * rng.standard_normal((90, 2))
            d = ideal_denoiser(spec, x, sigma, cid)
            s = analytic_score(spec, x, sigma, cid)
            worst_den = max(worst_den, float(np.abs(d - (x + sigma * sigma * s)).max()))
            n_den += len(x)

    worst_fame, n_fame = 0.0, 0
    for sigma in (0.1, 0.7, 3.0):
        for w, f in ((1.5, 0.02), (2.0, 0.1), (0.5, 0.05)):
            x = exact_sampler(spec, rng, class_id=4, n=120)
            x = x + sigma * rng.standard_normal((120, 2))
            x_neg = exact_sampler(spec, rng, class_id=1, n=120)
            x_neg = x_neg + sigma * rng.standard_normal((120, 2))
            worst_fame = max(
                worst_fame, fame_score_identity_check(spec, x, sigma, 4, w, f, x_neg)
            )
            n_fame += len(x)

    ok = n_den >= 1000 and n_fame >= 1000 and worst_den < 1e-10 and worst_fame < 1e-9
    _verdict(capsys, 2, "denoiser/score identity and replay-update identity", ok)
    assert n_den >= 1000 and n_fame >= 1000
    assert worst_den < 1e-10, worst_den
    assert worst_fame < 1e-9, worst_fame


def test_integrator_convergence_orders(capsys):
    """Halving the step count shrinks the endpoint error by the integrator's
    order: Heun lands in [3.0, 5.5], Euler in [1.6, 2.6], measured against
    the closed-form flow of a single Gaussian over 64 trajectories."""
    mu = np.array([1.2, -0.8])
    var = 0.81
    spec = GmmSpec(
        {1: [GmmComponent(mu, var * np.eye(2), 1.0, 2.6)]}, {1: 1.0}
    )
    source = guided_source(AnalyticSource(spec), None, GuidanceConfig())
    t0 = time.perf_counter()
    ratios = {}
    for method in ("heun", "euler"):
        errs = []
        for T in (40, 80):
            sched = make_schedule("karras-like", T, 1e-3, 10.0)
            cfg = SamplerConfig(schedule=sched, method=method)
            states = sample_batch(source, cfg, 77, [1], 64)["states"].astype(np.float64)
            sigma0 = sched.sigmas[0]
            shrink = np.sqrt(var / (var + sigma0 * sigma0))
            exact = mu + (states[:, 0] - mu) * shrink
            errs.append(float(np.mean(np.linalg.norm(states[:, -1] - exact, axis=1))))
        ratios[method] = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = (
        3.0 <= ratios["heun"] <= 5.5
        and 1.6 <= ratios["euler"] <= 2.6
        and elapsed < 30.0
    )
    _verdict(capsys, 3, "integrator convergence orders (step halving)", ok)
    assert 3.0 <= ratios["heun"] <= 5.5, ratios
    assert 1.6 <= ratios["euler"] <= 2.6, ratios
    assert elapsed < 30.0, elapsed


def test_sampling_fidelity_against_ground_truth(capsys):
    """Heun sampling at T=128 reproduces a 1-D two-mode mixture to projection
    KL < 0.02 over 1e5 samples, and every balanced2d class to Fréchet < 0.02
    at 1e4 samples per class."""
    two_mode = GmmSpec(
        {
            1: [
                GmmComponent(np.array([-3.0]), np.array([[0.25]]), 0.65, 2.6),
                GmmComponent(np.array([2.0]), np.array([[0.1225]]), 0.35, 2.6),
            ]
        },
        {1: 1.0},
    )
    # starting from sigma_max * N(0, I) rather than exactly noised data biases
    # endpoint means by about |mu| * s / sigma_max; sigma_max = 20 keeps that
    # far inside both tolerances here and in the balanced2d half below
    sched = make_schedule("karras-like", 128, 0.02, 20.0)
    cfg = SamplerConfig(schedule=sched, method="heun")
    plain = GuidanceConfig()
    # final states only: 1e5 whole records at T=128 would take about 100 MB
    [finals] = sample_finals([guided_source(AnalyticSource(two_mode), None, plain)], cfg, 5, [1], 100000)
    draws = finals[:, 0]
    kl = histogram_kl(draws, projected_density_1d(two_mode, np.array([1.0])))

    balanced = preset("balanced2d")
    worst = 0.0
    for c in balanced.class_ids:
        source = guided_source(AnalyticSource(balanced), None, plain)
        [gen] = sample_finals([source], cfg, derive_seed(5, c), [c], 10000)
        ref = exact_sampler(balanced, np.random.default_rng(derive_seed(99, c)), class_id=c, n=10000)
        worst = max(worst, frechet_distance(gen, ref))

    ok = kl < 0.02 and worst < 0.02
    _verdict(capsys, 4, "sampling fidelity (1-D KL, per-class Fréchet)", ok)
    assert kl < 0.02, kl
    assert worst < 0.02, worst


def test_guidance_reduces_outliers_on_every_paired_seed(frame, capsys):
    """CFG at w=1.5 yields strictly fewer outliers than w=1.0 with the trained
    denoiser on imbalanced2d, for every paired seed."""
    pairs = []
    for seed in PAIRED_SEEDS:
        plain = frame.stats(frame.run(GuidanceConfig(w=1.0, f=0.0), seed))
        guided = frame.stats(frame.run(CFG_BASELINE, seed))
        pairs.append((plain.outlier_fraction, guided.outlier_fraction))
    ok = all(g < p for p, g in pairs)
    _verdict(capsys, 5, "CFG cuts outlier fraction on every paired seed", ok)
    for p, g in pairs:
        assert g < p, pairs


def test_replay_escapes_failure_modes_without_degrading_fit(frame, capsys):
    """Replay guidance at the reference operating point beats the CFG baseline
    on bad-mode fraction and mean tag score in every paired run, while the
    pooled Fréchet distance moves by less than 20% relative."""
    assert len(frame.pool) == 8
    # premise: the retained bottom-of-200-per-class candidates are genuine
    # failure-mode trajectories
    assert (frame.pool.records["score"].astype(np.float64) <= BAD_TAG + 1e-6).all()

    rows = []
    for seed in PAIRED_SEEDS:
        base = frame.run(CFG_BASELINE, seed)
        fame = frame.run(FAME_POINT, seed)
        sa, sb = frame.stats(base), frame.stats(fame)
        fa = frame.frechet_to_reference(base, seed)
        fb = frame.frechet_to_reference(fame, seed)
        rows.append((sa, sb, fa, fb))

    ok = all(
        sb.bad_fraction < sa.bad_fraction
        and sb.mean_score > sa.mean_score
        and fb < 1.2 * fa
        for sa, sb, fa, fb in rows
    )
    _verdict(capsys, 6, "replay escapes failure modes, Fréchet within 20%", ok)
    for sa, sb, fa, fb in rows:
        assert sb.bad_fraction < sa.bad_fraction, rows
        assert sb.mean_score > sa.mean_score, rows
        assert fb < 1.2 * fa, rows


def test_replay_strength_and_window_tradeoff(frame, capsys):
    """Mean quality score is non-decreasing in f over {0, 0.02, 0.05, 0.1} at
    tau=0.3, and widening the replay to (f=0.05, tau=0.5) costs more Fréchet
    than the reference point (f=0.02, tau=0.3)."""
    seed = PAIRED_SEEDS[0]
    scores = [
        frame.stats(frame.run(GuidanceConfig(w=1.5, f=f, tau=0.3), seed)).mean_score
        for f in (0.0, 0.02, 0.05, 0.1)
    ]
    narrow = frame.frechet_to_reference(frame.run(FAME_POINT, seed), seed)
    wide = frame.frechet_to_reference(
        frame.run(GuidanceConfig(w=1.5, f=0.05, tau=0.5), seed), seed
    )
    ok = all(b >= a for a, b in zip(scores, scores[1:])) and wide > narrow
    _verdict(capsys, 7, "f-sweep quality trend and diversity trade-off", ok)
    assert all(b >= a for a, b in zip(scores, scores[1:])), scores
    assert wide > narrow, (narrow, wide)


def test_degenerate_guidance_is_bit_identical(frame, capsys):
    """f=0 with a pool attached reproduces plain CFG bit for bit, and at w=1,
    f=0 each guided step is the base's conditional output itself, from one
    conditional evaluation, for both the analytic and the trained source."""
    spec = preset("imbalanced2d")
    sched = make_schedule("karras-like", 16, 0.02, 8.0)

    def states(source, schedule, classes, n):
        cfg = SamplerConfig(schedule=schedule, method="heun")
        return sample_batch(source, cfg, 31, classes, n)["states"]

    ok = True
    for base, schedule in (
        (AnalyticSource(spec), sched),
        (frame.base, frame.schedule),
    ):
        with_pool = guided_source(base, frame.pool, GuidanceConfig(w=1.5, f=0.0))
        plain_cfg = guided_source(base, None, GuidanceConfig(w=1.5, f=0.0))
        for a, b in zip(states(with_pool, schedule, (3, 6), 25), states(plain_cfg, schedule, (3, 6), 25)):
            ok = ok and bool(np.array_equal(a, b))

        spy = SpyBase(base)
        neutral = guided_source(spy, None, GuidanceConfig(w=1.0, f=0.0))
        x = np.random.default_rng(8).standard_normal((50, 2)) * 2.0
        cls = np.repeat([3, 6], 25)
        for k in range(0, schedule.T, 5):
            guided, d1 = neutral.step(x, k, schedule, cls, None)
            [want] = base.denoise(x, schedule.sigmas[k], [cls])
            ok = ok and guided is d1 and bool(np.array_equal(d1, want))
        ok = ok and set(spy.asked) == {1}

    _verdict(capsys, 8, "degenerate guidance settings are bit-identical", ok)
    assert ok


def test_metric_reference_implementations(frame, capsys, tmp_path):
    """precision_recall equals an O(n^2) brute force exactly, Fréchet equals
    the 1-D closed form on the fitted moments, and pool/checkpoint files
    round-trip byte for byte."""
    rng = np.random.default_rng(21)
    gen = rng.standard_normal((300, 2)) * 1.4 + 0.3
    real = np.concatenate(
        [rng.standard_normal((150, 2)), rng.standard_normal((107, 2)) + 2.0]
    )
    k = 3

    def brute(a, b):
        radii = []
        for j in range(len(b)):
            dists = sorted(
                sum((b[j][t] - b[i][t]) ** 2 for t in range(2)) for i in range(len(b))
            )
            radii.append(dists[k])
        hits = 0
        for i in range(len(a)):
            near = any(
                sum((a[i][t] - b[j][t]) ** 2 for t in range(2)) <= radii[j]
                for j in range(len(b))
            )
            hits += bool(near)
        return hits / len(a)

    precision, recall = precision_recall(gen, real, k=k)
    exact_match = precision == brute(gen.tolist(), real.tolist()) and recall == brute(
        real.tolist(), gen.tolist()
    )

    a = rng.standard_normal(400)[:, None] * 0.7 - 1.0
    b = rng.standard_normal(450)[:, None] * 1.3 + 0.5
    closed = (a.mean() - b.mean()) ** 2 + (a.std(ddof=1) - b.std(ddof=1)) ** 2
    frechet_match = abs(frechet_distance(a, b) - closed) < 1e-9

    pool_path = tmp_path / "pool.fmpl"
    save_pool(frame.pool, pool_path)
    first = pool_path.read_bytes()
    save_pool(load_pool(pool_path), pool_path)
    pool_roundtrip = pool_path.read_bytes() == first

    ckpt_path = tmp_path / "model.mlpd"
    save_checkpoint(frame.model, ckpt_path)
    first = ckpt_path.read_bytes()
    save_checkpoint(load_checkpoint(ckpt_path), ckpt_path)
    ckpt_roundtrip = ckpt_path.read_bytes() == first

    ok = exact_match and frechet_match and pool_roundtrip and ckpt_roundtrip
    _verdict(capsys, 9, "metric oracles and byte-exact round trips", ok)
    assert exact_match
    assert frechet_match
    assert pool_roundtrip
    assert ckpt_roundtrip


def test_mlp_gradients_match_finite_differences(capsys):
    """Backprop gradients agree with central differences to 1e-4 relative on
    at least 32 parameters spread across every tensor."""
    model = MlpDenoiser(dim=2, n_classes=4, seed=7)
    # the output layer starts at zero; give it signal so every tensor gets
    # a nonzero gradient path
    model.params["w3"] = np.random.default_rng(8).standard_normal((128, 2)) * 0.1
    rng = np.random.default_rng(9)
    B = 8
    x0 = rng.standard_normal((B, 2))
    sigma = np.exp(rng.uniform(np.log(0.1), np.log(3.0), B))
    tokens = rng.integers(0, 5, B)
    eps = rng.standard_normal((B, 2))
    _, grads = loss_and_grad(model, x0, sigma, tokens, eps)

    pick = np.random.default_rng(10)
    checked, worst = 0, 0.0
    for key in sorted(model.params):
        flat = model.params[key].ravel()
        gflat = grads[key].ravel()
        for i in pick.choice(flat.size, size=min(4, flat.size), replace=False):
            h = 1e-5 * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(model, x0, sigma, tokens, eps)
            flat[i] = orig - h
            lm, _ = loss_and_grad(model, x0, sigma, tokens, eps)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(1e-8, abs(fd) + abs(gflat[i]))
            worst = max(worst, abs(fd - gflat[i]) / denom)
            checked += 1
    ok = checked >= 32 and worst < 1e-4
    _verdict(capsys, 10, "MLP gradients vs central differences", ok)
    assert checked >= 32
    assert worst < 1e-4, worst


def test_quality_peaks_at_moderate_guidance(frame):
    """Pushing w far past its sweet spot hurts sample quality: the mean clean
    log density at w=5 sits below the sweep's peak."""
    seed = PAIRED_SEEDS[0]
    means = {}
    for w in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0):
        samples = frame.run(GuidanceConfig(w=w, f=0.0), seed)
        means[w] = float(
            np.mean(
                np.concatenate([frame.log_scorer(samples[c], c) for c in frame.classes])
            )
        )
    assert means[5.0] < max(means.values()), means


@pytest.mark.xfail(
    strict=True,
    reason=(
        "in this geometry raising w drains the broad shared mode outright "
        "(bad-mode fraction hits zero by w=3), so no CFG-only sweep value "
        "stays above the replay-guided level"
    ),
)
def test_no_cfg_scale_matches_replay_bad_mode_level(frame):
    """Sweeping w with f=0 should not reach the bad-mode level that replay
    guidance attains at its reference operating point."""
    seed = PAIRED_SEEDS[0]
    fame_level = frame.stats(frame.run(FAME_POINT, seed)).bad_fraction
    sweep = [
        frame.stats(frame.run(GuidanceConfig(w=w, f=0.0), seed)).bad_fraction
        for w in (1.0, 1.2, 1.5, 2.0, 3.0)
    ]
    assert min(sweep) >= fame_level, (sweep, fame_level)
