"""The float64 bits of the guarantee-bearing paths, against tests/golden.json
(see tests/golden.py, which also re-records it)."""

import json

import pytest

from famelab.guidance import GuidanceConfig, GuidedSource
from famelab.pipeline import Experiment, _new_digest
from famelab.sampler import sample_finals
from tests import golden


@pytest.fixture(scope="module")
def recorded():
    doc = json.loads(golden.GOLDEN.read_text())
    env = golden.environment()
    pinned = {key: doc[key] for key in env}
    if pinned != env:
        pytest.fail(f"tests/golden.json was recorded with {pinned}, this is {env}: the digests hold for one toolchain")
    return doc["cases"]


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return golden.cases(tmp_path_factory.mktemp("golden"))


def test_every_case_keeps_its_bits(recorded, computed):
    moved = [name for name in sorted(recorded.keys() | computed.keys()) if recorded.get(name) != computed.get(name)]
    assert not moved, (
        "cases moved (re-record with `python -m tests.golden --record` and give the reason in CHANGES.md): "
        + ", ".join(moved)
    )


class _Formula(GuidedSource):
    """CFG, and at w = 1 conditional-only sampling, as their plain formulas:
    w*d1 + (1-w)*d0, and d1 from a call that asks for nothing else."""

    def step(self, x, k, schedule, class_ids, neg, scratch=None):
        sigma, w = schedule.sigmas[k], self.cfg.w
        if w == 1.0:
            [d1] = self.base.denoise(x, sigma, [class_ids], scratch)
            return d1, d1
        d1, d0 = self.base.denoise(x, sigma, [class_ids, None], scratch)
        return w * d1 + (1.0 - w) * d0, d1


@pytest.mark.parametrize("method", golden.METHODS)
@pytest.mark.parametrize("label", ["cfg", "w=1"])
def test_guarantees_as_digest_equalities(recorded, computed, tmp_path, method, label):
    """f=0 gives CFG's bits, and w=1 with f=0 conditional-only sampling's:
    the run's digest equals that of its formula's."""
    guidance = golden.RUNS[label]
    assert guidance.f == 0.0
    exp = Experiment(golden.run_config(tmp_path, method, guidance))
    h = _new_digest()
    [finals] = sample_finals([_Formula(exp.base, None, guidance)], *exp._sampling(), digests=[h])
    assert finals.shape == (8 * 16, 2)
    assert h.hexdigest() == computed[f"run/{method}/{label}"] == recorded[f"run/{method}/{label}"]
