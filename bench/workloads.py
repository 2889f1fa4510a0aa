"""Benchmark workloads: which seeded problems are solved, and at what size.

Each workload is one CLI-equivalent experiment (the same ``ExperimentSpec``
fields ``rnp deblur`` / ``rnp ct`` would fill in) solved with the
preconditioner off (K=0) and on (K>0).  A run solves ``INSTANCES`` problem
instances whose noise seeds derive from the benchmark's ``--seed``: the work
(CG and dual-ascent iterations) and the quality depend on the noise draw, so
averaging over several draws keeps a run's figures close to the next seed's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

INSTANCES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    K: int
    spec: dict = field(repr=False)  # ExperimentSpec fields besides name/out_dir/seeds/K
    # K=0 solves per visit; short K=0 solves are noisy, so they get more samples
    baseline_repeats: int = 1

    def problem_seeds(self, seed: int) -> list[int]:
        return [seed * INSTANCES + i for i in range(INSTANCES)]

    def experiment(self, problem_seed: int, out_dir: str):
        """The ExperimentSpec of one K=0/K>0 pair on one problem instance."""
        from rnp.harness import ExperimentSpec
        return ExperimentSpec(name=self.name, out_dir=out_dir, seeds=(problem_seed,),
                              sketch_sizes=(0, self.K), **self.spec)

    def smoke(self) -> "Workload":
        """A few-second variant of the same code path, for the benchmark's tests."""
        small = {"deblur": dict(n=32, outer_max=3), "ct": dict(n=32, views=12, outer_max=4)}
        return replace(self, K=min(self.K, 8), spec=dict(self.spec, **small[self.spec["task"]]))


WORKLOADS = {w.name: w for w in (
    Workload(
        "deblur-irm",
        "IRM deblur: sketch and CG do nearly all the work, prox none",
        K=100,
        spec=dict(task="deblur", solver="irm", n=128, kernel="gauss9", p=1.0, q=1.0,
                  lam_grid=(0.05,), noise_frac=0.05, outer_max=20),
        baseline_repeats=3),
    Workload(
        "ct-tv-wapg",
        "WAPG CT with TV: dual ascent and Box Newton prox dominate, sketch is small",
        K=20,
        spec=dict(task="ct", solver="wapg", n=64, views=60, regularizer="tv",
                  lam_grid=(5e-2,), outer_max=60, box_lo=0.0, box_hi=1.0),
        baseline_repeats=3),
    Workload(
        "ct-wavelet-wapg",
        "WAPG CT with wavelet l1: radon and wavelet applies dominate, no dual ascent",
        K=20,
        spec=dict(task="ct", solver="wapg", n=128, views=60, regularizer="wavelet",
                  lam_grid=(2e-2,), outer_max=60, box_lo=0.0, box_hi=1.0)),
)}

