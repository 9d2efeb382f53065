"""The benchmark's workloads: scenario specs generated from a seed.

Each workload is a :class:`~repro.scenarios.spec.ScenarioSpec` whose
overlay seed and ``base_seed`` both come from the benchmark's ``--seed``,
so the same seed always gives the same inputs.  Every workload runs through
``ScenarioRunner.run``, the path a user of the library takes.

``small=True`` gives a scaled-down copy (500 peers, fewer broadcasts) with
the same layers and engines, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.scenarios.spec import (
    AdversarySpec,
    ConditionsSpec,
    ScenarioSpec,
    SeedPolicy,
    TopologySpec,
    WorkloadSpec,
)

#: The seed whose run digests are pinned in :data:`PINNED_DIGESTS`.
DEFAULT_SEED = 1

#: ``ScenarioResult.digest`` of every full-size workload at
#: :data:`DEFAULT_SEED`.  A run whose digest differs counts as failed.
PINNED_DIGESTS: Dict[str, str] = {
    "three_phase_10k":
        "8bcbaa3ad0a7cf10f34c84d349213ff86bfe993c6343ed89dafff3e22b32bf5b",
    "flood_cold_100k":
        "be8cc6eb1007f5d2c59c3e2fdebc493d3e7aa3a2f55a6858111cf2c8b840e33e",
    "dandelion_wan_sweep":
        "74f428fc8c5060bcb5078238be6ef0bc23308ce5906fd75605759af445367a93",
}


def _overlay(peers: int, seed: int) -> TopologySpec:
    return TopologySpec(
        "random_regular", {"num_nodes": peers, "degree": 8, "seed": seed}
    )


_IDEAL = ConditionsSpec(kind="ideal", delay=0.1)
_ADVERSARY = AdversarySpec(fraction=0.2, estimator="first_spy")


def three_phase_10k(seed: int, small: bool = False) -> ScenarioSpec:
    """The paper's protocol: 10,000 peers, 5 broadcasts, one session."""
    return ScenarioSpec(
        name="three_phase_10k",
        topology=_overlay(500 if small else 10_000, seed),
        conditions=_IDEAL,
        protocol="three_phase",
        protocol_options={"group_size": 5, "diffusion_depth": 3},
        adversary=_ADVERSARY,
        workload=WorkloadSpec(broadcasts=5),
        seeds=SeedPolicy(base_seed=seed, repetitions=1),
        engine="batched",
    )


def flood_cold_100k(seed: int, small: bool = False) -> ScenarioSpec:
    """One cold sharded flood over 100,000 peers."""
    return ScenarioSpec(
        name="flood_cold_100k",
        topology=_overlay(500 if small else 100_000, seed),
        conditions=_IDEAL,
        protocol="flood",
        adversary=_ADVERSARY,
        workload=WorkloadSpec(broadcasts=1),
        seeds=SeedPolicy(base_seed=seed, repetitions=1),
        engine="sharded",
        shards=2,
    )


def dandelion_wan_sweep(seed: int, small: bool = False) -> ScenarioSpec:
    """Many short Dandelion attack runs on a lossy, jittery WAN."""
    return ScenarioSpec(
        name="dandelion_wan_sweep",
        topology=_overlay(500 if small else 1_000, seed),
        conditions=ConditionsSpec(
            kind="internet_like", low=0.1, high=0.6,
            loss_probability=0.02, jitter=0.2,
        ),
        protocol="dandelion",
        protocol_options={"fluff_probability": 0.1},
        adversary=_ADVERSARY,
        workload=WorkloadSpec(broadcasts=5 if small else 25, sender_pool=5),
        seeds=SeedPolicy(base_seed=seed, repetitions=2 if small else 8),
        engine="batched",
    )


@dataclass(frozen=True)
class Workload:
    """A named spec generator plus how the benchmark runs and checks it.

    Attributes:
        spec: ``(seed, small) -> ScenarioSpec``.
        processes: ``ScenarioRunner`` processes for the untraced run.
        lossless: every broadcast must reach every peer.
        expected_engine: the engine the run should end up on today.
        why: one line on what the workload stresses.
    """

    name: str
    spec: Callable[[int, bool], ScenarioSpec]
    processes: int
    lossless: bool
    expected_engine: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "three_phase_10k", three_phase_10k, 1, True, "event",
            "the paper's protocol at 10k peers: group formation in set-up, "
            "then event-engine three-phase flood deliveries",
        ),
        Workload(
            "flood_cold_100k", flood_cold_100k, 1, True, "sharded",
            "cold 100k-peer sharded flood: overlay build, CSR and partition, "
            "sharded windows, then the first adversary query's flush",
        ),
        Workload(
            "dandelion_wan_sweep", dandelion_wan_sweep, 2, False, "event",
            "200 short lossy-WAN Dandelion sessions on a 2-process pool, with "
            "latency, loss and jitter draws on every send",
        ),
    )
}


def check_run(
    workload: Workload,
    spec: ScenarioSpec,
    runs: List[Dict[str, float]],
    probe: Dict[str, float],
    digest: str,
    expect_digest: Optional[str],
) -> List[str]:
    """Problems with one finished run (an empty list means correct).

    Invariants hold for every seed: full reach on the lossless workloads
    and, for the three-phase protocol, per-phase message counts that are
    all non-zero and sum to each broadcast's total.  ``probe`` holds the
    execution probe's counters.  ``expect_digest``, when given, must equal
    the run's digest.
    """
    problems = []
    if workload.lossless:
        for index, run in enumerate(runs):
            if run["mean_reach"] != 1.0:
                problems.append(
                    f"repetition {index}: mean reach {run['mean_reach']} < 1"
                )
    if spec.protocol == "three_phase":
        expected = spec.workload.broadcasts * len(runs)
        if probe["phase_broadcasts"] != expected:
            problems.append(
                f"saw {probe['phase_broadcasts']:.0f} three-phase "
                f"broadcasts, expected {expected}"
            )
        if probe["phase_bad"]:
            problems.append(
                f"{probe['phase_bad']:.0f} three-phase broadcast(s) with a "
                "zero phase or phase counts that do not sum to the total"
            )
    if expect_digest is not None and digest != expect_digest:
        problems.append(f"digest {digest} != pinned {expect_digest}")
    return problems
