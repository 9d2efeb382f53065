"""E1 — §V-A: adaptive diffusion vs flood-and-prune message overhead.

Paper claim: reaching all 1,000 peers took on average ~12,500 messages with
adaptive diffusion against ~7,000 messages for a regular flood-and-prune
broadcast.  The benchmark reproduces the flood figure directly and measures
the adaptive-diffusion overhead with this library's accounting (payload
messages plus token/spread control traffic, stopping at full coverage).
"""

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize

REPETITIONS = 3


def _measure(overlay_1000, broadcast_once):
    flood_counts = []
    diffusion_counts = []
    diffusion_payload = []
    for seed in range(REPETITIONS):
        flood, _ = broadcast_once(
            overlay_1000, "flood", source=seed, seed=seed
        )
        flood_counts.append(float(flood.messages))
        result, simulator = broadcast_once(
            overlay_1000, "adaptive_diffusion", source=seed, seed=seed
        )
        assert result.reach == overlay_1000.number_of_nodes()
        diffusion_counts.append(float(result.messages))
        diffusion_payload.append(
            float(simulator.metrics.message_count(kind="ad_payload"))
        )
    return flood_counts, diffusion_counts, diffusion_payload


def test_e1_message_overhead(benchmark, overlay_1000, broadcast_once):
    flood, diffusion, diffusion_payload = benchmark.pedantic(
        _measure, args=(overlay_1000, broadcast_once), iterations=1, rounds=1
    )
    flood_mean = summarize(flood).mean
    diffusion_mean = summarize(diffusion).mean
    print()
    print(
        format_table(
            ["protocol", "messages (mean)", "paper"],
            [
                ["flood-and-prune", flood_mean, 7000],
                ["adaptive diffusion (total)", diffusion_mean, 12500],
                ["adaptive diffusion (payload only)", summarize(diffusion_payload).mean, "-"],
            ],
            title="E1: messages to reach all 1,000 peers",
        )
    )
    # Shape checks: the flood cost matches the paper closely; adaptive
    # diffusion needs additional control traffic on top of its payload
    # deliveries and is never cheaper than a spanning tree.
    assert 6000 <= flood_mean <= 8500
    assert diffusion_mean > summarize(diffusion_payload).mean
    assert diffusion_mean >= 0.75 * flood_mean
