"""Tables 1–2 (§3.2): collisions improve temporary-id distinguishability.

Two nodes, three slots. Option 1 (avoid collisions): each node picks one
slot; they are indistinguishable iff they pick the same slot — probability
1/3. Option 2 (design for collisions): each node picks one of the four
patterns {011, 100, 101, 111}; the reader observes the per-slot *sum* of
patterns (Table 2) and the nodes are indistinguishable iff they picked the
same pattern — probability 1/4, because all distinct unordered pattern
pairs yield distinct collision sums.

``run`` verifies the combinatorial claim exactly and by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, Tuple

import numpy as np

from repro.utils.validation import ensure_positive_int

__all__ = ["ToyExampleResult", "PATTERNS", "collision_table", "run", "render"]

#: Table 1's transmit patterns (one per row, three slots).
PATTERNS: Tuple[Tuple[int, int, int], ...] = ((0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1))


@dataclass(frozen=True)
class ToyExampleResult:
    """Exact and simulated indistinguishability probabilities."""

    option1_exact: float
    option2_exact: float
    option1_simulated: float
    option2_simulated: float
    collision_sums_distinct: bool


def collision_table() -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]]:
    """Table 2: per-slot sums for every unordered pattern pair."""
    table = {}
    for a, b in combinations_with_replacement(PATTERNS, 2):
        table[(a, b)] = tuple(x + y for x, y in zip(a, b))
    return table


def run(n_trials: int = 20_000, seed: int = 0) -> ToyExampleResult:
    """Verify the 1/3 → 1/4 improvement exactly and by Monte Carlo."""
    ensure_positive_int(n_trials, "n_trials")
    rng = np.random.default_rng(seed)

    # Exact: option 2's failure cases are exactly the same-pattern draws —
    # provided distinct unordered pairs give distinct sums, which we check.
    table = collision_table()
    distinct_pairs = {k: v for k, v in table.items() if k[0] != k[1]}
    sums = list(distinct_pairs.values())
    same_pattern_sums = {v for k, v in table.items() if k[0] == k[1]}
    # A distinct pair is unrecoverable only if its sum collides with another
    # *pair*'s sum (the reader maps sums back to unordered pairs).
    distinct_ok = len(set(sums)) == len(sums) and not set(sums) & same_pattern_sums

    option1_exact = 1.0 / 3.0
    option2_exact = 1.0 / 4.0

    # Monte Carlo both options.
    slots = rng.integers(0, 3, size=(n_trials, 2))
    option1_sim = float(np.mean(slots[:, 0] == slots[:, 1]))

    picks = rng.integers(0, len(PATTERNS), size=(n_trials, 2))
    option2_sim = float(np.mean(picks[:, 0] == picks[:, 1]))

    return ToyExampleResult(
        option1_exact=option1_exact,
        option2_exact=option2_exact,
        option1_simulated=option1_sim,
        option2_simulated=option2_sim,
        collision_sums_distinct=distinct_ok,
    )


def render(result: ToyExampleResult) -> str:
    """Text summary mirroring the §3.2 discussion."""
    lines = [
        "Tables 1-2 toy example: probability two nodes get indistinguishable ids",
        f"  option 1 (avoid collisions) : exact {result.option1_exact:.4f}, "
        f"simulated {result.option1_simulated:.4f}",
        f"  option 2 (design collisions): exact {result.option2_exact:.4f}, "
        f"simulated {result.option2_simulated:.4f}",
        f"  distinct pattern pairs yield distinct collision sums: "
        f"{result.collision_sums_distinct}",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run()))
