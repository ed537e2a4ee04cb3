"""Quickstart: one full Buzz interaction, end to end.

Builds a small backscatter deployment, runs the three-stage compressive
sensing identification, then the rateless data phase, and prints what the
reader learned at each step.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import BuzzSystem
from repro.network.scenarios import default_uplink_scenario
from repro.nodes import ReaderFrontEnd


def main() -> None:
    # --- deployment: 8 tags with data, drawn like one paper "location" ----
    scenario = default_uplink_scenario(n_tags=8, message_bits=32)
    population = scenario.draw_population(np.random.default_rng(seed=1))
    print(f"Deployment: {len(population)} active tags")
    print(f"  per-tag SNR (dB): {np.round(population.snrs_db(), 1)}")

    # --- the reader-side Buzz stack ---------------------------------------
    system = BuzzSystem(front_end=ReaderFrontEnd(noise_std=population.noise_std))
    result = system.run(population.tags, np.random.default_rng(seed=2))

    # --- identification ----------------------------------------------------
    ident = result.identification
    print("\nIdentification (3-stage compressive sensing):")
    print(f"  stage-1 estimate K^ = {ident.k_estimate.k_hat} (true K = {len(population)})")
    print(f"  stage-2 candidates  = {ident.bucketing.n_candidates} "
          f"(of {ident.bucketing.occupied.size} buckets)")
    print(f"  recovered ids       = {ident.recovered_ids.tolist()}")
    print(f"  exact               = {ident.exact}")
    print(f"  slots used          = {ident.slots_used}  "
          f"({1e3 * ident.duration_s:.2f} ms)")

    # --- rateless data transfer --------------------------------------------
    data = result.data
    print("\nRateless data phase:")
    print(f"  collision slots     = {data.slots_used}")
    print(f"  aggregate rate      = {data.bits_per_symbol():.2f} bits/symbol")
    print(f"  messages delivered  = {data.n_decoded}/{len(population)}")
    print(f"  bit errors          = {data.bit_errors}")
    print(f"  duration            = {1e3 * data.duration_s:.2f} ms")

    print(f"\nTotal interaction: {1e3 * result.total_duration_s:.2f} ms "
          f"(success = {result.success})")


if __name__ == "__main__":
    main()
