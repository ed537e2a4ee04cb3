"""The ``multi-reader`` uplink-scheme family.

Wraps :func:`~repro.sim.multireader.simulate_multi_reader` in the
:class:`~repro.engine.registry.UplinkScheme` contract so multi-reader runs
flow through the campaign engine unchanged — same grids, same caching,
same executor backends, same :class:`~repro.engine.registry.SchemeRun`
rows next to the single-reader schemes.

``multi-reader`` honours the collision mode the scenario's
:class:`~repro.phy.channel.MultiReaderModel` carries; the
``multi-reader-<mode>`` variants pin the mode regardless of scenario, so
one campaign can sweep all three rungs of the interference ladder over
identical deployments (the Fig. 17 experiment does exactly this).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.config import BuzzConfig
from repro.engine.registry import SchemeRun
from repro.nodes.population import TagPopulation
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import COLLISION_MODES, MultiReaderModel
from repro.sim.multireader import simulate_multi_reader

__all__ = ["MultiReaderScheme"]


class MultiReaderScheme:
    """R concurrent readers draining one field, rolled up per §9's metrics.

    ``slots_used`` counts collision slots across *all* readers (kept and
    dropped — both cost airtime), so ``bits_per_symbol`` remains the
    aggregate-rate K/L directly comparable with the single-reader Buzz
    rows; ``duration_s`` is the fleet makespan, which is where concurrency
    pays. A population without a :class:`~repro.phy.channel.
    MultiReaderModel` runs under the stock two-reader one.
    """

    def __init__(self, name: str = "multi-reader", collision_mode: Optional[str] = None):
        if collision_mode is not None and collision_mode not in COLLISION_MODES:
            raise ValueError(
                f"collision_mode must be one of {COLLISION_MODES}, "
                f"got {collision_mode!r}"
            )
        self.name = name
        self.collision_mode = collision_mode

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        model = population.readers or MultiReaderModel()
        if self.collision_mode is not None:
            model = replace(model, collision_mode=self.collision_mode)
        outcome = simulate_multi_reader(
            population, front_end, rng, model, config=config, max_slots=max_slots
        )
        k = len(population)
        truth = population.messages
        return SchemeRun(
            scheme=self.name,
            duration_s=outcome.duration_s,
            message_loss=int(k - outcome.delivered.sum()),
            n_tags=k,
            bits_per_symbol=(
                k / outcome.total_slots if outcome.total_slots else 0.0
            ),
            slots_used=outcome.total_slots,
            transmissions=outcome.transmissions,
            bit_errors=int(np.sum(outcome.messages != truth)),
        )


#: The instances :func:`~repro.engine.registry.get_scheme` registers when
#: one of their names is first asked for.
BUILTIN_SCHEMES = (
    MultiReaderScheme(),
    *(MultiReaderScheme(name=f"multi-reader-{mode}", collision_mode=mode)
      for mode in COLLISION_MODES),
)
