"""The single-phase uplink schemes: Buzz's rateless code and its baselines.

Adapters from the data-phase functions to the
:class:`~repro.engine.registry.UplinkScheme` contract: ``buzz`` and
``silenced`` (the rateless code with genie ids and channels, without and
with ACK silencing), ``tdma`` and ``cdma``. The contract, the
:class:`~repro.engine.registry.SchemeRun` record and the registry live in
:mod:`repro.engine.registry`, which imports no decoder; the names are
re-exported here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.cdma import run_cdma_uplink
from repro.baselines.tdma import run_tdma_uplink
from repro.core.config import BuzzConfig
from repro.core.rateless import oracle_id_space, run_rateless_uplink
from repro.core.silencing import run_rateless_with_silencing
from repro.engine.registry import (  # noqa: F401  (re-exported)
    _REGISTRY,
    SchemeRun,
    UplinkScheme,
    available_schemes,
    get_scheme,
    register_scheme,
)
from repro.nodes.population import TagPopulation
from repro.nodes.reader import ReaderFrontEnd

__all__ = [
    "SchemeRun",
    "UplinkScheme",
    "RatelessScheme",
    "SilencedScheme",
    "TdmaScheme",
    "CdmaScheme",
    "register_scheme",
    "get_scheme",
    "available_schemes",
]


class RatelessScheme:
    """Buzz's data phase: the distributed rateless collision code (§6).

    Draws fresh temporary ids from ``rng`` before the transfer (the
    campaign's per-run randomised schedule), then runs
    :func:`repro.core.rateless.run_rateless_uplink` with genie channel
    knowledge — matching the paper's §9 setup where identification is
    evaluated separately.
    """

    name = "buzz"

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        n = len(population)
        for tag in population.tags:
            tag.draw_temp_id(oracle_id_space(n), rng)
        run = self._transfer(
            population.tags, front_end, rng, config=config, max_slots=max_slots
        )
        return SchemeRun(
            scheme=self.name,
            duration_s=run.duration_s,
            message_loss=run.message_loss,
            n_tags=n,
            bits_per_symbol=run.bits_per_symbol(),
            slots_used=run.slots_used,
            transmissions=run.transmissions.copy(),
            bit_errors=run.bit_errors,
        )

    def _transfer(self, tags, front_end, rng, **kwargs):
        return run_rateless_uplink(tags, front_end, rng, **kwargs)


class SilencedScheme(RatelessScheme):
    """The §8.2 design alternative: rateless code with ACK silencing.

    Same data phase as :class:`RatelessScheme`, but after each decode round
    the reader ACKs every newly verified tag (echoing its temporary id at
    downlink rate) and ACKed tags drop out of later slots. The ACK airtime
    is folded into ``duration_s``, so campaign comparisons price the
    paper's trade-off — silencing saves per-tag transmissions (energy) but
    the downlink overhead erodes the transfer-time win.
    """

    name = "silenced"

    def _transfer(self, tags, front_end, rng, **kwargs):
        return run_rateless_with_silencing(tags, front_end, rng, **kwargs)


class TdmaScheme:
    """The Gen-2 baseline: sequential Miller-4 transmissions."""

    name = "tdma"

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        run = run_tdma_uplink(population.tags, front_end, rng)
        return SchemeRun(
            scheme=self.name,
            duration_s=run.duration_s,
            message_loss=run.message_loss,
            n_tags=len(population),
            bits_per_symbol=run.bits_per_symbol(),
            slots_used=len(population),
            transmissions=run.transmissions.copy(),
            bit_errors=run.bit_errors,
        )


class CdmaScheme:
    """The synchronous-CDMA baseline with on-off Walsh spreading."""

    name = "cdma"

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        run = run_cdma_uplink(population.tags, front_end, rng)
        return SchemeRun(
            scheme=self.name,
            duration_s=run.duration_s,
            message_loss=run.message_loss,
            n_tags=len(population),
            bits_per_symbol=run.bits_per_symbol(),
            slots_used=run.spreading_factor,
            transmissions=run.transmissions.copy(),
            bit_errors=run.bit_errors,
        )


#: The instances :func:`~repro.engine.registry.get_scheme` registers when
#: one of their names is first asked for.
BUILTIN_SCHEMES = (RatelessScheme(), TdmaScheme(), CdmaScheme(), SilencedScheme())
