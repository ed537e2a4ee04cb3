"""End-to-end Buzz system: identification + rateless data transfer.

:class:`BuzzSystem` strings together the two protocols the way the paper's
event-driven deployment does (§4a): identify the K active nodes with the
three-stage compressive-sensing protocol, then let them collide their data
under the rateless code, decoding from the recovered view — the ids and
channel estimates obtained during identification — through the session
data segment :func:`~repro.core.mobile.run_mobile_data_segment`. Periodic
networks (§4b) skip identification via :meth:`BuzzSystem.run_data_phase`,
the oracle-view :func:`~repro.core.rateless.run_rateless_uplink`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import BuzzConfig
from repro.core.identification import IdentificationResult, identify
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import RatelessRunResult, run_rateless_uplink
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag

__all__ = ["BuzzRunResult", "BuzzSystem"]


@dataclass
class BuzzRunResult:
    """Combined outcome of one event-driven Buzz interaction."""

    identification: IdentificationResult
    data: RatelessRunResult
    total_duration_s: float

    @property
    def success(self) -> bool:
        """All nodes identified exactly and all messages delivered."""
        return self.identification.exact and bool(self.data.decoded_mask.all())


@dataclass
class BuzzSystem:
    """The reader-side Buzz stack bound to a PHY front end.

    Parameters
    ----------
    front_end:
        Receive chain (noise floor + energy detector).
    config:
        Protocol parameters (paper defaults).
    """

    front_end: ReaderFrontEnd
    config: BuzzConfig = BuzzConfig()

    def run_identification(
        self, tags: Sequence[BackscatterTag], rng: np.random.Generator
    ) -> IdentificationResult:
        """Stage 1–3 identification only (Fig. 14's subject)."""
        return identify(tags, self.front_end, rng, self.config)

    def run_data_phase(
        self, tags: Sequence[BackscatterTag], rng: np.random.Generator
    ) -> RatelessRunResult:
        """Rateless uplink only (periodic-network mode, §4b): the tags'
        temporary ids are assigned statically, so the reader's view is
        the oracle one."""
        return run_rateless_uplink(tags, self.front_end, rng, config=self.config)

    def run(self, tags: Sequence[BackscatterTag], rng: np.random.Generator) -> BuzzRunResult:
        """Full event-driven interaction: identify, then transfer data.

        The data phase is a session's data segment on a static field
        (:func:`~repro.core.mobile.run_mobile_data_segment`), decoding
        from the reader's *recovered* view — the ids and channel estimates
        identification produced — so an inexact identification degrades
        the transfer honestly (missed tags are lost, spurious ids never
        verify, and a reader that recovered nobody only sends its trigger)
        instead of silently borrowing genie knowledge. The richer
        campaign-facing composition of the same two phases lives in
        :mod:`repro.engine.session`.
        """
        ident = self.run_identification(tags, rng)
        estimates = ident.estimates
        k_hat = max(1, len(estimates))
        data = run_mobile_data_segment(
            tags,
            self.front_end,
            rng,
            estimates=estimates,
            trajectory=None,
            participants=np.ones(len(tags), dtype=bool),
            start_s=0.0,
            k_hat=k_hat,
            config=self.config,
            max_slots=self.config.max_data_slots(k_hat),
        )
        return BuzzRunResult(
            identification=ident,
            data=data,
            total_duration_s=ident.duration_s + data.duration_s,
        )
