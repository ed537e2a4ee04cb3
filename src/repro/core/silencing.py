"""The §8.2 design alternative: ACK-silencing decoded tags.

Buzz deliberately lets tags keep transmitting after their message has been
decoded, because silencing a tag requires the reader to ACK it by echoing
its temporary id — downlink time the paper estimates at ~75 % of the uplink
transfer for 14 tags. This module implements the alternative so the
trade-off can be measured rather than asserted:

* the protocol runs the same data-phase loop as
  :func:`repro.core.rateless.run_rateless_uplink`, but after each decode
  round the reader transmits one ACK per *newly* verified tag (at downlink
  rate, echoing the temporary id), and silenced tags drop out of all later
  slots;
* silenced tags save transmit energy and reduce later collision depth, but
  every ACK costs wall-clock time and the remaining tags' code becomes
  denser-per-capita only slowly.

The ablation bench compares total transfer time and per-tag transmissions
with and without silencing, reproducing the paper's conclusion that the
ACK overhead outweighs the benefit at these message sizes. The variant is
also registered as the ``silenced`` scheme in :mod:`repro.engine.schemes`,
so any campaign, figure driver, or ``python -m repro --schemes silenced``
invocation can sweep it alongside the paper's three schemes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coding.prng import slot_decision_matrix  # noqa: F401 -- bound by perfbench's tracer
from repro.core.config import BuzzConfig
from repro.core.rateless import RatelessRunResult, _run_oracle, ack_duration_s
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag

__all__ = ["run_rateless_with_silencing", "ack_duration_s"]


def run_rateless_with_silencing(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    config: BuzzConfig = BuzzConfig(),
    max_slots: Optional[int] = None,
) -> RatelessRunResult:
    """Rateless uplink where verified tags are ACKed and go silent.

    Semantics match :func:`repro.core.rateless.run_rateless_uplink` with
    the oracle reader view, except that after any decode round that
    verifies new messages, the reader spends ``ack_duration_s`` per new
    message and those tags stop participating in subsequent slots. The
    decoder regenerates D with the silenced set masked out (the reader
    knows exactly whom it ACKed).

    This is the oracle-view entry point. A silenced data phase over the
    reader's *recovered* view — every ``silenced-e2e`` and
    ``silenced-adaptive`` session — is :func:`repro.core.mobile.
    run_mobile_data_segment` with ``ack_s`` set.
    """
    return _run_oracle(tags, front_end, rng, config, max_slots, silencing=True)
