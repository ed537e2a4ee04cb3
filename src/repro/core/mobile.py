"""A data phase over the reader's recovered view, on a static or moving field.

:func:`run_mobile_data_segment` runs the data-phase loop of
:mod:`repro.core.rateless` from an identification's recovered ids and
estimated channels — the one recovered-view entry point, serving every
session of :mod:`repro.engine.session` and
:meth:`repro.core.buzz.BuzzSystem.run`. A reader that recovered nobody
opens no data phase: the segment returns the trigger-only result (no
slots, every message lost). Without a trajectory the field is static.
Against a :class:`~repro.phy.channel.ChannelTrajectory` the *current*
fading block shapes the received symbols per slot, tags that departed
(or have not yet arrived) stay off the air, and only tags that heard the
most recent identification trigger participate at all. The decoder still
works from the (by now possibly stale) channel estimates — exactly the
mismatch mobility creates in a real deployment.

On top sits the **stall monitor**, the adaptive session's trigger: the
segment's :class:`~repro.core.rateless.RatelessDecoder` counts slots
since its last newly verified message and, past a configurable limit,
reports itself ``stalled``; the segment stops and the pipeline can re-run
identification and splice fresh estimates into a new segment. Without a
limit a segment runs to the same termination conditions as a static
field; an adaptive session passes one only on a mobile field, so on a
static one it equals its plain twin.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.coding.prng import slot_decision_matrix  # noqa: F401 -- bound by perfbench's tracer
from repro.core.config import BuzzConfig
from repro.core.identification import ChannelEstimates
from repro.core.rateless import RatelessRunResult, _ReaderView, _run_data_phase
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag
from repro.phy.channel import ChannelTrajectory

__all__ = ["run_mobile_data_segment"]


def _decoder_view(tag_seeds: List[int], estimates: ChannelEstimates) -> _ReaderView:
    """The reader's recovered view: the decoder columns are the ids and
    channel estimates identification produced, mapped onto the tags by
    temporary id. A tag whose id was not recovered maps to −1: it
    transmits into slots the reader cannot explain and its message counts
    as lost. A spurious recovered id becomes a phantom column that never
    verifies."""
    view_seeds = estimates.seeds()
    index: dict = {}
    for j, s in enumerate(view_seeds):
        index.setdefault(s, j)
    mapping = np.array([index.get(s, -1) for s in tag_seeds], dtype=int)
    return _ReaderView(view_seeds, estimates.values, mapping, False)


def run_mobile_data_segment(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    *,
    estimates: ChannelEstimates,
    trajectory: Optional[ChannelTrajectory],
    participants: np.ndarray,
    start_s: float,
    k_hat: int,
    config: BuzzConfig = BuzzConfig(),
    max_slots: int,
    stall_limit: Optional[int] = None,
    ack_s: Optional[float] = None,
) -> RatelessRunResult:
    """Run one data-phase segment over the population.

    ``trajectory=None`` is a static field with the tags' own channels.
    ``participants`` marks the tags that were present at the most recent
    identification — only they hold current temporary ids and heard the
    data trigger, so only they may reflect; each still does so *only*
    while ``trajectory.active_at(t)`` keeps it in the field. The reader's
    decoder is built solely from ``estimates`` (the identification's
    recovered ids and estimated channels) and never sees the drifted
    truth; an empty view returns the trigger-only result without drawing
    from ``rng``. ``stall_limit`` bounds the slots the reader tolerates
    without a newly verified message before giving up on the current view
    (``None`` disables the monitor). ``ack_s`` turns on §8.2 silencing:
    each newly verified tag costs one ACK of that airtime and drops out of
    later slots.

    Each segment constructs a **fresh** :class:`~repro.core.rateless.
    RatelessDecoder`, which is exactly how an adaptive re-identification
    splice invalidates the persistent incremental decode state — the
    refreshed view (seeds, channel estimates) gets a clean
    :class:`~repro.core.decoder_state.DecoderState` rather than a stale
    one patched in place. Within a segment the view is constant, so the
    decoder's incremental path stays valid for every slot the segment
    collects. With a trajectory the loop receives slot by slot:
    ``trajectory.channels_at(now)`` is evaluated at each slot's airtime,
    and ``now`` includes the accumulated silencing-ACK overhead, which is
    only known after the previous slots' decodes.
    """
    k = len(tags)
    if k == 0:
        raise ValueError("need at least one tag")
    participants = np.asarray(participants, dtype=bool)
    if participants.shape != (k,):
        raise ValueError("participants must be one flag per tag")
    messages = np.stack([t.message for t in tags])
    if len(estimates) == 0:
        # The reader recovered nobody: it never opens a data phase, every
        # message is lost, and only the trigger command costs airtime.
        return RatelessRunResult(
            decoded_mask=np.zeros(k, dtype=bool),
            messages=np.zeros((k, messages.shape[1]), dtype=np.uint8),
            slots_used=0,
            duration_s=GEN2_DEFAULT_TIMING.query_duration_s(),
            transmissions=np.zeros(k, dtype=int),
            progress=[],
            bit_errors=int(np.count_nonzero(messages)),
            in_view=np.zeros(k, dtype=bool),
        )

    # Schedule seeds for the vectorized per-block draw; non-participant
    # tags use a placeholder seed and never go on the air.
    tag_seeds = [
        int(tag.temp_id) if participants[i] and tag.temp_id is not None else 0
        for i, tag in enumerate(tags)
    ]
    channels = (
        trajectory.channels_at(start_s) if trajectory is not None
        else np.array([t.channel for t in tags], dtype=complex)
    )
    # Tag → view-column mapping: the recovered view, with non-participants
    # cut out — their stale temporary ids did not come from *this*
    # identification (but a departed participant's id may well be in the
    # view — mobility's whole failure surface).
    view = _decoder_view(tag_seeds, estimates)
    view = view._replace(mapping=np.where(participants, view.mapping, -1))
    return _run_data_phase(
        messages,
        channels,
        front_end,
        rng,
        tag_seeds=tag_seeds,
        view=view,
        density=config.data_density(max(1, k_hat)),
        limit=int(max_slots),
        config=config,
        trajectory=trajectory,
        participants=participants,
        start_s=start_s,
        ack_s=ack_s,
        stall_limit=stall_limit,
    )
