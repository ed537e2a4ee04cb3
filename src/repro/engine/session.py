"""Complete reader sessions: identification, then the data phase.

The paper's headline claim is about *complete sessions*: the reader
estimates K, buckets temporary ids, recovers the active set and its
complex channels by compressive sensing (§5), and only then runs the
rateless data phase (§6) on what it recovered. The engine's single-phase
schemes deliberately start from oracle tag knowledge (the §9 setup);
this module closes the loop with the two sessions the repo runs, each a
registry-compatible :class:`~repro.engine.registry.UplinkScheme`:

* :class:`SessionPipeline` — Buzz's identify → data-segment loop,
  registered as ``buzz-e2e`` (rateless data phase on the recovered ids
  and estimated channels), ``silenced-e2e`` (ACK-silenced data phase),
  and the adaptive ``buzz-adaptive`` / ``silenced-adaptive``, which
  monitor a mobile data phase for verification stalls and re-run
  identification mid-session, splicing the refreshed estimates into a
  fresh decoder view.
* :class:`Gen2Session` — ``gen2-tdma-e2e``: today's RFID session (FSA
  inventory → TDMA transfer) as the baseline.

Both fill the :class:`~repro.engine.registry.SchemeRun` stage fields:
``duration_s`` is exactly ``identification_s + data_s`` and
``transmissions`` sums each tag's reflections over both phases for the
energy model. A static field is the loop with no trajectory. On *mobile*
populations (scenarios carrying a
:class:`~repro.phy.channel.MobilityModel`) channels drift block-by-block
during the data phase, departed tags fall silent, late arrivals wait for
the next identification.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.config import BuzzConfig
from repro.core.identification import identify
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import ack_duration_s
from repro.engine.registry import SchemeRun, get_scheme
from repro.gen2.fsa import FsaConfig, run_fsa_inventory
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.population import TagPopulation
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelTrajectory

__all__ = ["SessionPipeline", "Gen2Session"]

#: An adaptive session's stall monitor trips after this many data slots
#: per view column verify nothing new.
STALL_SLOTS_FACTOR = 2.0
#: Mid-session identification re-runs an adaptive session may perform.
MAX_REIDENTIFICATIONS = 2


class SessionPipeline:
    """A Buzz session: identify, then run the data phase on the view.

    Parameters
    ----------
    name:
        The registry name the session's records carry.
    silencing:
        Run the §8.2 ACK-silenced data phase instead of the plain one.
    adaptive:
        Arm the stall monitor on mobile fields: whenever
        ``STALL_SLOTS_FACTOR × |view|`` consecutive data slots (at least 8)
        verify nothing new, the data phase is interrupted and
        identification re-runs over the tags *now* present, at most
        ``MAX_REIDENTIFICATIONS`` times and within the session's global
        data-slot budget. Messages verified before an interruption stay
        delivered. On a static field the monitor stays off, so an adaptive
        session equals its plain twin there.

    The session draws nothing itself beyond one trajectory seed on a
    mobile field and consumes the cell generator strictly phase by phase,
    so campaigns over it keep the engine's serial ≡ parallel bit-identity
    and per-cell cacheability. Airtime is priced off the Gen-2 default
    timing, the model every phase of the stack uses.
    """

    def __init__(self, name: str, silencing: bool = False, adaptive: bool = False):
        self.name = name
        self.silencing = silencing
        self.adaptive = adaptive

    def _make_trajectory(
        self, population: TagPopulation, rng: np.random.Generator
    ) -> ChannelTrajectory:
        """Realise the population's mobility over a dedicated generator.

        Exactly one draw is taken from the cell generator, so a session's
        remaining randomness is untouched by how far the trajectory is
        queried. Overridable — the failure-injection tests pin departure
        schedules here.
        """
        return ChannelTrajectory(
            population.channels,
            population.mobility,
            np.random.default_rng(rng.integers(0, 2**63)),
        )

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        """Identify the tags *currently present*, run the data phase from
        the recovered view while the trajectory keeps moving, and — when
        the stall monitor trips and the budgets allow — re-identify and
        splice the refreshed estimates and id set into a fresh decoder
        view. A session that is not adaptive runs the loop body once.

        A static field (no mobility, or all rates zero) is the loop with no
        trajectory: no draw realises one, every tag is present, the tags'
        channels stay untouched and the stall monitor stays off
        (``reidentifications=None``); when identification recovers nobody,
        the static session still runs its segment, which charges only the
        trigger command (a mobile one stops without a trigger).

        Each segment builds its own decoder in
        :func:`~repro.core.mobile.run_mobile_data_segment`, so every
        refreshed view starts a clean
        :class:`~repro.core.decoder_state.DecoderState` (new seeds, new
        channel estimates, empty collision matrix) instead of mutating one
        built against the stale view.
        """
        tags = population.tags
        k = len(population)
        messages = population.messages
        mobility = getattr(population, "mobility", None)
        trajectory = (
            None
            if mobility is None or mobility.is_static
            else self._make_trajectory(population, rng)
        )
        # Identification reads each tag's channel, so on a mobile field the
        # loop below writes trajectory snapshots into the tag objects;
        # restore the t = 0 draw afterwards — a session must not mutate its
        # inputs (the population is an input to the pure cell function).
        original_channels = [tag.channel for tag in tags]

        now = 0.0
        ident_parts: list = []
        data_parts: list = []
        transmissions = np.zeros(k, dtype=int)
        data_transmissions = np.zeros(k, dtype=int)
        delivered = np.zeros(k, dtype=bool)
        final_messages = np.zeros_like(messages)
        retries = 0
        reidentifications = 0
        slots_total = 0
        budget: Optional[int] = None

        try:
            while True:
                present_idx = (
                    np.arange(k) if trajectory is None
                    else np.flatnonzero(trajectory.active_at(now))
                )
                if present_idx.size == 0:
                    # The reader triggers into an empty field: no reply, no
                    # candidates, no data phase — the empty-view short-circuit.
                    ident_parts.append(GEN2_DEFAULT_TIMING.query_duration_s())
                    now += GEN2_DEFAULT_TIMING.query_duration_s()
                    break
                if trajectory is not None:
                    # Identification observes the field as it stands now: the
                    # current fading block's channels (block fading holds them
                    # for the short identification exchange) and only the
                    # present tags.
                    snapshot = trajectory.channels_at(now)
                    for i in present_idx:
                        tags[i].channel = complex(snapshot[i])
                ident = identify(
                    [tags[i] for i in present_idx], front_end, rng, config=config
                )
                ident_parts.append(ident.duration_s)
                now += ident.duration_s
                retries += ident.attempts - 1
                transmissions[present_idx] += ident.transmissions

                estimates = ident.estimates
                if len(estimates) == 0 and trajectory is not None:
                    # Recovered nobody: a mobile session issues no data
                    # trigger. A static one runs the segment, which prices
                    # the trigger it sends and opens no data phase.
                    break
                # The reader's working K̂ for the data phase is what it
                # *recovered* (each recovered id is one talker); Stage 1's
                # coarse estimate only sizes the id space ACKs are priced in.
                k_hat = max(1, int(ident.recovered_ids.size))
                if budget is None:
                    budget = (
                        max_slots if max_slots is not None else config.max_data_slots(k_hat)
                    )
                if budget <= 0 and trajectory is not None:
                    break  # no slots: a static session still sends the trigger
                participants = np.zeros(k, dtype=bool)
                participants[present_idx] = True
                stall_limit = None
                if self.adaptive and trajectory is not None:
                    # Floor of 8: tiny views verify their first message within
                    # a handful of slots, but the monitor must never beat the
                    # decoder's ramp-up to it.
                    stall_limit = max(
                        8, int(math.ceil(STALL_SLOTS_FACTOR * max(1, len(estimates))))
                    )
                ack_s = (
                    ack_duration_s(config.temp_id_space(max(1, ident.k_estimate.k_hat)))
                    if self.silencing else None
                )
                segment = run_mobile_data_segment(
                    tags,
                    front_end,
                    rng,
                    estimates=estimates,
                    trajectory=trajectory,
                    participants=participants,
                    start_s=now,
                    k_hat=k_hat,
                    config=config,
                    max_slots=budget,
                    stall_limit=stall_limit,
                    ack_s=ack_s,
                )
                data_parts.append(segment.duration_s)
                now += segment.duration_s
                budget -= segment.slots_used
                slots_total += segment.slots_used
                transmissions += segment.transmissions
                data_transmissions += segment.transmissions
                # Refresh message estimates for every tag this view served,
                # except rows already delivered earlier and not re-verified now
                # (a later stale estimate must not clobber a verified message).
                refresh = segment.in_view & (segment.decoded_mask | ~delivered)
                final_messages[refresh] = segment.messages[refresh]
                delivered |= segment.decoded_mask

                if (
                    bool(delivered.all()) or not segment.stalled or budget <= 0
                    or reidentifications >= MAX_REIDENTIFICATIONS
                ):
                    break
                reidentifications += 1

        finally:
            # The loop writes trajectory snapshots into tag.channel for
            # identification; hand the population back with its t = 0 draw.
            for tag, channel in zip(tags, original_channels):
                tag.channel = channel

        identification_s = math.fsum(ident_parts)
        data_s = math.fsum(data_parts)
        return SchemeRun(
            scheme=self.name,
            duration_s=identification_s + data_s,
            message_loss=int((~delivered).sum()),
            n_tags=k,
            bits_per_symbol=(k / slots_total) if slots_total else float("inf"),
            slots_used=slots_total,
            transmissions=transmissions,
            bit_errors=int(np.count_nonzero(final_messages != messages)),
            identification_s=identification_s,
            data_s=data_s,
            retries=retries,
            data_transmissions=data_transmissions,
            reidentifications=None if trajectory is None else reidentifications,
        )


class Gen2Session:
    """Today's RFID session: a Gen-2 FSA inventory, then a TDMA transfer.

    The inventory resolves every tag's identity but learns no channels;
    the registered ``tdma`` scheme then moves every message over the
    deployment frozen at ``t = 0``. ``retries`` counts the inventory's
    extra rounds.
    """

    def __init__(self, name: str):
        self.name = name

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        k = len(population)
        inv = run_fsa_inventory(FsaConfig(n_tags=k), rng)
        # Every unresolved tag replies once per processed occupied slot; the
        # inventory only records the total, so the per-tag split is even
        # (deterministic remainder-first) — accurate in aggregate, which is
        # all the energy model consumes.
        base, remainder = divmod(int(inv.total_replies), k) if k else (0, 0)
        ident_tx = np.full(k, base, dtype=int)
        ident_tx[:remainder] += 1
        data = get_scheme("tdma").run(
            population, front_end, rng, config=config, max_slots=max_slots
        )
        data_tx = np.asarray(data.transmissions, dtype=int)
        return replace(
            data,
            scheme=self.name,
            duration_s=inv.total_time_s + data.duration_s,
            transmissions=ident_tx + data_tx,
            identification_s=inv.total_time_s,
            data_s=data.duration_s,
            retries=max(0, inv.rounds - 1),
            data_transmissions=data_tx,
        )


# ---- the end-to-end variants every campaign can sweep -------------------------
#: The instances :func:`~repro.engine.registry.get_scheme` registers when
#: one of their names is first asked for.
BUILTIN_SCHEMES = (
    SessionPipeline("buzz-e2e"),
    SessionPipeline("silenced-e2e", silencing=True),
    Gen2Session("gen2-tdma-e2e"),
    SessionPipeline("buzz-adaptive", adaptive=True),
    SessionPipeline("silenced-adaptive", silencing=True, adaptive=True),
)
