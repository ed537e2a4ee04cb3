"""Session pipeline: identification + data phase as composable stages.

The paper's headline claim is about *complete sessions*: the reader
estimates K, buckets temporary ids, recovers the active set and its
complex channels by compressive sensing (§5), and only then runs the
rateless data phase (§6) on what it recovered. The engine's single-phase
schemes deliberately start from oracle tag knowledge (the §9 setup);
this module closes the loop.

* :class:`SessionStage` — the stage contract: consume and extend one
  :class:`SessionState`, return a :class:`StageAccount` of airtime, slots,
  per-tag transmissions and restarts.
* :class:`IdentificationStage` — wraps :func:`repro.core.identification.
  identify` (including its duplicate-id retry loop) or the Gen-2
  alternatives (FSA, FSA seeded with Buzz's K̂, binary tree).
* :class:`DataStage` — wraps any registered
  :class:`~repro.engine.schemes.UplinkScheme` and runs its plain ``run``
  path (TDMA/CDMA — identity-agnostic transfers).
* :class:`SessionPipeline` — composes the stages into one
  :class:`~repro.engine.schemes.UplinkScheme`, so every campaign, cache
  key, figure driver and ``python -m repro --schemes`` sweep gets the
  end-to-end variants for free. Its :class:`~repro.engine.schemes.
  SchemeResult` decomposes ``duration_s`` exactly into
  ``identification_s + data_s`` and sums per-tag transmissions across
  stages for the energy model.

Registered end-to-end variants: ``buzz-e2e`` (three-stage identification
→ rateless data phase on estimated channels), ``silenced-e2e`` (same
identification → ACK-silenced data phase), and ``gen2-tdma-e2e`` (FSA
inventory → TDMA transfer) — today's RFID session as the baseline.

A Buzz identification followed by a rateless-family data stage runs one
identify → data-segment loop on every field, never the generic stage
path: the data phase works from the *recovered* ids and *estimated*
channels, never the oracle ones. A static field is the loop with no
trajectory. On *mobile* populations (scenarios carrying a
:class:`~repro.phy.channel.MobilityModel`) channels drift block-by-block
during the data phase, departed tags fall silent, late arrivals wait for
the next identification. :class:`AdaptiveSessionPipeline` — registered as
``buzz-adaptive`` / ``silenced-adaptive`` — additionally monitors a mobile
data phase for verification stalls and re-runs identification
mid-session, splicing the refreshed estimates into a fresh decoder view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.config import BuzzConfig
from repro.core.identification import ChannelEstimates, IdentificationResult, identify
from repro.core.mobile import run_mobile_data_segment
from repro.engine.schemes import SchemeResult, get_scheme, register_scheme
from repro.gen2.btree import BTreeConfig, run_btree_inventory
from repro.gen2.fsa import FsaConfig, run_fsa_inventory
from repro.gen2.timing import GEN2_DEFAULT_TIMING, LinkTiming
from repro.nodes.population import TagPopulation
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelTrajectory

__all__ = [
    "StageAccount",
    "SessionState",
    "SessionStage",
    "IdentificationStage",
    "DataStage",
    "SessionPipeline",
    "AdaptiveSessionPipeline",
]

#: Data schemes the session loop drives slot by slot (the rateless family).
RATELESS_DATA_SCHEMES = ("buzz", "silenced")

#: Identification protocols :class:`IdentificationStage` knows how to run.
IDENTIFICATION_METHODS = ("buzz", "fsa", "fsa-khat", "btree")


@dataclass(frozen=True)
class StageAccount:
    """What one stage cost: the pipeline's per-stage ledger entry.

    Attributes
    ----------
    stage:
        The stage's display name (e.g. ``identify-buzz``).
    kind:
        ``"identification"`` or ``"data"`` — which
        :class:`~repro.engine.schemes.SchemeResult` bucket the airtime
        lands in.
    duration_s:
        Wall-clock airtime the stage consumed.
    slots_used:
        Air slots the stage consumed (scheme-specific meaning for data
        stages, protocol slots for identification).
    transmissions:
        Per-tag transmission counts within this stage (energy model).
    retries:
        Protocol restarts within the stage (duplicate-id restarts for
        Buzz identification, extra inventory rounds for FSA).
    """

    stage: str
    kind: str
    duration_s: float
    slots_used: int
    transmissions: np.ndarray
    retries: int = 0


@dataclass
class SessionState:
    """Mutable context threaded through a session's stages.

    Identification stages *write* the reader's recovered view
    (``estimates``, ``k_hat``, ``id_space``, the full protocol trace in
    ``identification``); data stages *read* it. A fresh state holds only
    the grid cell's inputs, so a pipeline run is a pure function of
    ``(population, front_end, rng, config, max_slots)`` — the engine's
    determinism contract.
    """

    population: TagPopulation
    front_end: ReaderFrontEnd
    rng: np.random.Generator
    config: BuzzConfig = field(default_factory=BuzzConfig)
    max_slots: Optional[int] = None
    timing: LinkTiming = GEN2_DEFAULT_TIMING

    #: The reader's post-identification view (recovered ids + estimated
    #: channels); ``None`` until a channel-estimating stage ran.
    estimates: Optional[ChannelEstimates] = None
    #: The reader's working estimate of K (drives the data-phase density).
    k_hat: Optional[int] = None
    #: Temporary-id space of the last identification attempt (ACK pricing).
    id_space: Optional[int] = None
    #: Full three-stage protocol trace, when the Buzz identifier ran.
    identification: Optional[IdentificationResult] = None
    #: The data stage's unified record, once it ran.
    data: Optional[SchemeResult] = None


@runtime_checkable
class SessionStage(Protocol):
    """The contract every composable session stage satisfies."""

    name: str
    kind: str

    def run(self, state: SessionState) -> StageAccount:
        """Advance the session, mutating ``state``, and account the cost."""
        ...


class IdentificationStage:
    """The session's first act: figure out who wants to talk.

    Parameters
    ----------
    method:
        ``"buzz"`` — the three-stage compressive-sensing protocol,
        including the duplicate-id retry loop; the only method that
        produces channel estimates. ``"fsa"`` — the Gen-2 inventory.
        ``"fsa-khat"`` — FSA seeded with a previous Buzz stage's K̂ (reads
        ``state.identification``; Fig. 14's third protocol). ``"btree"``
        — the binary splitting tree.
    max_attempts:
        Restart budget for the Buzz retry loop.
    """

    kind = "identification"

    def __init__(self, method: str = "buzz", max_attempts: int = 3):
        if method not in IDENTIFICATION_METHODS:
            raise ValueError(
                f"unknown identification method {method!r}; "
                f"known: {', '.join(IDENTIFICATION_METHODS)}"
            )
        self.method = method
        self.max_attempts = max_attempts
        self.name = f"identify-{method}"

    def run(self, state: SessionState) -> StageAccount:
        return getattr(self, "_run_" + self.method.replace("-", "_"))(state)

    # ---- Buzz (§5): the only method that estimates channels -----------------
    def _run_buzz(self, state: SessionState) -> StageAccount:
        ident = identify(
            state.population.tags,
            state.front_end,
            state.rng,
            config=state.config,
            timing=state.timing,
            max_attempts=self.max_attempts,
        )
        state.identification = ident
        state.estimates = ident.estimates
        # The reader's working K̂ for the data phase is what it *recovered*
        # (each recovered id is one talker); Stage 1's coarse estimate only
        # seeds the protocol's sizing decisions.
        state.k_hat = max(1, int(ident.recovered_ids.size))
        state.id_space = state.config.temp_id_space(max(1, ident.k_estimate.k_hat))
        return StageAccount(
            stage=self.name,
            kind=self.kind,
            duration_s=ident.duration_s,
            slots_used=ident.slots_used,
            transmissions=ident.transmissions.copy(),
            retries=ident.attempts - 1,
        )

    # ---- Gen-2 alternatives --------------------------------------------------
    def _fsa_account(self, state: SessionState, inv, extra_s: float = 0.0,
                     extra_slots: int = 0) -> StageAccount:
        k = len(state.population)
        # The inventory resolves every tag's identity, so the reader knows
        # K exactly afterwards — but learns no channels.
        state.k_hat = k
        # Every unresolved tag replies once per processed occupied slot;
        # the run only records the total, so the per-tag split is even
        # (deterministic remainder-first) — accurate in aggregate, which
        # is all the energy model consumes.
        replies = int(inv.total_replies)
        base, remainder = divmod(replies, k) if k else (0, 0)
        transmissions = np.full(k, base, dtype=int)
        transmissions[:remainder] += 1
        return StageAccount(
            stage=self.name,
            kind=self.kind,
            duration_s=inv.total_time_s + extra_s,
            slots_used=int(getattr(inv, "slots_used", getattr(inv, "queries", 0)))
            + extra_slots,
            transmissions=transmissions,
            retries=max(0, int(getattr(inv, "rounds", 1)) - 1),
        )

    def _run_fsa(self, state: SessionState) -> StageAccount:
        inv = run_fsa_inventory(
            FsaConfig(n_tags=len(state.population)), state.rng
        )
        return self._fsa_account(state, inv)

    def _run_fsa_khat(self, state: SessionState) -> StageAccount:
        """FSA seeded with Buzz's Stage-1 estimate (paper §10).

        Requires a previous Buzz stage on the same state: pays that
        stage's K-estimation slots again (the FSA reader must run Stage 1
        itself), then starts at ``Q = log2 K̂`` with an id space sized like
        Buzz's.
        """
        ident = state.identification
        if ident is None:
            raise RuntimeError(
                "fsa-khat needs a prior Buzz identification stage on this "
                "state (it seeds from its Stage-1 estimate)"
            )
        k_hat = max(1, ident.k_estimate.k_hat)
        stage1_slots = ident.k_estimate.slots_used
        stage1_s = stage1_slots * state.timing.uplink_symbol_s()
        id_bits = max(6, math.ceil(math.log2(state.config.temp_id_space(k_hat))))
        inv = run_fsa_inventory(
            FsaConfig(
                n_tags=len(state.population),
                initial_q=math.log2(max(2, k_hat)),
                id_bits=id_bits,
                ack_bits=id_bits + 2,  # the ACK echoes the shorter id
            ),
            state.rng,
        )
        return self._fsa_account(state, inv, extra_s=stage1_s, extra_slots=stage1_slots)

    def _run_btree(self, state: SessionState) -> StageAccount:
        inv = run_btree_inventory(
            BTreeConfig(n_tags=len(state.population)), state.rng
        )
        return self._fsa_account(state, inv)


class DataStage:
    """The session's second act: transfer every identified tag's message.

    Wraps any registered :class:`~repro.engine.schemes.UplinkScheme` and
    runs its plain ``run`` path. A rateless-family stage behind a Buzz
    identification never runs here: :class:`SessionPipeline` drives that
    pair through its session loop, on the recovered ids and estimated
    channels.
    """

    kind = "data"

    def __init__(self, scheme: str):
        get_scheme(scheme)  # fail fast on unknown names
        self.scheme = scheme
        self.name = f"data-{scheme}"

    def run(self, state: SessionState) -> StageAccount:
        result = get_scheme(self.scheme).run(
            state.population,
            state.front_end,
            state.rng,
            config=state.config,
            max_slots=state.max_slots,
        )
        state.data = result
        return StageAccount(
            stage=self.name,
            kind=self.kind,
            duration_s=result.duration_s,
            slots_used=result.slots_used,
            transmissions=np.asarray(result.transmissions, dtype=int),
        )


class SessionPipeline:
    """A complete reader session as one registry-compatible scheme.

    Runs its stages in order over one :class:`SessionState`, then folds
    the data stage's record and the per-stage ledger into a single
    :class:`~repro.engine.schemes.SchemeResult`:

    * ``duration_s`` is the exact float sum ``identification_s + data_s``;
    * ``transmissions`` sums each tag's reflections across all stages, so
      the Fig.-13 energy model prices the whole session;
    * ``retries`` counts identification restarts.

    The pipeline draws nothing itself and consumes the cell generator
    strictly stage by stage, so campaigns over end-to-end schemes keep the
    engine's serial ≡ parallel bit-identity and per-cell cacheability.
    """

    def __init__(self, name: str, stages: Sequence[SessionStage]):
        if not stages:
            raise ValueError("a session needs at least one stage")
        if not any(s.kind == "data" for s in stages):
            raise ValueError("a session needs a data stage to produce a result")
        self.name = name
        self.stages = tuple(stages)

    #: Stall monitor (slots without a newly verified message, as a factor
    #: of the view size) — ``None`` disables it: the plain session never
    #: interrupts its data phase. :class:`AdaptiveSessionPipeline` turns
    #: it on for mobile fields.
    stall_slots_factor: Optional[float] = None
    #: Mid-session identification re-runs the session may perform.
    max_reidentifications: int = 0

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeResult:
        rateless = self._rateless_stages()
        if rateless is not None:
            return self._run_rateless(
                population, front_end, rng, config, max_slots, *rateless
            )
        # Both stage families price airtime off the Gen-2 default timing
        # (the data schemes' drivers hard-code it), so the pipeline pins
        # the same model rather than offering a knob only half the session
        # would honour.
        state = SessionState(
            population=population,
            front_end=front_end,
            rng=rng,
            config=config,
            max_slots=max_slots,
            timing=GEN2_DEFAULT_TIMING,
        )
        accounts = [stage.run(state) for stage in self.stages]
        if state.data is None:  # pragma: no cover - guarded in __init__
            raise RuntimeError("no data stage produced a result")
        identification_s = math.fsum(
            a.duration_s for a in accounts if a.kind == "identification"
        )
        data_s = math.fsum(a.duration_s for a in accounts if a.kind == "data")
        retries = sum(a.retries for a in accounts)
        transmissions = np.zeros(len(population), dtype=int)
        data_transmissions = np.zeros(len(population), dtype=int)
        for account in accounts:
            transmissions += account.transmissions
            if account.kind == "data":
                data_transmissions += account.transmissions
        return replace(
            state.data,
            scheme=self.name,
            duration_s=identification_s + data_s,
            transmissions=transmissions,
            identification_s=identification_s,
            data_s=data_s,
            retries=retries,
            data_transmissions=data_transmissions,
        )

    # ---- the rateless session loop ------------------------------------------
    def _rateless_stages(self):
        """``(identification, data)`` when this pipeline runs the loop.

        The loop needs channel-estimating identification (Buzz is the only
        method that produces estimates) driving a rateless-family data
        phase. Anything else — e.g. the Gen-2 FSA → TDMA session — runs the
        generic stage path, which evaluates the deployment frozen at
        ``t=0``.
        """
        if len(self.stages) != 2:
            return None
        ident, data = self.stages
        if not isinstance(ident, IdentificationStage) or ident.method != "buzz":
            return None
        if not isinstance(data, DataStage) or data.scheme not in RATELESS_DATA_SCHEMES:
            return None
        return ident, data

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

    def _run_rateless(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int],
        ident_stage: "IdentificationStage",
        data_stage: "DataStage",
    ) -> SchemeResult:
        """One session: identify, then run the data phase on the view.

        Identify the tags *currently present*, run the data phase from the
        recovered view while the trajectory keeps moving, and — when the
        stall monitor trips and the budgets allow — re-identify and splice
        the refreshed estimates and id set into a fresh decoder view. With
        the monitor disabled (the plain pipelines) the loop body runs
        exactly once, which is what makes an adaptive session with
        re-identification turned off bit-identical to its plain twin.

        A static field (no mobility, or all rates zero) is the loop with no
        trajectory: no draw realises one, every tag is present, the tags'
        channels stay untouched and the stall monitor stays off
        (``reidentifications=None``); when identification recovers nobody,
        the static session still runs its segment, which charges only the
        trigger command (a mobile one stops without a trigger).

        The per-segment decoder construction inside
        :func:`~repro.core.mobile.run_mobile_data_segment` is also what
        keeps the incremental decode state sound across splices: each
        refreshed view starts a clean
        :class:`~repro.core.decoder_state.DecoderState` (new seeds, new
        channel estimates, empty collision matrix) instead of mutating
        one built against the stale view.
        """
        timing = GEN2_DEFAULT_TIMING
        tags = population.tags
        k = len(population)
        messages = population.messages
        silencing = data_stage.scheme == "silenced"
        mobility = getattr(population, "mobility", None)
        trajectory = (
            None
            if mobility is None or mobility.is_static
            else self._make_trajectory(population, rng)
        )
        # Identification stages read each tag's channel, so on a mobile
        # field the loop below writes trajectory snapshots into the tag
        # objects; restore the t = 0 draw afterwards — a session must not
        # mutate its inputs (the population is an input to the pure cell
        # function).
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
                    ident_parts.append(timing.query_duration_s())
                    now += timing.query_duration_s()
                    break
                if trajectory is not None:
                    # Identification observes the field as it stands now: the
                    # current fading block's channels (block fading holds them
                    # for the short identification exchange) and only the
                    # present tags.
                    snapshot = trajectory.channels_at(now)
                    for i in present_idx:
                        tags[i].channel = complex(snapshot[i])
                sub_population = TagPopulation(
                    tags=[tags[i] for i in present_idx],
                    noise_std=population.noise_std,
                )
                sub_state = SessionState(
                    population=sub_population,
                    front_end=front_end,
                    rng=rng,
                    config=config,
                    max_slots=max_slots,
                    timing=timing,
                )
                account = ident_stage.run(sub_state)
                ident_parts.append(account.duration_s)
                now += account.duration_s
                retries += account.retries
                transmissions[present_idx] += account.transmissions

                estimates = sub_state.estimates
                if len(estimates) == 0 and trajectory is not None:
                    # Recovered nobody: a mobile session issues no data
                    # trigger. A static one runs the segment, which prices
                    # the trigger it sends and opens no data phase.
                    break
                k_hat = sub_state.k_hat if sub_state.k_hat else len(estimates)
                if budget is None:
                    budget = (
                        max_slots
                        if max_slots is not None
                        else config.max_data_slots(max(1, k_hat))
                    )
                if budget <= 0 and trajectory is not None:
                    break  # no slots: a static session still sends the trigger
                participants = np.zeros(k, dtype=bool)
                participants[present_idx] = True
                factor = None if trajectory is None else self.stall_slots_factor
                stall_limit = None
                if factor is not None and math.isfinite(factor):
                    # Floor of 8: tiny views verify their first message within
                    # a handful of slots, but the monitor must never beat the
                    # decoder's ramp-up to it.
                    stall_limit = max(8, int(math.ceil(factor * max(1, len(estimates)))))
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
                    timing=timing,
                    max_slots=budget,
                    stall_limit=stall_limit,
                    silencing=silencing,
                    id_space=sub_state.id_space,
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

                if bool(delivered.all()) or not segment.stalled or budget <= 0:
                    break
                if reidentifications >= self.max_reidentifications:
                    break
                reidentifications += 1

        finally:
            # The loop writes trajectory snapshots into tag.channel for
            # identification; hand the population back with its t = 0 draw.
            for tag, channel in zip(tags, original_channels):
                tag.channel = channel

        identification_s = math.fsum(ident_parts)
        data_s = math.fsum(data_parts)
        return SchemeResult(
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


class AdaptiveSessionPipeline(SessionPipeline):
    """A session that re-identifies mid-way when the data phase stalls.

    On mobile populations the pipeline arms the stall monitor: whenever
    ``stall_slots_factor × |view|`` consecutive data slots verify nothing
    new, the data phase is interrupted, identification re-runs over the
    tags *now* present, and the refreshed
    :class:`~repro.core.identification.ChannelEstimates` and id set replace
    the stale decoder view — up to ``max_reidentifications`` times per
    session, bounded additionally by the session's global data-slot budget.
    Messages verified before an interruption stay delivered.

    ``stall_slots_factor=None`` (or ``inf``) disables the monitor, making
    the pipeline bit-identical to its static :class:`SessionPipeline` twin
    on every scenario — the property the test suite pins. On static
    populations the adaptive pipeline *is* the static pipeline.
    """

    def __init__(
        self,
        name: str,
        stages: Sequence[SessionStage],
        stall_slots_factor: Optional[float] = 2.0,
        max_reidentifications: int = 2,
    ):
        super().__init__(name, stages)
        if stall_slots_factor is not None and stall_slots_factor <= 0:
            raise ValueError("stall_slots_factor must be positive (or None)")
        if max_reidentifications < 0:
            raise ValueError("max_reidentifications must be >= 0")
        self.stall_slots_factor = stall_slots_factor
        self.max_reidentifications = max_reidentifications


# ---- the end-to-end variants every campaign can sweep -------------------------
register_scheme(
    SessionPipeline("buzz-e2e", (IdentificationStage("buzz"), DataStage("buzz")))
)
register_scheme(
    SessionPipeline(
        "silenced-e2e", (IdentificationStage("buzz"), DataStage("silenced"))
    )
)
register_scheme(
    SessionPipeline("gen2-tdma-e2e", (IdentificationStage("fsa"), DataStage("tdma")))
)
register_scheme(
    AdaptiveSessionPipeline(
        "buzz-adaptive", (IdentificationStage("buzz"), DataStage("buzz"))
    )
)
register_scheme(
    AdaptiveSessionPipeline(
        "silenced-adaptive", (IdentificationStage("buzz"), DataStage("silenced"))
    )
)
