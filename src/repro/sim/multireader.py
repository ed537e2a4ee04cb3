"""Reader actors: concurrent rateless sessions over one shared tag field.

The single-reader data-phase loop in :mod:`repro.core.rateless` advances
one slot counter; here R readers free-run, each at its own cadence, each
inventorying its own zone and stepping its own data phase (the
single-reader loop's reader, a :class:`~repro.core.rateless.
RatelessDecoder` fed by :meth:`~repro.core.rateless.RatelessDecoder.
ingest`: a decode per kept slot, verification, newly verified columns)
over the tags currently homed there. The decoder class is looked up in
:mod:`repro.core.rateless` at call time, so the rebuild reference's patch
point reaches these readers too. The pieces:

* **Zone membership** comes from a :class:`~repro.phy.channel.
  ZoneTrajectory` realised once per run — homes, overlap flags and Poisson
  handoff times are a pure function of the run's generator, so the whole
  simulation stays a pure function of its seed (the campaign engine's
  backend-identity contract).
* **Sessions**: a reader inventories its zone (tags homed there and not
  yet delivered anywhere), pays the Gen-2 query overhead, draws fresh
  session-local temporary ids, and collects collision slots at its own
  period until the batch decodes, the slot cap hits, or every undecoded
  member has left or been delivered elsewhere. An empty inventory idles
  one poll period and retries. Delivery is global and first-writer-wins:
  once any reader verifies a tag's CRC, every other reader drops it from
  future inventories.
* **Interference** uses a two-event slot protocol. At slot *start* the
  reader draws the received symbols, posts a :class:`~repro.sim.
  interference.TransmissionRecord` advertising the power its transmitting
  tags leak into every other zone, and schedules the slot *end*. At slot
  end it sums the foreign records that temporally overlap its receive
  window and lets :func:`~repro.sim.interference.resolve_slot` decide:
  drop the slot, feed it clean, or feed it with the foreign power added
  as Gaussian noise. Dropped slots still cost airtime and budget but never
  reach the data phase, so they trigger no decode; a kept slot is
  ingested under the coin row its slot start drew, the row the decoder
  would regenerate for that index.
* **The genie row discipline** matches the mobile data phase
  (:mod:`repro.core.mobile`): the decoder regenerates the full member coin
  row for each slot index while the air side only carries tags the reader
  still covers — a member that handed off mid-session leaves a residual in
  every row it was scheduled into, exactly mobility's failure surface. The
  per-slot air step itself (coin-row mask, transmit matrix, receive) is
  the single-reader loop's own.

All noise, inventory and id draws happen inside event callbacks of a
deterministically-ordered :class:`~repro.sim.scheduler.EventScheduler`,
so a single shared generator yields identical streams on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.coding.prng import slot_decision_matrix
from repro.core.config import BuzzConfig
from repro.core import rateless
from repro.core.rateless import _air_slot
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.population import TagPopulation
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import SALT_DATA
from repro.phy.channel import (
    CADENCE_SPREAD,
    CAPTURE_MARGIN_DB,
    MultiReaderModel,
    ZoneTrajectory,
)
from repro.sim.interference import TransmissionRecord, resolve_slot
from repro.sim.scheduler import EventScheduler
from repro.utils.units import db_to_power

__all__ = ["MultiReaderOutcome", "simulate_multi_reader"]


@dataclass
class MultiReaderOutcome:
    """Roll-up of one multi-reader run over the whole field.

    Attributes
    ----------
    delivered:
        Per-tag flag: some reader verified this tag's CRC.
    messages:
        ``(K, P)`` recovered messages (zeros where undelivered).
    total_slots:
        Collision slots collected across all readers (kept + dropped) —
        the denominator of the aggregate rate.
    duration_s:
        Makespan: the latest instant any reader was actively querying or
        receiving (idle re-polls after the field drains do not count).
    transmissions:
        Per-tag count of slots the tag actually reflected in.
    sessions:
        Inventory rounds opened (non-empty only).
    dropped_slots / degraded_slots:
        Slots lost to reader collisions / fed with interference noise.
    handoffs:
        Zone-handoff events realised within the makespan.
    per_reader_slots:
        Slots each reader collected (length R).
    """

    delivered: np.ndarray
    messages: np.ndarray
    total_slots: int
    duration_s: float
    transmissions: np.ndarray
    sessions: int
    dropped_slots: int
    degraded_slots: int
    handoffs: int
    per_reader_slots: np.ndarray


@dataclass
class _Simulation:
    """Shared world state every reader actor reads and writes."""

    population: TagPopulation
    front_end: ReaderFrontEnd
    rng: np.random.Generator
    config: BuzzConfig
    model: MultiReaderModel
    zones: ZoneTrajectory
    messages: np.ndarray
    channels: np.ndarray
    slot_s: float
    budget: int
    id_space: int
    delivered: np.ndarray = field(init=False)
    recovered: np.ndarray = field(init=False)
    transmissions: np.ndarray = field(init=False)
    records: List[TransmissionRecord] = field(default_factory=list)
    total_slots: int = 0
    dropped_slots: int = 0
    degraded_slots: int = 0
    sessions: int = 0
    makespan: float = 0.0
    per_reader_slots: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        k = len(self.population)
        self.delivered = np.zeros(k, dtype=bool)
        self.recovered = np.zeros_like(self.messages)
        self.transmissions = np.zeros(k, dtype=int)
        self.per_reader_slots = np.zeros(self.model.n_readers, dtype=int)

    @property
    def finished(self) -> bool:
        return bool(self.delivered.all()) or self.budget <= 0

    def post(self, record: TransmissionRecord) -> None:
        self.records.append(record)

    def interference_at(self, reader: int, start_s: float, end_s: float) -> float:
        """Aggregate foreign power overlapping ``[start_s, end_s)``."""
        return float(
            sum(
                rec.power_at[reader]
                for rec in self.records
                if rec.reader != reader and rec.overlaps(start_s, end_s)
            )
        )

    def prune_records(self, before_s: float) -> None:
        """Drop records that can no longer overlap any future window."""
        if len(self.records) > 4 * self.model.n_readers:
            self.records = [r for r in self.records if r.end_s > before_s]

    def deliver(self, tag: int, message: np.ndarray) -> bool:
        """First-writer-wins global delivery; True if this call won."""
        if self.delivered[tag]:
            return False
        self.delivered[tag] = True
        self.recovered[tag] = message
        return True


class _ReaderActor:
    """One reader: inventory → session slots → decode → repeat.

    The actor is a small state machine driven entirely by scheduler
    callbacks; between events its state is the open session (members,
    decoder, slot index) or nothing. It owns the air side; the session's
    :class:`~repro.core.rateless.RatelessDecoder` owns decoding.
    """

    def __init__(self, index: int, sim: _Simulation):
        self.index = index
        self.sim = sim
        r = sim.model.n_readers
        # Distinct periods keep the readers genuinely asynchronous; the
        # slot airtime itself is the common PHY constant.
        self.period = sim.slot_s * (1.0 + CADENCE_SPREAD * index / r)
        self.capture_margin = float(db_to_power(CAPTURE_MARGIN_DB))
        self._clear_session()

    def _clear_session(self) -> None:
        self.members = np.zeros(0, dtype=int)
        self.seeds: List[int] = []
        self.decoder: Optional[rateless.RatelessDecoder] = None
        self.slot_index = 0

    # ---- session lifecycle -----------------------------------------------------

    def start_session(self, sched: EventScheduler) -> None:
        sim = self.sim
        if sim.finished:
            return
        now = sched.now
        home = sim.zones.home_at(now)
        members = np.flatnonzero((home == self.index) & ~sim.delivered)
        query_s = GEN2_DEFAULT_TIMING.query_duration_s()
        if members.size == 0:
            # Nobody answered the query: idle one period and re-poll. The
            # query airtime is real but the field may already be drained
            # elsewhere, so it does not extend the makespan.
            sched.at(now + query_s + self.period, self.start_session)
            return
        sim.sessions += 1
        sim.makespan = max(sim.makespan, now + query_s)
        self.members = members
        k_hat = int(members.size)
        # Fresh session-local temporary ids: a new inventory round
        # re-randomises every tag's schedule, so a retry session never
        # replays the coin rows a failed one already spent.
        self.seeds = [
            int(s) for s in sim.rng.choice(sim.id_space, size=k_hat, replace=False)
        ]
        self.decoder = rateless.RatelessDecoder(
            self.seeds, sim.channels[members], sim.messages.shape[1],
            sim.config.data_density(k_hat), sim.config,
            np.random.default_rng(sim.rng.integers(0, 2**63)), sim.front_end.noise_std,
        )
        self.slot_index = 0
        self.session_limit = sim.config.max_data_slots(k_hat)
        sched.at(now + query_s, self.slot_start)

    def _end_session(self, sched: EventScheduler) -> None:
        self._clear_session()
        self.start_session(sched)

    def _deliver(self, fresh: np.ndarray) -> None:
        """Hand the session's newly verified columns to the field."""
        if fresh.size:
            estimates = self.decoder.messages()
            for local in fresh:
                self.sim.deliver(int(self.members[local]), estimates[local])

    def _session_exhausted(self, now_s: float) -> bool:
        """True when no undecoded member is still worth slots."""
        pending = self.members[~self.decoder.decoded_mask]
        if pending.size == 0:
            return True
        still_mine = self.sim.zones.home_at(now_s)[pending] == self.index
        return bool(np.all(self.sim.delivered[pending] | ~still_mine))

    # ---- the two-event slot protocol -------------------------------------------

    def slot_start(self, sched: EventScheduler) -> None:
        sim = self.sim
        if sim.budget <= 0 or self._session_exhausted(sched.now):
            self._end_session(sched)
            return
        t0 = sched.now
        t1 = t0 + sim.slot_s
        j = self.slot_index
        self.slot_index += 1
        sim.budget -= 1
        sim.total_slots += 1
        sim.per_reader_slots[self.index] += 1
        sim.makespan = max(sim.makespan, t1)

        # Tag-side coin draw for this slot — the same pure function of
        # (temp id, slot index) the decoder will regenerate.
        row = slot_decision_matrix(
            self.seeds, range(j, j + 1), float(self.decoder.density), salt=SALT_DATA
        )[0]
        # Only members inside this reader's coverage are lit by its carrier
        # and reflect: a member that drifted out mid-session stays silent,
        # so it neither spends a transmission nor leaks into other zones.
        coverage = sim.zones.coverage_at(t0)
        air_row, symbols = _air_slot(
            row,
            coverage[self.index, self.members],
            sim.messages[self.members],
            sim.channels[self.members],
            sim.front_end,
            sim.rng,
        )
        sim.transmissions[self.members] += air_row

        # Advertise what this slot leaks into every other zone: the
        # transmitting tags each foreign reader covers, at cross-zone gain.
        on_air = self.members[air_row.astype(bool)]
        gains = np.abs(sim.channels[on_air]) ** 2
        power_at = np.zeros(sim.model.n_readers)
        if on_air.size:
            cross = db_to_power(sim.model.cross_gain_db)
            for q in range(sim.model.n_readers):
                if q == self.index:
                    continue
                heard = coverage[q, on_air]
                if heard.any():
                    power_at[q] = cross * float(gains[heard].sum())
        sim.post(TransmissionRecord(self.index, t0, t1, power_at))

        signal_power = float(gains.sum())
        self._pending = (row, t0, t1, symbols, signal_power)
        sched.at(t1, self.slot_end)

    def slot_end(self, sched: EventScheduler) -> None:
        sim = self.sim
        row, t0, t1, symbols, signal_power = self._pending
        foreign = sim.interference_at(self.index, t0, t1)
        verdict = resolve_slot(
            sim.model.collision_mode, signal_power, foreign, self.capture_margin
        )
        if not verdict.kept:
            sim.dropped_slots += 1
        else:
            if verdict.noise_power > 0.0:
                sim.degraded_slots += 1
                scale = np.sqrt(verdict.noise_power / 2.0)
                symbols = symbols + scale * (
                    sim.rng.standard_normal(symbols.size)
                    + 1j * sim.rng.standard_normal(symbols.size)
                )
            # The coin row equals the one the decoder would regenerate.
            self._deliver(self.decoder.ingest(symbols, row))
        # Every open receive window ends at or after now and spans one slot
        # airtime, so records ending earlier than now − slot_s are inert.
        sim.prune_records(t1 - sim.slot_s)

        if (
            self.decoder.done
            or self.slot_index >= self.session_limit
            or sim.budget <= 0
            or self._session_exhausted(t1)
        ):
            self._end_session(sched)
            return
        # Next slot starts one reader-period after this one's start; the
        # period exceeds the slot airtime, so windows never self-overlap.
        sched.at(t0 + self.period, self.slot_start)


def simulate_multi_reader(
    population: TagPopulation,
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    model: MultiReaderModel,
    config: BuzzConfig = BuzzConfig(),
    max_slots: Optional[int] = None,
) -> MultiReaderOutcome:
    """Run R concurrent readers over one population until drained.

    ``model`` is the deployment's :class:`~repro.phy.channel.
    MultiReaderModel` (the ``multi-reader`` schemes resolve it from the
    population). ``max_slots`` caps the *global* collision-slot budget
    across all readers; by default the single-reader abort bound
    ``config.max_data_slots(K)`` is shared by the whole fleet, which makes
    the aggregate-rate denominator directly comparable with the
    single-reader schemes.
    """
    k = len(population)
    if k == 0:
        raise ValueError("need at least one tag")
    messages = population.messages
    slot_s = messages.shape[1] / GEN2_DEFAULT_TIMING.uplink_rate_bps
    budget = int(max_slots) if max_slots is not None else config.max_data_slots(k)
    if budget <= 0:
        raise ValueError("slot budget must be positive")
    max_period = slot_s * (1.0 + CADENCE_SPREAD)
    # Generous horizon: enough for every budgeted slot plus per-session
    # query overheads to run *sequentially*; concurrent readers finish
    # well inside it. Queries past it simply see no further handoffs.
    horizon = (GEN2_DEFAULT_TIMING.query_duration_s() + max_period) * (
        budget + 4 * model.n_readers + 4
    )
    zones = ZoneTrajectory(k, model, rng, horizon_s=horizon)
    sim = _Simulation(
        population=population,
        front_end=front_end,
        rng=rng,
        config=config,
        model=model,
        zones=zones,
        messages=messages,
        channels=population.channels,
        slot_s=slot_s,
        budget=budget,
        id_space=rateless.oracle_id_space(k),
    )
    sched = EventScheduler()
    for r in range(model.n_readers):
        # Staggered first queries decorrelate the initial slot phases.
        sched.at(r * slot_s / model.n_readers, _ReaderActor(r, sim).start_session)
    sched.run()
    duration = sim.makespan if sim.makespan > 0.0 else GEN2_DEFAULT_TIMING.query_duration_s()
    return MultiReaderOutcome(
        delivered=sim.delivered,
        messages=sim.recovered,
        total_slots=sim.total_slots,
        duration_s=duration,
        transmissions=sim.transmissions,
        sessions=sim.sessions,
        dropped_slots=sim.dropped_slots,
        degraded_slots=sim.degraded_slots,
        handoffs=zones.handoff_count(duration),
        per_reader_slots=sim.per_reader_slots,
    )
