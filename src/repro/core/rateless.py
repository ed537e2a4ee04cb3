"""Distributed rate adaptation — the rateless collision code (paper §6).

Protocol: the reader broadcasts one start command (carrying its K̂, which
sets the code density ``p``). In every slot each node evaluates its
deterministic coin ``slot_decision(temp_id, slot, p)``; on heads it
transmits its *entire message*, on tails it stays silent. The reader
accumulates slots, regenerates the collision matrix D row by row, and after
each slot runs the bit-flipping BP decoder per message position. Messages
whose CRC verifies are frozen; when all K verify the reader cuts its CW and
every node stops. The realised aggregate rate is ``K/L`` bits per symbol —
above 1 when channels are good (fewer slots than senders), below 1 when
they are bad.

:class:`RatelessDecoder` is the reader (consumes symbols, never looks
at true messages), stepped one collected slot at a time by
:meth:`~RatelessDecoder.ingest`: a decode per slot, ACK pricing, stall
monitor, newly verified columns. One air-side loop,
:func:`_run_data_phase`, drives it from a live tag population through the
PHY for the single-reader entry points, which only resolve their
arguments. Each reader view has one entry point:

* the **oracle view** (the tags' own ids and channels, paper §9's
  evaluation setting): :func:`run_rateless_uplink` and, with §8.2 ACK
  silencing, :func:`repro.core.silencing.run_rateless_with_silencing`;
* the **recovered view** (the ids and channel estimates an
  identification produced, §4a): :func:`repro.core.mobile.
  run_mobile_data_segment`, a session's data segment on a static or a
  drifting, churning field.

All return a :class:`RatelessRunResult`. The multi-reader actors of
:mod:`repro.sim.multireader` step a decoder from their slot events. Both
loops look the decoder class up in this module at call time — the single
patch point for the rebuild reference, reaching every entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.coding.crc import crc_check_matrix
from repro.coding.prng import slot_decision_matrix
from repro.core.bp_decoder import PackedBitFlipDecoder
from repro.core.config import BuzzConfig
from repro.core.decoder_state import DecoderState
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import SALT_DATA, BackscatterTag
from repro.phy.channel import ChannelTrajectory

__all__ = [
    "RatelessDecoder",
    "DecodeProgress",
    "RatelessRunResult",
    "ack_duration_s",
    "oracle_id_space",
    "run_rateless_uplink",
]

#: Bound on the BP + CRC-verify fixpoint rounds per
#: :meth:`RatelessDecoder.try_decode` call. The loop exits early the
#: moment a verify pass freezes nothing new, so the bound only matters on
#: long ripple chains.
BP_VERIFY_ROUNDS = 4


@dataclass(frozen=True)
class DecodeProgress:
    """Snapshot after one decode attempt — a bar of the paper's Fig. 9."""

    slot: int
    newly_decoded: int
    total_decoded: int

    def bits_per_symbol(self, n_nodes: int) -> float:
        """Aggregate rate if decoding finished at this slot."""
        return n_nodes / self.slot if self.slot else float("inf")


class RatelessDecoder:
    """Reader-side incremental decoder of the rateless collision code.

    Parameters
    ----------
    seeds:
        The K temporary ids (PRNG seeds) recovered during identification.
    channels:
        Channel estimates ``ĥ`` per node (also from identification).
    n_positions:
        Message length P in bits, CRC-5 included.
    density:
        The transmit probability ``p`` the reader broadcast.
    noise_std:
        Complex noise std of the link — gates message verification (below).
    ack_s:
        One silencing ACK's airtime (§8.2), ``None`` without silencing.
    stall_limit:
        Collected slots without a newly verified message after which the
        decoder reports itself ``stalled`` (``None`` disables the monitor).

    A caller keeps the air side and hands each collected slot to
    :meth:`ingest` under the D row it regenerated with
    :meth:`expected_rows`; it reads ``done``, ``acked``,
    ``ack_overhead_s`` and ``stalled`` back.

    The decoder keeps a persistent :class:`~repro.core.decoder_state.
    DecoderState` across decode calls: a rank-(new rows) extension per
    slot and frozen-column peeling per verify pass, instead of rebuilding
    the problem from the stored rows each call. Each decode round takes
    its problem from :meth:`_problem` and runs the one kernel binding,
    freeze rule and entanglement veto on it. The test oracle
    :class:`~repro.core.reference.RebuildRatelessDecoder` shares that
    round and rule and supplies only its own problem, rebuilt from the
    stored rows (:func:`~repro.core.reference.full_width_problem`); the
    two produce identical decoded masks, messages and
    :class:`DecodeProgress` traces up to exact float ties, pinned by the
    incremental-equivalence suite and gated for speed in
    ``BENCH_session.json``.

    **Verification rule.** A 5-bit CRC alone false-positives on ~3 % of
    garbage decodes, and a frozen-wrong message poisons every later decode,
    so the decoder freezes a message only when the CRC pass is corroborated
    by structural evidence:

    * the node has participated in ≥ 1 collected slot, **and**
    * no *entangled partner* exists: another unfrozen node that has
      participated in exactly the same slots so far and whose channel
      nearly cancels or duplicates this node's (``|h_i ± h_j|`` below the
      noise scale). Such a pair's joint bit-flip is invisible in every
      collected symbol, both messages then carry the same error pattern,
      and one CRC collision false-passes both — regardless of weight. The
      veto lifts as soon as one of the pair transmits without the other,
      **and**
    * either the node participated in enough slots for independent evidence
      (≥ 2, or ≥ 3 for weak channels — such nodes churn through more
      candidate patterns), or every one of its slots has a
      noise-consistent residual and its *first* slot is *fully
      explained*: every other participant of that slot frozen or passing
      CRC in the same round, and every received symbol of that slot
      decoding the node's bit with a clear margin — the nearest
      constellation point that flips this node's bit at least
      ``2·noise_std`` farther than the decoded point. The margin condition
      matters: when two channels nearly cancel (``h_i ≈ −h_j``), flipping
      both bits together barely moves the received symbol, the two messages
      take the *same* error pattern, and one CRC collision (2⁻⁵)
      false-passes both at once.

    Every node below its weight requirement takes that second path, not
    only weight-1 nodes: a weak-channel node of weight 2 is judged
    explained and margin-safe on its first slot alone.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        channels: Sequence[complex],
        n_positions: int,
        density: float,
        config: BuzzConfig = BuzzConfig(),
        rng: Optional[np.random.Generator] = None,
        noise_std: float = 0.0,
        ack_s: Optional[float] = None,
        stall_limit: Optional[int] = None,
    ):
        self.seeds = [int(s) for s in seeds]
        self.h = np.asarray(channels, dtype=complex).ravel()
        if len(self.seeds) != self.h.size:
            raise ValueError("seeds and channels must have equal length")
        self.k = len(self.seeds)
        self.p = n_positions
        self.density = float(density)
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.noise_std = float(noise_std)

        # Collected slots live in amortized-growth preallocated buffers
        # (doubling on overflow) that the decode rounds slice; add_slot's
        # row/symbol writes are copies into append-only storage, so callers
        # can mutate what they passed in without corrupting decoder state.
        cap = max(self.ROW_BLOCK, 1)
        self._row_buf = np.zeros((cap, self.k), dtype=np.uint8)
        self._sym_buf = np.zeros((cap, self.p), dtype=complex)
        self._n_rows = 0
        self._estimates = (self.rng.random((self.k, self.p)) < 0.5).astype(np.uint8)
        self._decoded = np.zeros(self.k, dtype=bool)
        self.progress: List[DecodeProgress] = []
        # Per received row: the margin test's constellation and distances.
        self._margin_tables: dict = {}
        self._state = self._new_state()
        self.ack_s, self.stall_limit = ack_s, stall_limit
        self.acked = np.zeros(self.k, dtype=bool)  # columns silenced by an ACK
        self.ack_overhead_s = 0.0
        self.stalled = False
        self._idle_slots = 0  # ingested since the last newly verified message

    def _new_state(self) -> DecoderState:
        """The persistent decode state, built over the initial estimates."""
        return DecoderState(self.h, self._estimates)

    # ---- protocol-side queries -------------------------------------------------
    @property
    def slots_collected(self) -> int:
        return self._n_rows

    @property
    def decoded_mask(self) -> np.ndarray:
        """Which nodes' messages currently pass CRC."""
        return self._decoded.copy()

    @property
    def all_decoded(self) -> bool:
        return bool(self._decoded.all())

    @property
    def done(self) -> bool:
        """Every column verified, or the stall monitor gave up."""
        return self.stalled or self.all_decoded

    def messages(self) -> np.ndarray:
        """Current ``(K, P)`` message estimates."""
        return self._estimates.copy()

    def expected_rows(self, slots: Sequence[int]) -> np.ndarray:
        """Regenerate a ``(len(slots), K)`` block of D rows (Eq. 7's D)
        from the seeds in one pass — nothing about a row is signalled.

        One vectorized :func:`~repro.coding.prng.slot_decision_matrix` call
        covers the block's ``len(slots) × K`` coins — the reader's
        D-regeneration hot path.
        """
        return slot_decision_matrix(self.seeds, slots, self.density, salt=SALT_DATA)

    # ---- decoding --------------------------------------------------------------
    def ingest(self, symbols: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Collect and decode one slot (the paper's "decode as you go")
        under the reader's regenerated ``row``; return the columns that
        newly verified.

        The reader knows exactly whom it ACKed (nobody without silencing),
        so it masks them out of its own row — reader-side knowledge, not
        signalling. With ``ack_s`` set, each newly verified column costs
        one ACK and is silenced from the next slot on. The stall monitor
        counts ingests that verify nothing new; it never trips once every
        column is decoded.
        """
        before = self.decoded_mask
        self.add_slot(symbols, row * (~self.acked).astype(np.uint8))
        self.try_decode()
        fresh = np.flatnonzero(self._decoded & ~before)
        if self.ack_s is not None:
            self.ack_overhead_s += fresh.size * self.ack_s
            self.acked = self.decoded_mask
        self._idle_slots = 0 if fresh.size else self._idle_slots + 1
        if self.stall_limit is not None and not self.all_decoded:
            self.stalled = self._idle_slots >= self.stall_limit
        return fresh

    def add_slot(self, symbols: np.ndarray, row: np.ndarray) -> None:
        """Store one slot's received symbols (length P) under its D row,
        without decoding.

        ``row`` is the reader's regenerated row (:meth:`expected_rows`),
        possibly masked with reader-side knowledge of a modified schedule
        (the silencing variant masks out ACKed tags, whom the reader knows
        will stay quiet).
        """
        symbols = np.asarray(symbols, dtype=complex).ravel()
        if symbols.size != self.p:
            raise ValueError(f"expected {self.p} symbols per slot, got {symbols.size}")
        row = np.asarray(row, dtype=np.uint8).ravel()
        if row.size != self.k:
            raise ValueError(f"expected a D row of length {self.k}, got {row.size}")
        self._ensure_capacity(self._n_rows + 1)
        j = self._n_rows
        self._row_buf[j] = row  # assignment copies — the buffer is append-only
        self._sym_buf[j] = symbols
        self._n_rows = j + 1
        self._append_to_state(row, symbols)

    def _append_to_state(self, row: np.ndarray, symbols: np.ndarray) -> None:
        """Fold one ingested slot into the persistent state.

        The frozen transmitters are peeled out of the new symbols first:
        the active problem never sees frozen contributions (they live on
        the symbol side, exactly as :meth:`DecoderState.peel` leaves older
        rows).
        """
        frozen_tx = np.flatnonzero((row != 0) & self._decoded)
        if frozen_tx.size:
            symbols = symbols - (
                self.h[frozen_tx, None] * self._estimates[frozen_tx].astype(float)
            ).sum(axis=0)
        self._state.append_slot(row, symbols)

    def _peel_state(self, positions: np.ndarray) -> None:
        """Drop newly verified columns, by problem position, from the
        persistent state (:meth:`DecoderState.peel`)."""
        self._state.peel(positions)

    def _ensure_capacity(self, n: int) -> None:
        cap = self._row_buf.shape[0]
        if n <= cap:
            return
        new_cap = max(int(n), 2 * cap)
        row_buf = np.zeros((new_cap, self.k), dtype=np.uint8)
        row_buf[: self._n_rows] = self._row_buf[: self._n_rows]
        self._row_buf = row_buf
        sym_buf = np.zeros((new_cap, self.p), dtype=complex)
        sym_buf[: self._n_rows] = self._sym_buf[: self._n_rows]
        self._sym_buf = sym_buf

    #: Slots per block of the data-phase loop (the tags draw their coins
    #: and the reader regenerates its D rows a block at a time), and the
    #: initial capacity of the decoder's collected-slot buffers.
    ROW_BLOCK = 64

    def try_decode(self) -> DecodeProgress:
        """Run the batched BP kernel over all positions at once.

        All P positions share D and ĥ, so one batched bit-flip call per
        round warm-starts every column from the previous estimate, flips
        to per-column local optima (plus ``bp_restarts`` random restarts
        per column, solved in the same batch), then CRC-checks whole
        messages and freezes the passers.
        The kernel is :class:`~repro.core.bp_decoder.PackedBitFlipDecoder`;
        its flip decisions are those of the scalar test oracle
        :class:`~repro.core.reference.BitFlipDecoder`.
        """
        if not self._n_rows:
            snapshot = DecodeProgress(slot=0, newly_decoded=0, total_decoded=0)
            self.progress.append(snapshot)
            return snapshot
        before = int(self._decoded.sum())
        self._decode_fixpoint()
        newly = int(self._decoded.sum()) - before
        snapshot = DecodeProgress(
            slot=self.slots_collected, newly_decoded=newly, total_decoded=int(self._decoded.sum())
        )
        self.progress.append(snapshot)
        return snapshot

    def _problem(self) -> DecoderState:
        """The round's decode problem: the persistent state, already peeled
        of every verified column."""
        return self._state

    def _decode_fixpoint(self) -> None:
        """BP + verify to a fixpoint.

        Each freeze pins bits that may unlock further flips and further
        freezes — the paper's ripple effect, realised within a single slot
        arrival. A round takes the problem (:meth:`_problem`) over the
        unverified columns, binds the kernel to it, writes the decoded
        columns back into the estimates, runs the freeze rule on it and
        peels what froze. The kernel is bound afresh each round because a
        peel compacts the state's arrays under the previous kernel's views.
        """
        for _ in range(BP_VERIFY_ROUNDS):
            problem = self._problem()
            kernel = PackedBitFlipDecoder.from_state(problem)
            kernel.decode_best_of_state(restarts=self.config.bp_restarts, rng=self.rng)
            self._estimates[problem.active_idx] = problem.bits
            newly = self._verify_and_freeze(problem)
            if not newly.size:
                break
            self._peel_state(newly)
            if self.all_decoded:
                break

    def _verify_and_freeze(self, problem) -> np.ndarray:
        """The corroborated-CRC rule (class docstring) on one round's
        problem; returns the problem positions it froze.

        Weights, the collision matrix and the residual come from the
        problem, whose columns are the unverified nodes. The node scan
        walks them in ascending node order, so the live
        ``self._decoded[others]`` reads see every earlier freeze of this
        pass. A node with weight ≥ 2 (≥ 3 for weak channels) freezes on
        its CRC; a node below that (weight 1, or a weak node of weight 2)
        also needs a noise-consistent residual on all its slots, and its
        first slot ``rows[0]`` — only that one — to be fully explained by
        frozen or simultaneously-passing messages and to have an
        unambiguous constellation (:meth:`_node_margin_ok`).
        """
        act = problem.active_idx
        weights = problem.weights  # exact |d_i| counts (float-held integers)
        row_power = np.mean(np.abs(problem.residual) ** 2, axis=1)
        row_ok = row_power <= max(4.0 * self.noise_std**2, 1e-12)

        passes = np.zeros(self.k, dtype=bool)
        cand = weights > 0  # every problem column is unverified
        if cand.any():
            passes[act[cand]] = crc_check_matrix(self._estimates[act[cand]])

        entangled = self._entangled_mask(problem)

        newly: List[int] = []
        for pos in range(act.size):
            node = int(act[pos])
            if not passes[node] or entangled[pos]:
                continue
            # Weak nodes churn through more candidate bit patterns before
            # converging (each a fresh 2⁻⁵ CRC-collision lottery), so they
            # must accumulate one more independent observation.
            required = 2 if abs(self.h[node]) >= 5.0 * self.noise_std else 3
            if weights[pos] >= required:
                self._decoded[node] = True
                newly.append(pos)
                continue
            rows = np.flatnonzero(problem.d[:, pos])
            if not bool(np.all(row_ok[rows])):
                continue
            row = int(rows[0])
            participants = np.flatnonzero(self._row_buf[row])
            others = participants[participants != node]
            if bool(
                np.all(self._decoded[others] | passes[others])
            ) and self._node_margin_ok(node, row, participants):
                self._decoded[node] = True
                newly.append(pos)
        return np.asarray(newly, dtype=np.int64)

    def _entangled_mask(self, problem) -> np.ndarray:
        """Problem positions vetoed because an indistinguishable partner
        exists.

        Node *i* is entangled with unfrozen node *j* when their channel
        combination is near-degenerate (``min(|h_i+h_j|, |h_i−h_j|)`` below
        ``4·noise_std`` and below half the weaker channel — a joint flip of
        such a pair barely moves any symbol where both transmit) **and**
        the accumulated evidence that can tell them apart is still thin.
        Distinguishing evidence lives only in slots where exactly one of
        the pair transmitted; the summed power margin of those slots,
        ``Σ |h_lone|² / noise_std²``, must reach 16 (≈ 12 dB of
        accumulated SNR) before either node may freeze. A pair that is
        merely *jointly weak* is handled by the per-node weight
        requirements, not by this veto.

        The candidates are the problem columns with nonzero weight, and
        the lone-slot counts come from a slice of the problem's exact DᵀD;
        the degeneracy and evidence tests evaluate as whole matrices.
        """
        mask = np.zeros(problem.active_idx.size, dtype=bool)
        sel = np.flatnonzero(problem.weights > 0)
        if sel.size < 2:
            return mask
        h = problem.h[sel]
        absh = np.abs(h)
        threshold = 4.0 * self.noise_std
        noise_power = max(self.noise_std**2, 1e-18)
        degenerate = np.minimum(
            np.abs(h[:, None] + h[None, :]), np.abs(h[:, None] - h[None, :])
        )
        candidate = (degenerate < threshold) & (
            degenerate < 0.5 * np.minimum(absh[:, None], absh[None, :])
        )
        np.fill_diagonal(candidate, False)
        if not candidate.any():
            return mask
        shared = problem.overlap[np.ix_(sel, sel)]  # exact |d_i ∩ d_j| per pair
        w = problem.weights[sel]
        only_i = w[:, None] - shared
        only_j = w[None, :] - shared
        power = absh**2
        evidence = (only_i * power[:, None] + only_j * power[None, :]) / noise_power
        flagged = (candidate & (evidence < 16.0)).any(axis=1)
        mask[sel[flagged]] = True
        return mask

    def _node_margin_ok(self, node: int, row: int, participants: np.ndarray) -> bool:
        """Empirical decoding-margin test for a freeze on one slot.

        The rule calls it for every node below its weight requirement
        (weight 1, or weight 2 on a weak channel), always on the node's
        first slot ``rows[0]``: a weak weight-2 node is judged on that
        slot alone, not on its second.

        For every message position, the received symbol of this slot must
        be at least ``2·noise_std`` closer to the decoded constellation
        point than to the nearest point whose label flips *this node's*
        bit. Unlike a global min-distance test this uses the actual noise
        draw and transmitted labels, so a mostly-well-separated row is not
        vetoed by one degenerate pair it never landed on — while the
        near-cancelling-pair failure (``h_i ≈ −h_j``) still yields a ~zero
        margin and is rejected. Rows too dense to enumerate (> 12
        participants) are conservatively rejected.

        A row's participants, channels and symbols never change once
        received, so its constellation and flip-distance table
        (:meth:`_margin_table`) are built on the row's first test and
        reused: a call costs O(participants · P).
        """
        if participants.size == 0:
            return True
        if participants.size > 12:
            return False
        table = self._margin_tables.get(row)
        if table is None:
            table = self._margin_tables[row] = self._margin_table(row, participants)
        points, alt_min = table
        position = int(np.flatnonzero(participants == node)[0])
        # Index of the decoded point per position, from the current estimates.
        est = self._estimates[participants, :]  # (n, P)
        weights = 1 << np.arange(participants.size - 1, -1, -1)
        decoded_idx = (weights[:, None] * est).sum(axis=0)  # (P,)
        d_keep = np.abs(self._sym_buf[row] - points[decoded_idx])
        node_bits = self._estimates[node, :]  # (P,)
        margin = 2.0 * self.noise_std
        for group in (0, 1):
            pos_sel = np.flatnonzero(node_bits == group)
            if pos_sel.size == 0:
                continue
            d_alt = alt_min[position, group, pos_sel]
            if not bool(np.all(d_alt - d_keep[pos_sel] > margin)):
                return False
        return True

    def _margin_table(self, row: int, participants: np.ndarray) -> tuple:
        """``(points, alt_min)`` for one row: its collision constellation
        points and, per participant *q*, label group *g* and message
        position, the distance from the received symbol to the nearest
        point whose label gives *q* the bit ``1 − g``.

        ``collision_constellation`` is looked up in its module at call
        time, so instrumentation that wraps it there sees every build.
        """
        from repro.phy.constellation import collision_constellation

        constellation = collision_constellation(self.h[participants])
        # Distance from each received symbol to every constellation point.
        dist = np.abs(self._sym_buf[row][:, None] - constellation.points[None, :])  # (P, 2^n)
        alt_min = np.empty((participants.size, 2, self.p))
        for q in range(participants.size):
            labels_bit = constellation.labels[:, q]
            for group in (0, 1):
                alt_min[q, group] = dist[:, labels_bit != group].min(axis=1)
        return constellation.points, alt_min


@dataclass
class RatelessRunResult:
    """Outcome of one data phase (a whole transfer, or one mobile segment).

    Attributes
    ----------
    decoded_mask:
        Per-tag CRC success at termination (tags outside the reader's view
        are always ``False``).
    messages:
        ``(K, P)`` decoded message estimates, mapped back from the view.
    slots_used:
        Collision slots collected (the paper's L).
    duration_s:
        Airtime: the start command, ``L · P`` symbols at the uplink rate,
        and any silencing ACKs.
    transmissions:
        Per-tag count of slots in which the tag actually transmitted
        (drives the energy model).
    progress:
        Decode trace — the Fig. 9 bars.
    bit_errors:
        Hamming distance between decoded and true messages (diagnostic;
        zero for every CRC-passed message unless the CRC false-positived).
    in_view:
        Tags whose temporary id the reader's view covers — the columns
        the decoder actually served.
    ack_overhead_s:
        Silencing-ACK share of ``duration_s`` (0 without silencing).
    stalled:
        True when the stall monitor stopped the phase early — the adaptive
        session's re-identification trigger.
    """

    decoded_mask: np.ndarray
    messages: np.ndarray
    slots_used: int
    duration_s: float
    transmissions: np.ndarray
    progress: List[DecodeProgress]
    bit_errors: int
    in_view: np.ndarray
    ack_overhead_s: float = 0.0
    stalled: bool = False

    @property
    def n_decoded(self) -> int:
        return int(self.decoded_mask.sum())

    @property
    def message_loss(self) -> int:
        """Messages not delivered — the paper's Fig. 11/12 error metric."""
        return int((~self.decoded_mask).sum())

    def bits_per_symbol(self) -> float:
        """Realised aggregate rate K/L (Fig. 9/12's right axis); ACK time
        is not counted."""
        if self.slots_used == 0:
            return float("inf")
        return self.decoded_mask.size / self.slots_used


def oracle_id_space(k: int) -> int:
    """Temporary-id space ``10·K²`` for ``K`` tags that skip identification:
    the oracle-view uplinks and the multi-reader sessions draw their ids
    from it, and the oracle view's silencing ACKs are priced in it."""
    return 10 * k * k


def ack_duration_s(id_space: int) -> float:
    """Time for one silencing ACK: echo of a temporary id plus framing.

    The id needs ``ceil(log2(id_space))`` bits; the ACK adds a 2-bit
    command prefix (mirroring Gen-2's ACK framing) and a T1 turnaround on
    each side.
    """
    id_bits = max(1, math.ceil(math.log2(max(2, id_space))))
    return GEN2_DEFAULT_TIMING.downlink_s(id_bits + 2) + 2 * GEN2_DEFAULT_TIMING.t1_s


class _ReaderView(NamedTuple):
    """The reader's decoder view and its mapping back to the tags.

    ``mapping[i]`` is the decoder column serving tag *i*, or −1 when the
    reader never recovered that tag's temporary id (its message is
    unreachable). ``oracle`` marks the view built from the tags
    themselves, whose D must then match the tags' schedule bit for bit.
    """

    seeds: List[int]
    h: np.ndarray
    mapping: np.ndarray
    oracle: bool


def _air_slot(
    row: np.ndarray,
    on_air: np.ndarray,
    messages: np.ndarray,
    channels: np.ndarray,
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
) -> tuple:
    """One data slot on the air: the coin row masked to the tags that
    actually reflect, and the symbols the reader receives for it."""
    air_row = row * on_air.astype(np.uint8)
    tx_per_position = (messages * air_row[:, None]).T  # (P, K)
    return air_row, front_end.observe(tx_per_position, channels, rng)


def _run_data_phase(
    messages: np.ndarray,
    channels: Optional[np.ndarray],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    *,
    tag_seeds: List[int],
    view: _ReaderView,
    density: float,
    limit: int,
    config: BuzzConfig,
    trajectory: Optional[ChannelTrajectory] = None,
    participants: Optional[np.ndarray] = None,
    start_s: float = 0.0,
    ack_s: Optional[float] = None,
    stall_limit: Optional[int] = None,
) -> RatelessRunResult:
    """The air side of the data phase every single-reader entry point runs
    (module docstring); the reader side is a :class:`RatelessDecoder`.

    Per slot: the tags on the air are the participants that are in the
    field now and not silenced; the reader receives and the decoder
    ingests the slot. ``channels`` is the static field; a ``trajectory``
    replaces it with the channels and presence at each slot's airtime,
    ``start_s`` on. ``ack_s`` is one silencing ACK's airtime (``None``
    without silencing).

    Receive path: a static field without silencing has fixed rows and
    channels for a whole block of slots, so it receives the block in one
    vectorized ``observe_block`` call (same noise stream as per-slot
    calls, equal to the last ulp); otherwise each slot is received on its
    own, because who transmits (silencing) or on what channel (a
    trajectory, whose ``now`` includes ACK time) depends on the decodes of
    the block's earlier slots.
    """
    k, n_positions = messages.shape
    decoder = RatelessDecoder(
        view.seeds, view.h, n_positions, density, config,
        np.random.default_rng(rng.integers(0, 2**63)), front_end.noise_std,
        ack_s=ack_s,
        stall_limit=stall_limit,
    )
    block_receive = trajectory is None and ack_s is None
    symbol_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps
    slot_s = n_positions * symbol_s
    block_size = max(1, min(limit, RatelessDecoder.ROW_BLOCK))
    matched = view.mapping >= 0
    channels_now = channels

    transmissions = np.zeros(k, dtype=int)
    slot = 0
    while slot < limit and not decoder.done:
        # The tags' coins are a pure function of (temp_id, slot), drawn for
        # a block at once; the reader regenerates its own D for the block.
        block = range(slot, min(slot + block_size, limit))
        tag_rows = slot_decision_matrix(tag_seeds, block, density, salt=SALT_DATA)
        reader_rows = decoder.expected_rows(block)
        # An explicit check (unlike an ``assert``, it survives ``python
        # -O``); a non-oracle view's D may disagree with the tags — that is
        # its whole failure surface.
        if view.oracle and not np.array_equal(tag_rows, reader_rows):
            raise RuntimeError(
                "D regeneration diverged: reader-side seeds or density "
                "do not reproduce the tags' transmit schedule"
            )
        if block_receive:
            block_symbols = front_end.observe_block(tag_rows, messages, channels, rng)
        for offset in range(len(block)):
            if block_receive:
                row, symbols = tag_rows[offset], block_symbols[offset]
            else:
                # A tag falls silent when its own temporary id is echoed.
                on_air = ~(matched & decoder.acked[view.mapping])
                if trajectory is not None:
                    # Airtime so far, measured at this slot's start.
                    now = start_s + slot * slot_s + decoder.ack_overhead_s
                    on_air &= participants & trajectory.active_at(now)
                    channels_now = trajectory.channels_at(now)
                row, symbols = _air_slot(
                    tag_rows[offset], on_air, messages, channels_now, front_end, rng
                )
            transmissions += row
            decoder.ingest(symbols, reader_rows[offset])
            slot += 1
            if decoder.done:
                break

    # Project the per-view outcome back onto the tags.
    decoded = np.zeros(k, dtype=bool)
    estimates = np.zeros((k, n_positions), dtype=np.uint8)
    decoded[matched] = decoder.decoded_mask[view.mapping[matched]]
    estimates[matched] = decoder.messages()[view.mapping[matched]]
    slots = decoder.slots_collected
    # The static and mobile paths price slots as (L·P)·T and L·(P·T); the
    # two differ in the last ulp and both are pinned by goldens.
    airtime = slots * n_positions * symbol_s if trajectory is None else slots * slot_s
    return RatelessRunResult(
        decoded_mask=decoded,
        messages=estimates,
        slots_used=slots,
        duration_s=airtime + GEN2_DEFAULT_TIMING.query_duration_s() + decoder.ack_overhead_s,
        transmissions=transmissions,
        progress=decoder.progress,
        bit_errors=int(np.count_nonzero(estimates != messages)),
        in_view=matched.copy(),
        ack_overhead_s=decoder.ack_overhead_s,
        stalled=decoder.stalled,
    )


def _run_oracle(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    config: BuzzConfig,
    max_slots: Optional[int],
    silencing: bool = False,
) -> RatelessRunResult:
    """Run the loop over a static field with the oracle view — the tags'
    own temporary ids and true channels, density and abort bound from the
    true K. Takes :func:`run_rateless_uplink`'s arguments in its order, so
    both oracle entry points (it and :func:`~repro.core.silencing.
    run_rateless_with_silencing`) forward them positionally.
    """
    k = len(tags)
    if k == 0:
        raise ValueError("need at least one tag")
    messages = np.stack([t.message for t in tags])
    channels = np.array([t.channel for t in tags], dtype=complex)
    # The data-phase schedule (and hence the reader's D) is keyed by
    # temporary ids. Tags that deviate from it (failure injection) are
    # modelled by the caller's front end, not here.
    for t in tags:
        if t.temp_id is None:
            raise RuntimeError("tag has no temporary id yet")
    tag_seeds = [t.temp_id for t in tags]
    return _run_data_phase(
        messages,
        channels,
        front_end,
        rng,
        tag_seeds=tag_seeds,
        view=_ReaderView(tag_seeds, channels, np.arange(k), True),
        density=config.data_density(k),
        limit=max_slots if max_slots is not None else config.max_data_slots(k),
        config=config,
        ack_s=ack_duration_s(oracle_id_space(k)) if silencing else None,
    )


def run_rateless_uplink(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    config: BuzzConfig = BuzzConfig(),
    max_slots: Optional[int] = None,
) -> RatelessRunResult:
    """Run the full data-transmission phase over the simulated PHY, with
    the oracle reader view (paper §9: "the reader has already performed
    node identification").

    ``tags`` must already hold temporary ids (from :func:`repro.core.
    identification.identify`, or assigned statically for periodic
    networks); the decoder works from those ids and the true channels.
    A data phase over the ids and channel estimates an identification
    *recovered* is :func:`repro.core.mobile.run_mobile_data_segment`.
    """
    return _run_oracle(tags, front_end, rng, config, max_slots)
