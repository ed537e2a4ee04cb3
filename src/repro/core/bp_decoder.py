"""Bit-flipping belief-propagation decoder (paper §6c, Alg. 1, Fig. 5).

The reader wants the binary vector ``b`` that explains one bit-position's
collisions: ``min_b ‖D·diag(h)·b − y‖²`` with ``b ∈ {0,1}^K``. The decoder:

1. initialises ``b̂`` (randomly, per the paper — or warm-started from the
   previous decode attempt in the rateless loop);
2. maintains for every bit the **gain** ``G_i`` — the error reduction from
   flipping bit *i* alone;
3. repeatedly flips the maximum-gain bit until all gains are ≤ 0.

Because flipping bit *i* only changes the residual on the slots where tag
*i* transmitted (``D[:, i] = 1``), only the gains of *i* and of its
neighbours' neighbours in the bipartite graph change — the sparse-D
locality the paper exploits. We implement exactly that incremental update.

Closed form used throughout: with residual ``r = y − D(h∘b̂)`` and flip
delta ``δ_i = h_i(1 − 2b̂_i)``,

    G_i = 2·Re(δ_i · Σ_{j: D_ji=1} conj(r_j)) − w_i·|δ_i|²

where ``w_i`` is tag *i*'s column weight.

When single flips stall, a joint two-bit flip may still gain (near-
degenerate channel pairs, ``h_i ≈ ±h_j``, make two-bit local minima).
:func:`resolve_stalls` takes that escape for every stalled column of a
round at once; the round's bounds come from one :func:`pair_bounds` call,
and :func:`best_pair_flip` is its route for wide candidate sets.

:class:`PackedBitFlipDecoder` is the one production kernel: the rateless
reader binds it to its persistent decoder state and decodes all message
positions at once. The scalar per-position decoder it is pinned to, its
full (free × free) pair scan, and a full-width front end with a
``frozen`` mask are test oracles in :mod:`repro.core.reference`; they
share no pair-scan code with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.utils.validation import ensure_positive_int

__all__ = [
    "best_pair_flip",
    "resolve_stalls",
    "pair_bounds",
    "cross_magnitudes",
    "BatchedDecodeOutcome",
    "PackedBitFlipDecoder",
    "resolve_kernel",
]

_NEG_INF = -np.inf
#: Gains below this are treated as zero — guards float jitter from cycling.
_GAIN_TOL = 1e-9


def cross_magnitudes(h: np.ndarray) -> np.ndarray:
    """``(K, K)`` exact pair cross-term magnitudes ``2|Re(conj(h_i)·h_j)|``.

    The pair-flip cross term is ``2·Re(conj(δ_i)·δ_j)·ov_ij`` with
    ``δ = ±h`` — the bit signs flip its sign but never its magnitude, so
    this matrix times the overlap bounds every pair's cross term exactly
    (only the sign alignment is unknown). Static per channel vector: the
    state computes it once per (re)channel event, kernels lazily per
    problem.
    """
    h = np.asarray(h, dtype=complex).ravel()
    return 2.0 * np.abs(np.real(np.conj(h)[:, None] * h[None, :]))


def pair_bounds(cross_mag: np.ndarray, overlap: np.ndarray) -> tuple:
    """``(co, cap)``: the pair scan's per-pair and per-node cross-term bounds.

    ``co = cross_mag · overlap`` bounds pair *(i, j)*'s cross term
    ``2·Re(conj(δ_i)·δ_j)·ov_ij`` exactly up to sign alignment
    (:func:`cross_magnitudes`), so it depends only on the channels and the
    slot overlaps, not on the current estimates; its diagonal is zeroed.
    ``cap`` holds its row maxima, ``max_{j≠i} co_ij``. A decode round
    builds both once and reuses them at every stall: see
    :func:`resolve_stalls` for how the caps prove a scan fruitless in
    O(K), and :func:`best_pair_flip` for the per-pair bound.
    """
    co = cross_mag * overlap
    np.fill_diagonal(co, 0.0)
    return co, co.max(axis=1, initial=0.0)


def best_pair_flip(
    gains: np.ndarray,
    delta: np.ndarray,
    overlap: np.ndarray,
    cand: np.ndarray,
    co: np.ndarray,
) -> Optional[tuple]:
    """Best positive-gain joint two-bit flip of one stalled column, or
    ``None``: the route :func:`resolve_stalls` takes for a column with a
    wide candidate set.

    Flipping *i* and *j* together changes the error by
    ``G_i + G_j − 2·Re(conj(δ_i)·δ_j)·|d_i ∩ d_j|``: the cross term lives
    only on shared slots. ``cand`` is the column's candidate set,
    ascending, which the resolver has already proved holds both endpoints
    of every positive pair. The route bounds every (cand × all bits) pair
    by ``G_i + G_j + co_ij`` (:func:`pair_bounds`) in real arithmetic and
    evaluates exact gains only for the pairs whose bound is positive.
    Whole rows of ``co`` are gathered, because at this width a contiguous
    row gather beats a 2-D ``np.ix_`` gather; the extra columns are
    harmless, since a pair with an endpoint outside ``cand`` has gain ≤ 0
    and can neither win nor tie. Selection is the full scan's: the first
    strict maximum above the gain tolerance over pairs ``i < j`` in
    row-major order.
    """
    gc = gains[cand]
    bound = co[cand]
    bound += gains[None, :]
    bound[np.arange(cand.size), cand] = _NEG_INF
    # Row maxima prove most stalls fruitless in one reduction pass, and
    # narrow the survivor walk to the rows that can still hold a positive
    # pair: float addition is monotone, so a row whose maximum plus its
    # own gain is ≤ 0 has no positive element — the compare + nonzero
    # below see only the live rows and the survivor set is unchanged.
    alive = np.flatnonzero(bound.max(axis=1) + gc > 0.0)
    if alive.size == 0:
        return None
    bound = bound[alive]
    bound += gc[alive, None]
    brows, jj = np.nonzero(bound > 0.0)
    if brows.size == 0:
        return None
    ii = cand[alive[brows]]
    cross = 2.0 * np.real(np.conj(delta[ii]) * delta[jj])
    pair_gains = gains[ii] + gains[jj] - cross * overlap[ii, jj]
    best = pair_gains.max()
    if not best > _GAIN_TOL:
        return None
    tied = np.flatnonzero(pair_gains == best)
    i = np.minimum(ii[tied], jj[tied])
    j = np.maximum(ii[tied], jj[tied])
    sel = int(np.lexsort((j, i))[0])
    return int(i[sel]), int(j[sel])


#: Above this many candidates, a column whose candidates are more than half
#: its bits goes to :func:`best_pair_flip`'s real-arithmetic bound route:
#: an exact (c × c) block is then dearer than the bound's (c × K) pass.
_EXACT_BLOCK_MAX_CAND = 48
#: Element cap on one stacked exact pair-gain block, counted in pairs: a
#: chunk of columns padded to width ``c`` holds ``columns · c(c − 1)/2``.
_EXACT_BLOCK_ELEMS = 1 << 18


@lru_cache(maxsize=64)
def _triu_indices(n: int) -> tuple:
    """Cached ``np.triu_indices(n, 1)``: the pairs ``a < b`` of ``n``
    candidates, in row-major order."""
    return np.triu_indices(n, 1)


def resolve_stalls(
    gains: np.ndarray,
    h: np.ndarray,
    signs: np.ndarray,
    overlap: np.ndarray,
    cap: np.ndarray,
    co: np.ndarray,
) -> np.ndarray:
    """The pair-flip escape for S stalled columns in one batched pass.

    ``gains`` and ``signs`` are ``(K, S)``: column *s* holds one stalled
    decode column's single-flip gains and bit signs ``1 − 2·b``, so its
    flip deltas are ``δ = h · signs[:, s]``. Every bit is free: the
    packed kernel runs on a peeled problem, so there is no frozen mask.
    ``(co, cap)`` are the round's :func:`pair_bounds`. Returns an
    ``(S, 2)`` int array whose row *s* is column *s*'s best positive-gain
    pair ``i < j`` — the first strict maximum above the gain tolerance in
    row-major order, as the full (K × K) scan
    (:func:`repro.core.reference.full_pair_scan`) picks it — or
    ``(-1, -1)`` where no pair gains.

    **Candidates.** A pair's gain is at most ``G_i + G_j + cap_i`` (and
    the same with ``cap_j``), so both endpoints of any pair clearing the
    (positive) gain tolerance satisfy ``max_{l≠x} G_l + G_x + cap_x > 0``.
    The proof runs for every column at once, from each column's top gain
    (one argmax) and its runner-up (one max with that entry masked, which
    equals the top gain when the top is tied); columns left with fewer
    than two candidates retire. This is what makes a *converged*
    column's last, fruitless scan — every column pays one as its
    stall-termination proof — O(K) instead of O(K²).

    **Exact blocks.** The survivors' exact pair gains are evaluated over
    the upper triangle of their (cand × cand) blocks only, stacked into
    padded ``(columns, c(c − 1)/2)`` rows in ascending candidate order
    (:func:`_exact_block_pairs`). ``_EXACT_BLOCK_ELEMS`` caps one stack in
    those triangle elements; past it the columns are stacked narrowest
    first in chunks. Per-pair gains are the full scan's elementwise float
    expressions (symmetric in the pair order) and excluded pairs provably
    sit at or below zero, so every decision is bit-identical. Flip deltas
    are built only for the candidates these blocks gather. Columns whose
    candidates are both many and more than half the bits go to
    :func:`best_pair_flip` one by one, whose bound route is cheaper there.
    """
    k_dim, s_dim = gains.shape
    pairs = np.full((s_dim, 2), -1, dtype=np.int64)
    if k_dim < 2 or s_dim == 0:
        return pairs
    cols = np.arange(s_dim)
    top_at = np.argmax(gains, axis=0)
    top = gains[top_at, cols]
    rest = gains.copy()
    rest[top_at, cols] = _NEG_INF
    runner_up = rest.max(axis=0)
    # Each bit's best partner gain is its column's top gain, except the
    # top bit's own, which is the runner-up.
    own = gains + cap[:, None]
    is_cand = top + own > 0.0
    is_cand[top_at, cols] = runner_up + own[top_at, cols] > 0.0
    n_cand = np.count_nonzero(is_cand, axis=0)

    bound = (n_cand > _EXACT_BLOCK_MAX_CAND) & (2 * n_cand > k_dim)
    for s in np.flatnonzero(bound):
        pair = best_pair_flip(
            gains[:, s], h * signs[:, s], overlap, np.flatnonzero(is_cand[:, s]), co
        )
        if pair is not None:
            pairs[s] = pair
    n_cand[bound] = 0

    exact = np.flatnonzero(n_cand >= 2)
    if exact.size == 0:
        return pairs
    widths = n_cand[exact]
    tri = widths * (widths - 1) // 2
    if exact.size * int(tri.max()) <= _EXACT_BLOCK_ELEMS:
        chunks = [exact]
    else:
        # Narrowest first, each chunk as many columns as fit under the cap.
        order = np.argsort(widths, kind="stable")
        exact, tri = exact[order], tri[order]
        chunks = []
        start = 0
        while start < exact.size:
            sizes = np.arange(1, exact.size - start + 1) * tri[start:]
            stop = start + max(1, int(np.count_nonzero(sizes <= _EXACT_BLOCK_ELEMS)))
            chunks.append(exact[start:stop])
            start = stop
    for chunk in chunks:
        _exact_block_pairs(gains, h, signs, is_cand, n_cand[chunk], chunk, overlap, pairs)
    return pairs


def _exact_block_pairs(gains, h, signs, is_cand, n_cand, chunk, overlap, pairs):
    """Fill ``pairs`` for the columns ``chunk`` from one stacked exact block.

    Each column's candidates are gathered once, in ascending order and
    padded to the chunk's widest count ``w``; only the ``w(w − 1)/2``
    pairs ``a < b`` of the cached :func:`_triu_indices` are evaluated,
    with the full scan's float expressions. Padding carries gain
    ``-inf``, so no pair that touches it can win, and the flat argmax
    over the triangle's row-major order is the first maximum the full
    scan finds.
    """
    width = int(n_cand.max())
    # Candidate positions, ascending (a stable sort puts them first).
    pos = np.argsort(~is_cand[:, chunk], axis=0, kind="stable")[:width].T
    col = chunk[:, None]
    gc = gains[pos, col]
    gc[np.arange(width) >= n_cand[:, None]] = _NEG_INF
    dc = h[pos] * signs[pos, col]
    ti, tj = _triu_indices(width)
    # One flat gather of the pairs' overlaps: cheaper than a 2-D one.
    ov = overlap.ravel()[(pos * overlap.shape[1])[:, ti] + pos[:, tj]]
    cross = 2.0 * np.real(np.conj(dc)[:, ti] * dc[:, tj])
    pair_gains = gc[:, ti] + gc[:, tj] - cross * ov
    arg = np.argmax(pair_gains, axis=1)
    rows = np.flatnonzero(pair_gains[np.arange(chunk.size), arg] > _GAIN_TOL)
    arg = arg[rows]
    pairs[chunk[rows], 0] = pos[rows, ti[arg]]
    pairs[chunk[rows], 1] = pos[rows, tj[arg]]


@dataclass
class BatchedDecodeOutcome:
    """Result of one batched decode over M bit positions.

    Every array is the one the decode worked in: a state-bound decode
    (:meth:`PackedBitFlipDecoder.decode_best_of_state`) returns the
    state's own bits, residual and correlations, and a restart winner is
    spliced into them (:meth:`splice`), so the residual and correlations
    always match ``bits``.

    Attributes
    ----------
    bits:
        The decoded ``(K, M)`` binary matrix — column *m* is position *m*'s
        estimate.
    flips:
        ``(M,)`` flips performed per position.
    converged:
        ``(M,)`` — False where the flip-budget safety valve tripped.
    residual_norms:
        ``(M,)`` per-position ``‖D(h∘b̂_m) − y_m‖₂`` at termination.
    residual:
        ``(L, M)`` final residual ``y − D(h∘b̂)``.
    corr_re / corr_im:
        ``(K, M)`` split final correlations ``Dᵀ·conj(residual)``.
    """

    bits: np.ndarray
    flips: np.ndarray
    converged: np.ndarray
    residual_norms: np.ndarray
    residual: np.ndarray
    corr_re: np.ndarray
    corr_im: np.ndarray

    def splice(self, cols, trials: "BatchedDecodeOutcome", picks) -> None:
        """Overwrite columns ``cols`` with columns ``picks`` of ``trials``."""
        self.bits[:, cols] = trials.bits[:, picks]
        self.residual[:, cols] = trials.residual[:, picks]
        self.corr_re[:, cols] = trials.corr_re[:, picks]
        self.corr_im[:, cols] = trials.corr_im[:, picks]
        self.flips[cols] = trials.flips[picks]
        self.converged[cols] = trials.converged[picks]
        self.residual_norms[cols] = trials.residual_norms[picks]


class PackedBitFlipDecoder:
    """Joint decoder for *all* M bit positions of all K nodes at once.

    The M per-position collision systems ``min_b ‖D·diag(h)·b − y_m‖²``
    share the same D, h, and bipartite graph — only the received column
    ``y_m`` and the bit column ``b_m`` differ. This kernel keeps the full
    ``(K, M)`` bit state as a float sign matrix, the ``(L, M)`` residual
    matrix and the ``(K, M)`` correlations ``Dᵀ·conj(R)``, and every round
    flips the argmax bit of every still-active position. ("Packed" names
    the M positions packed side by side into one batch; no bit state is
    held in machine words.) Positions freeze independently: a column
    whose gains are exhausted (and whose pair-flip escape finds nothing)
    drops out of later rounds. The per-round arithmetic rests on three
    observations:

    * **Bits are signs.** ``|δ_i|² = |h_i|²`` regardless of the bit, so the
      per-round gains are a float sign matrix ``1 − 2·b`` times
      precomputed per-tag constants — no materialised complex ``delta`` /
      ``|delta|²`` temporaries. The sign matrix is the round loop's only
      bit state: a flip negates one entry, and the 0/1 bits are read back
      from it (``sign < 0``) once per solve.
    * **Gains update incrementally.** Flipping bit *i* of column *m*
      changes that column's correlation by ``conj(δ_i)·(Dᵀ d_i)`` — one
      column of the slot-overlap matrix — so a round costs an axpy over
      the flipped columns; only the restart trials' *initial* correlation
      (and the final residual norms) cost a matmul.
    * **One round loop per decode.** Every position draws exactly R
      restart inits, so all of them can be drawn up front. The warm
      columns and the M·R trials are independent problems, stacked side
      by side and flipped by a single round loop
      (:meth:`decode_best_of_state`).

    The kernel is bound to a :class:`~repro.core.decoder_state.
    DecoderState` (:meth:`from_state`) and decodes its *peeled active*
    problem: verified columns are already subtracted from the state's
    symbols, so every bit the kernel sees may flip.

    Flip decisions per column are those of :class:`~repro.core.reference.
    BitFlipDecoder`, the scalar reference — same gain formula, same
    tolerance, same pair-flip escape (:func:`resolve_stalls` returns the
    full pair scan's pairs), same restart RNG draw order — so the
    decoded bits, flip counts and converged flags equal running the
    per-position decoder M times with a shared generator. Residual norms
    agree to float precision, not bitwise: the correlations accumulate
    through incremental updates where the scalar decoder re-derives them
    per flip. A decision can differ only when a gain sits within rounding
    error of a tie or of the gain tolerance — vanishingly rare with
    continuous channel draws, and pinned by the hypothesis and
    golden-seed equivalence suites.
    """

    @classmethod
    def from_state(cls, state, max_flips: int = 10_000):
        """Bind a kernel to a persistent decoder state — no setup gemms.

        The kernel points at the live views the state already maintains
        (float D, weights, the (K, K) overlap and cross-term magnitudes):
        O(1) plus a transpose view. ``max_flips`` bounds
        the flips per position per decode call.
        """
        ensure_positive_int(max_flips, "max_flips")
        self = cls.__new__(cls)
        self.max_flips = max_flips
        self._state = state
        self.h = state.h
        self._d_f = state.d
        # A transpose view: gemms accept either layout, and copying to
        # C-order would re-pay an (L, K) pass per kernel construction.
        self._dT = self._d_f.T
        self._weights = state.weights
        self._hr = state.hr
        self._hi = state.hi
        self._wh2 = state.weights * state.abs_h2
        self._overlap = state.overlap
        self._cross_mag = state.cross_mag
        self._bounds = None
        return self

    # ---- decoding -------------------------------------------------------------
    def decode_best_of_state(self, restarts: int, rng: np.random.Generator) -> BatchedDecodeOutcome:
        """Warm decode plus ``restarts`` random retries per position, on
        the state, as one round loop.

        The warm columns start from the state's bits, residual and
        correlations, which already sit at the previous round's local
        optimum plus the rank-(new rows) extensions: no initial residual
        or correlation gemm for them. Every position draws exactly
        ``restarts`` inits, all up front (:meth:`_draw_trials`), and the
        trials are solved in the same stacked batch as the warm columns;
        the warm columns are then copied back into the state's arrays and
        each position's winning trial is spliced in, keeping the state
        warm for the next round. A trial wins only with a strictly smaller
        residual norm than the warm column and every earlier trial.
        """
        state = self._state
        n_restarts = max(0, restarts)
        if n_restarts == 0:
            return self._solve(state.bits, state.residual, state.corr_re, state.corr_im)
        m = state.bits.shape[1]
        trial_init, trial_residual, trial_corr = self._draw_trials(n_restarts, rng)
        fused = self._solve(
            np.concatenate([state.bits, trial_init], axis=1),
            np.concatenate([state.residual, trial_residual], axis=1),
            np.concatenate([state.corr_re, trial_corr.real], axis=1),
            np.concatenate([state.corr_im, trial_corr.imag], axis=1),
        )
        state.bits[...] = fused.bits[:, :m]
        state.residual[...] = fused.residual[:, :m]
        state.corr_re[...] = fused.corr_re[:, :m]
        state.corr_im[...] = fused.corr_im[:, :m]
        warm = BatchedDecodeOutcome(
            bits=state.bits,
            flips=fused.flips[:m].copy(),
            converged=fused.converged[:m].copy(),
            residual_norms=fused.residual_norms[:m].copy(),
            residual=state.residual,
            corr_re=state.corr_re,
            corr_im=state.corr_im,
        )
        trial_norms = fused.residual_norms[m:].reshape(m, n_restarts)
        # First minimum per position: the earlier trial wins ties.
        winner = np.argmin(trial_norms, axis=1)
        won = np.flatnonzero(trial_norms[np.arange(m), winner] < warm.residual_norms)
        warm.splice(won, fused, m + won * n_restarts + winner[won])
        return warm

    def _draw_trials(self, n_restarts: int, rng: np.random.Generator) -> tuple:
        """Every position's ``n_restarts`` restart inits and their initial
        residual and correlations.

        Each init is ``rng.random(state.k_full) < 0.5`` — drawn over the
        *full* population and cut to the active set, so a verified node's
        draw is discarded exactly as the scalar reference overwrites it
        with the verified value and both leave the generator in the same
        state — drawn position-major (all of position 0's inits before
        position 1's). Zero-weight bits are pinned to the state's bits:
        their gains are exactly 0, so they cannot flip and their values
        before the warm solve are their values after it, and randomizing
        them would only make an equal-norm trial adoption visible.
        Returns ``(init, residual, corr)``, column ``m·R + r`` being
        position *m*'s trial *r*.
        """
        state = self._state
        m, k_draw = state.bits.shape[1], state.k_full
        draws = rng.random((m, n_restarts, k_draw)) < 0.5
        init = (
            draws.transpose(2, 0, 1).reshape(k_draw, m * n_restarts)[state.active_idx]
        ).astype(np.uint8)
        cols = np.repeat(np.arange(m), n_restarts)
        pinned = self._weights == 0
        init[pinned, :] = state.bits[np.ix_(pinned, cols)]
        residual = state.y[:, cols] - self._d_f @ (self.h[:, None] * init)
        return init, residual, self._dT @ np.conj(residual)

    def _solve(
        self,
        bits: np.ndarray,
        residual: np.ndarray,
        corr_re: np.ndarray,
        corr_im: np.ndarray,
    ) -> BatchedDecodeOutcome:
        """Flip every column of ``bits`` to its local optimum, in place.

        ``residual`` and the split correlations must match ``bits``; the
        round loop keeps them consistent, and the outcome is a view over
        the same arrays. The round loop's only bit state is the float sign
        matrix ``1 − 2·bits``; ``bits`` is written back from it at the end.
        """
        m = bits.shape[1]
        signs = np.where(bits, -1.0, 1.0)
        flips = np.zeros(m, dtype=np.int64)
        active = np.ones(m, dtype=bool)
        self._run_rounds(corr_re, corr_im, signs, residual, active, flips)
        bits[...] = signs < 0.0
        return BatchedDecodeOutcome(
            bits=bits,
            flips=flips,
            converged=flips < self.max_flips,
            residual_norms=np.sqrt(np.sum(np.abs(residual) ** 2, axis=0)),
            residual=residual,
            corr_re=corr_re,
            corr_im=corr_im,
        )

    # ---- round loop -------------------------------------------------------------
    def _run_rounds(
        self,
        corr_re: np.ndarray,
        corr_im: np.ndarray,
        signs: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray,
        flips: np.ndarray,
    ) -> None:
        """Flip every active column to its local optimum, in place."""
        overlap = self._overlap
        k_dim, m_dim = signs.shape
        if k_dim == 0:
            # Fully-peeled problem: no bit can flip, every column retires.
            active[:] = False
            return
        col_idx = np.arange(m_dim)
        # Doubling is exact, so (2·hr)·corr − (2·hi)·corr is bit for bit
        # 2·(hr·corr − hi·corr), one pass cheaper per round.
        hr2 = 2.0 * self._hr[:, None]
        hi2 = 2.0 * self._hi[:, None]
        wh2 = self._wh2[:, None]
        # Two reusable (K, M) scratch matrices: at this size every fresh
        # temporary is an mmap round-trip, and the round loop runs dozens
        # of times per decode.
        gains = np.empty((k_dim, m_dim))
        scratch = np.empty((k_dim, m_dim))
        rounds = 0
        while True:
            # The per-position loop checks the flip budget *before* looking
            # at gains, so a column at its budget retires unconverged here
            # too, without a final gain pass. A column gains at most one
            # flip per round, so none can reach the budget sooner than
            # round ``max_flips``.
            if rounds >= self.max_flips:
                active &= flips < self.max_flips
                if not active.any():
                    return
            rounds += 1
            # Fused gain pass: sign · 2·Re(h·corr) − w·|h|², no complex
            # temporaries, in five passes. Computed over *all* columns —
            # contiguous whole-matrix ops beat fancy-indexed copies of the
            # active subset, and retired columns' gains are simply never
            # consulted.
            np.multiply(hr2, corr_re, out=gains)
            np.multiply(hi2, corr_im, out=scratch)
            np.subtract(gains, scratch, out=gains)
            np.multiply(signs, gains, out=gains)
            np.subtract(gains, wh2, out=gains)
            best = np.argmax(gains, axis=0)
            best_gain = gains[best, col_idx]
            flippable = active & (best_gain > _GAIN_TOL)

            fcols = np.flatnonzero(flippable)
            if fcols.size == 0:
                # Every active column has stalled: one batched pair-flip
                # escape for all of them. Columns are independent problems,
                # so a column that stalled in an earlier round waited here
                # unchanged (its gains recomputed bit for bit) and takes
                # the decision it would have taken then.
                stalled = np.flatnonzero(active)
                self._escape_stalls(
                    gains[:, stalled], corr_re, corr_im, signs, residual,
                    stalled, active, flips,
                )
                # Only an escape retires columns: a flip round leaves
                # ``active`` as it was, with at least one column in it.
                if not active.any():
                    return
            else:
                fbits = best[fcols]
                s = signs[fbits, fcols]
                fdelta = self.h[fbits] * s
                fdre = self._hr[fbits] * s
                fdim = self._hi[fbits] * s
                ov = overlap[:, fbits]  # one gather, reused for re and im
                if fcols.size == m_dim:
                    # Every column flips (the common dense-error regime):
                    # skip the fancy-indexed read/modify/write round-trip.
                    corr_re -= ov * fdre[None, :]
                    corr_im += ov * fdim[None, :]
                    residual -= self._d_f[:, fbits] * fdelta[None, :]
                else:
                    corr_re[:, fcols] -= ov * fdre[None, :]
                    corr_im[:, fcols] += ov * fdim[None, :]
                    residual[:, fcols] -= self._d_f[:, fbits] * fdelta[None, :]
                signs[fbits, fcols] = -s
                flips[fcols] += 1

    def _escape_stalls(
        self,
        gains: np.ndarray,
        corr_re: np.ndarray,
        corr_im: np.ndarray,
        signs: np.ndarray,
        residual: np.ndarray,
        stalled: np.ndarray,
        active: np.ndarray,
        flips: np.ndarray,
    ) -> None:
        """Pair-flip escape for the ``stalled`` columns (``gains`` is their
        block): retire each column without a positive-gain pair and apply
        every other column's pair flip.

        :func:`resolve_stalls` takes all the decisions in one batched pass
        against this kernel's overlap and :func:`pair_bounds`, which are
        built at the instance's first stall and reused at every later one
        (an instance decodes one fixed problem). It gets the stalled
        columns' signs and builds flip deltas only for the candidates it
        gathers. The escaping columns' correlations and residual are then
        gathered once into a block; each pair is two single-bit flips in
        pair order, *i* then *j* — correlation axpy, masked residual
        update, sign — applied to the whole block with the per-column
        expressions, and the block is scattered back once.
        """
        if self._bounds is None:
            self._bounds = pair_bounds(self._cross_mag, self._overlap)
        co, cap = self._bounds
        pairs = resolve_stalls(gains, self.h, signs[:, stalled], self._overlap, cap, co)
        hit = pairs[:, 0] >= 0
        active[stalled[~hit]] = False
        cols, pairs = stalled[hit], pairs[hit]
        if cols.size == 0:
            return
        overlap = self._overlap
        cre, cim, res = corr_re[:, cols], corr_im[:, cols], residual[:, cols]
        for idx in pairs.T:
            s = signs[idx, cols]
            ov = overlap[:, idx]
            cre -= ov * (self._hr[idx] * s)
            cim -= ov * (-(self._hi[idx] * s))
            res = np.where(self._d_f[:, idx] != 0.0, res - self.h[idx] * s, res)
            signs[idx, cols] = -s
        corr_re[:, cols] = cre
        corr_im[:, cols] = cim
        residual[:, cols] = res
        flips[cols] += 1


def resolve_kernel() -> type:
    """The decode kernel class the rateless loop runs:
    :class:`PackedBitFlipDecoder`.

    Instrumentation that wraps the kernel's methods binds through this
    function rather than naming the class.
    """
    return PackedBitFlipDecoder
