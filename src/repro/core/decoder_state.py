"""Persistent cross-round decode state for the rateless reader.

The rateless reader decodes *online*: after every slot arrival it
re-solves ``min_b ‖D·diag(h)·b − y_m‖²`` per message position,
warm-started from the previous round's estimates. Rebuilding that problem
from scratch on each call costs a stack over all L collected rows, an
(L, K) signal build, an initial (K, M) correlation gemm and — on every
call whose columns end in a stall, i.e. all of them, because retirement
goes through the pair-flip scan — the (K, K) DᵀD overlap gemm. Over a
session that is O(L²·K²) aggregate work where O(L·K²) suffices.

:class:`DecoderState` keeps all of it live between calls:

* **Rank-(new rows) extension.** :meth:`append_slot` folds one collision
  row into the state with an outer-product accumulation into DᵀD, an axpy
  into the Dᵀy correlations, and one residual row — O(K·M) per slot
  instead of O(L·K·M + K²·L) per decode call.
* **Frozen-column peeling.** Once a message verifies, :meth:`peel`
  subtracts its ``h_i·D[:, i]·b_i`` contribution from the stored symbols
  and compacts the column out of the active set, so every later flip
  round, restart trial, and verify pass runs on a shrinking
  (L, K_active) problem. Peeling moves the column's contribution from
  the bits side of the residual to the symbol side — the residual matrix
  itself is untouched, exactly, and stays warm.

The pair scan's cross-term bounds are not kept here: each decode round
derives them from ``cross_mag`` and ``overlap`` in one pass
(:func:`~repro.core.bp_decoder.pair_bounds`).

Active-set arrays are indexed by *position* in the compacted set;
``active_idx`` maps a position back to its original node index. It is
kept ascending, so argmax tie-breaks inside the kernels (first maximum)
resolve in the same node order as the full-width problem.

**Equivalence boundary.** ``weights`` and ``overlap`` are integer-valued
float accumulations — exactly equal to the rebuilt ``d.sum(axis=0)`` /
``DᵀD`` gemms, bit for bit. The residual and correlations are maintained
by the same axpy expressions the packed kernel applies *within* one
decode call, so across calls they match a from-scratch rebuild to float
precision, not bitwise; decisions can differ only on exact float ties
(vanishingly rare with continuous channel draws — the same boundary the
packed kernel shares with the scalar reference decoder,
:class:`~repro.core.reference.BitFlipDecoder`). The discrete session
outputs are pinned by the golden-seed, conformance, and hypothesis suites
against :class:`~repro.core.reference.RebuildRatelessDecoder`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bp_decoder import cross_magnitudes

__all__ = ["DecoderState"]

#: Initial row capacity; buffers double on overflow (amortized O(1) append).
_INITIAL_CAPACITY = 64


class DecoderState:
    """Live decode state shared between the rateless loop and its kernels.

    :meth:`~repro.core.bp_decoder.PackedBitFlipDecoder.decode_best_of_state`
    starts its warm columns from ``bits``, ``residual``, ``corr_re`` and
    ``corr_im``. With restarts on, it stacks them beside the restart
    trials, solves the stack in one round loop, copies the warm columns
    back into these four arrays and splices each restart winner into
    them; with restarts off it solves them in place. Either way the four
    stay consistent.

    Parameters
    ----------
    channels:
        ``(K,)`` complex channel estimates ``ĥ`` — the full population.
    bits_init:
        ``(K, M)`` initial message estimates; copied, then owned by the
        state (kernels flip it in place between calls).

    Attributes
    ----------
    active_idx:
        ``(K_active,)`` original node index per active position, ascending.
    h / hr / hi / abs_h2:
        Active channels and their precomputed parts (contiguous — fed
        straight into the packed kernel's fused gain pass).
    weights:
        ``(K_active,)`` column weights |d_i| as floats (exact integers).
    overlap:
        ``(K_active, K_active)`` DᵀD slot-overlap counts (exact integers).
    cross_mag:
        ``(K_active, K_active)`` exact pair cross-term magnitudes
        ``2|Re(conj(h_i)·h_j)|`` (:func:`~repro.core.bp_decoder.
        cross_magnitudes`) — static per channel vector, recomputed with
        it on :meth:`peel`. A kernel derives its pair-scan bounds from it
        and ``overlap`` at its first stall
        (:func:`~repro.core.bp_decoder.pair_bounds`).
    bits:
        ``(K_active, M)`` uint8 — the canonical estimates for active nodes.
    corr_re / corr_im:
        ``(K_active, M)`` split Dᵀ·conj(residual) correlations — the
        packed kernel's warm-start state.
    n_rows:
        Collected slots L; ``d``/``y``/``residual`` are views of the
        first ``n_rows`` rows of the grown buffers.
    """

    def __init__(self, channels: Sequence[complex], bits_init: np.ndarray):
        h_full = np.asarray(channels, dtype=complex).ravel()
        bits = np.atleast_2d(np.asarray(bits_init, dtype=np.uint8))
        if bits.shape[0] != h_full.size:
            raise ValueError(
                f"bits_init has {bits.shape[0]} rows but {h_full.size} channels given"
            )
        self.k_full = h_full.size
        self.m = bits.shape[1]
        self.active_idx = np.arange(self.k_full, dtype=np.int64)
        self._set_channels(h_full.copy())
        self.weights = np.zeros(self.k_full)
        self.overlap = np.zeros((self.k_full, self.k_full))
        self.bits = np.ascontiguousarray(bits.copy())
        self.corr_re = np.zeros((self.k_full, self.m))
        self.corr_im = np.zeros((self.k_full, self.m))
        self.n_rows = 0
        cap = _INITIAL_CAPACITY
        self._d = np.zeros((cap, self.k_full))
        self._y = np.zeros((cap, self.m), dtype=complex)
        self._residual = np.zeros((cap, self.m), dtype=complex)

    def _set_channels(self, h: np.ndarray) -> None:
        self.h = np.ascontiguousarray(h)
        self.hr = np.ascontiguousarray(self.h.real)
        self.hi = np.ascontiguousarray(self.h.imag)
        self.abs_h = np.abs(self.h)
        self.abs_h2 = self.abs_h**2
        # Static per channel vector: exact pair cross-term magnitudes
        # for the pair scan's bounds (kernels bind it by view).
        self.cross_mag = cross_magnitudes(self.h)

    # ---- views ----------------------------------------------------------------
    @property
    def k_active(self) -> int:
        return self.active_idx.size

    @property
    def d(self) -> np.ndarray:
        """``(L, K_active)`` 0/1 collision matrix (active columns), held
        as float — the kernels' gemm operand."""
        return self._d[: self.n_rows]

    @property
    def y(self) -> np.ndarray:
        """``(L, M)`` peeled symbols: received minus frozen contributions."""
        return self._y[: self.n_rows]

    @property
    def residual(self) -> np.ndarray:
        """``(L, M)`` live residual ``y − D·diag(h)·bits`` (active problem)."""
        return self._residual[: self.n_rows]

    # ---- growth ---------------------------------------------------------------
    def _grow(self, n_needed: int) -> None:
        cap = self._d.shape[0]
        if n_needed <= cap:
            return
        new_cap = max(int(n_needed), 2 * cap)
        for name in ("_d", "_y", "_residual"):
            old = getattr(self, name)
            grown = np.zeros((new_cap,) + old.shape[1:], dtype=old.dtype)
            grown[: self.n_rows] = old[: self.n_rows]
            setattr(self, name, grown)

    # ---- rank-(new rows) extension ----------------------------------------------
    def append_slot(self, row_full: np.ndarray, symbols: np.ndarray) -> None:
        """Fold one collision slot into the state.

        Parameters
        ----------
        row_full:
            ``(K,)`` 0/1 row of D over the *full* population; the active
            slice is taken here (frozen nodes' transmissions must already
            be peeled out of ``symbols`` by the caller).
        symbols:
            ``(M,)`` received symbols with every frozen node's
            ``h_i·row_i·b_i`` contribution subtracted.
        """
        row_full = np.asarray(row_full, dtype=np.uint8).ravel()
        if row_full.size != self.k_full:
            raise ValueError(f"expected a D row of length {self.k_full}, got {row_full.size}")
        symbols = np.asarray(symbols, dtype=complex).ravel()
        if symbols.size != self.m:
            raise ValueError(f"expected {self.m} symbols per slot, got {symbols.size}")
        self._grow(self.n_rows + 1)
        j = self.n_rows
        row = row_full[self.active_idx]
        self._d[j] = row
        self._y[j] = symbols
        nz = np.flatnonzero(row)
        # Rank-1 structure updates: weights, DᵀD outer product.
        self.weights[nz] += 1.0
        self.overlap[np.ix_(nz, nz)] += 1.0
        # New residual row under the current estimates, and its axpy into
        # the correlations (corr_i gains d[j,i]·conj(r_j), i.e. only nz).
        if nz.size:
            r = symbols - (self.h[nz, None] * self.bits[nz].astype(float)).sum(axis=0)
        else:
            r = symbols
        self._residual[j] = r
        if nz.size:
            self.corr_re[nz] += r.real[None, :]
            self.corr_im[nz] -= r.imag[None, :]
        self.n_rows = j + 1

    # ---- frozen-column peeling --------------------------------------------------
    def peel(self, positions: np.ndarray) -> None:
        """Remove verified columns (by active position) from the problem.

        Each column's ``h_i·D[:, i]·b_i`` contribution is subtracted from
        the stored symbols, then the column is compacted out of every
        active-set array. The residual is untouched — the contribution
        moves from the bits side to the symbol side exactly — so the warm
        state (residual, correlations for the surviving columns) stays
        valid with no recomputation.
        """
        positions = np.asarray(positions, dtype=np.int64).ravel()
        if positions.size == 0:
            return
        n = self.n_rows
        for pos in positions:
            rows = np.flatnonzero(self._d[:n, pos])
            if rows.size:
                self._y[rows] -= (self.h[pos] * self.bits[pos].astype(float))[None, :]
        keep = np.ones(self.k_active, dtype=bool)
        keep[positions] = False
        self.active_idx = self.active_idx[keep]
        self._set_channels(self.h[keep])
        self.weights = self.weights[keep]
        self.overlap = np.ascontiguousarray(self.overlap[np.ix_(keep, keep)])
        self.bits = np.ascontiguousarray(self.bits[keep])
        self.corr_re = np.ascontiguousarray(self.corr_re[keep])
        self.corr_im = np.ascontiguousarray(self.corr_im[keep])
        k_new = self.active_idx.size
        compact = np.zeros((self._d.shape[0], k_new))
        compact[:n] = self._d[:n][:, keep]
        self._d = compact
