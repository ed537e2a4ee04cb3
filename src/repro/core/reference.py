"""Test oracles for the decode path: the scalar decoder and the rebuild
reader.

* :class:`BitFlipDecoder` is the per-position reference decoder (paper
  Alg. 1, one bit position at a time). The packed production kernel,
  :class:`~repro.core.bp_decoder.PackedBitFlipDecoder`, must take its
  flip decisions and its restart RNG draws.
* :func:`full_pair_scan` is its pair-flip escape: the plain (free × free)
  scan under a ``frozen`` mask, with no candidate caps or bounds. The
  kernel's batched resolver (:func:`~repro.core.bp_decoder.
  resolve_stalls`) must pick its pairs; the two share no scan code.
* :func:`full_width_problem` peels the frozen columns of a full-width
  ``(L, K)`` problem from scratch into a snapshot the kernel binds to, and
  :func:`decode_full_width` runs the kernel on it, as the packed ≡ scalar
  suites and the decoder benches call it.
* :class:`RebuildRatelessDecoder` is :class:`~repro.core.rateless.
  RatelessDecoder` without its persistent :class:`~repro.core.
  decoder_state.DecoderState`. It shares the production decode round,
  freeze rule and entanglement veto, and supplies only the round's
  problem: :func:`full_width_problem` over the stored rows, rebuilt every
  round and never peeled. What it checks is that the state's appends and
  peels equal that rebuild. It keeps no decoder state, so its timings are
  an honest rebuild baseline.

The equivalence suites and the session benchmark select the rebuild
reader by patching the class name where every data-phase loop looks it
up at call time, in ``repro.core.rateless`` — the static, silencing and
mobile entry points and the multi-reader actors all build it there::

    monkeypatch.setattr("repro.core.rateless.RatelessDecoder",
                        RebuildRatelessDecoder)

No production module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bp_decoder import (
    _GAIN_TOL,
    _NEG_INF,
    BatchedDecodeOutcome,
    PackedBitFlipDecoder,
    cross_magnitudes,
)
from repro.core.rateless import RatelessDecoder
from repro.utils.validation import ensure_positive_int

__all__ = [
    "BitFlipDecoder",
    "DecodeOutcome",
    "RebuildRatelessDecoder",
    "decode_full_width",
    "full_pair_scan",
    "full_width_problem",
]


def full_pair_scan(
    gains: np.ndarray,
    delta: np.ndarray,
    overlap: np.ndarray,
    frozen: np.ndarray,
) -> Optional[tuple]:
    """Best positive-gain joint two-bit flip over the unfrozen bits, or
    ``None``.

    Flipping *i* and *j* together changes the error by
    ``G_i + G_j − 2·Re(conj(δ_i)·δ_j)·|d_i ∩ d_j|`` — the cross term lives
    only on shared slots — so the whole pair matrix comes from the
    single-flip gains plus the slot-overlap counts. Every pair ``i < j``
    of unfrozen bits is evaluated; the first strict maximum in row-major
    order wins if it clears the gain tolerance.
    """
    free = np.flatnonzero(~frozen)
    if free.size < 2:
        return None
    g = gains[free]
    dlt = delta[free]
    cross = 2.0 * np.real(np.conj(dlt)[:, None] * dlt[None, :])
    pair_gains = g[:, None] + g[None, :] - cross * overlap[np.ix_(free, free)]
    pair_gains[np.tril_indices(free.size)] = _NEG_INF
    i, j = divmod(int(np.argmax(pair_gains)), free.size)
    if not pair_gains[i, j] > _GAIN_TOL:
        return None
    return int(free[i]), int(free[j])


@dataclass
class DecodeOutcome:
    """Result of one bit-position decode.

    Attributes
    ----------
    bits:
        The decoded ``(K,)`` binary vector.
    flips:
        Number of flips performed.
    converged:
        False only if the flip-budget safety valve tripped.
    residual_norm:
        ``‖D(h∘b̂) − y‖₂`` at termination.
    """

    bits: np.ndarray
    flips: int
    converged: bool
    residual_norm: float


class BitFlipDecoder:
    """Joint decoder for one bit position of all K nodes.

    Parameters
    ----------
    d_matrix:
        ``(L, K)`` binary collision matrix (reader-regenerated D).
    channels:
        ``(K,)`` complex channel estimates ``ĥ``.
    max_flips:
        Safety bound on flips per decode call.
    """

    def __init__(self, d_matrix: np.ndarray, channels: Sequence[complex], max_flips: int = 10_000):
        self.d = np.atleast_2d(np.asarray(d_matrix, dtype=np.uint8))
        self.h = np.asarray(channels, dtype=complex).ravel()
        if self.d.shape[1] != self.h.size:
            raise ValueError(
                f"D has {self.d.shape[1]} columns but {self.h.size} channels given"
            )
        ensure_positive_int(max_flips, "max_flips")
        self.max_flips = max_flips
        self.n_slots, self.k = self.d.shape
        # Signal matrix: S[j, i] = h_i if tag i transmitted in slot j.
        self._signal = self.d.astype(float) * self.h[None, :]
        self._weights = self.d.sum(axis=0).astype(float)
        # Bipartite-graph adjacency: rows (slots) per tag, and
        # neighbours-of-neighbours per tag (tags sharing at least one slot).
        self._rows_of: List[np.ndarray] = [np.flatnonzero(self.d[:, i]) for i in range(self.k)]
        # Pairwise slot-overlap counts |d_i ∩ d_j| — adjacency for the
        # incremental gain updates and the closed-form pair-flip escape.
        self._overlap = self.d.T.astype(int) @ self.d.astype(int)
        shared = self._overlap > 0
        self._nofn: List[np.ndarray] = [np.flatnonzero(shared[i]) for i in range(self.k)]

    # ---- gain machinery -------------------------------------------------------
    def _all_gains(
        self, residual: np.ndarray, bits: np.ndarray, frozen: np.ndarray
    ) -> np.ndarray:
        # Frozen columns can never be flipped, so their correlations are
        # skipped outright rather than computed and overwritten with -inf.
        gains = np.full(self.k, _NEG_INF)
        free = np.flatnonzero(~frozen)
        if free.size == 0:
            return gains
        delta = self.h[free] * (1.0 - 2.0 * bits[free].astype(float))
        corr = self.d[:, free].T.astype(float) @ np.conj(residual)
        gains[free] = 2.0 * np.real(delta * corr) - self._weights[free] * np.abs(delta) ** 2
        return gains

    def _update_gains(
        self,
        gains: np.ndarray,
        affected: np.ndarray,
        residual: np.ndarray,
        bits: np.ndarray,
        frozen: np.ndarray,
    ) -> None:
        """Recompute gains only for the affected, unfrozen tags (locality)."""
        affected = affected[~frozen[affected]]
        if affected.size == 0:
            return
        delta = self.h[affected] * (1.0 - 2.0 * bits[affected].astype(float))
        corr = self.d[:, affected].T.astype(float) @ np.conj(residual)
        gains[affected] = (
            2.0 * np.real(delta * corr) - self._weights[affected] * np.abs(delta) ** 2
        )

    # ---- decoding -------------------------------------------------------------
    def decode(
        self,
        y: np.ndarray,
        init: Optional[np.ndarray] = None,
        frozen: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> DecodeOutcome:
        """Decode one bit position.

        Parameters
        ----------
        y:
            ``(L,)`` received symbols for this position.
        init:
            Starting estimate; random bits when omitted (the paper's
            initialisation — pass the previous estimate to warm-start).
        frozen:
            Boolean mask of bits that must not be flipped (CRC-passed
            messages). Their *values* are taken from ``init``.
        rng:
            Required when ``init`` is omitted.
        """
        y = np.asarray(y, dtype=complex).ravel()
        if y.size != self.n_slots:
            raise ValueError(f"y has length {y.size}, expected {self.n_slots}")
        if init is None:
            if rng is None:
                raise ValueError("rng is required for random initialisation")
            if frozen is not None and np.any(frozen):
                raise ValueError(
                    "frozen bits need their values: pass init when frozen is set"
                )
            bits = (rng.random(self.k) < 0.5).astype(np.uint8)
        else:
            bits = np.asarray(init, dtype=np.uint8).copy().ravel()
            if bits.size != self.k:
                raise ValueError(f"init has length {bits.size}, expected {self.k}")
        frozen_mask = (
            np.zeros(self.k, dtype=bool)
            if frozen is None
            else np.asarray(frozen, dtype=bool).copy()
        )
        if frozen_mask.size != self.k:
            raise ValueError("frozen mask length mismatch")

        residual = y - self._signal @ bits.astype(float)
        gains = self._all_gains(residual, bits, frozen_mask)

        flips = 0
        while flips < self.max_flips:
            best = int(np.argmax(gains))
            if not np.isfinite(gains[best]) or gains[best] <= _GAIN_TOL:
                # Single flips exhausted. Near-degenerate channel pairs
                # (h_i ≈ ±h_j) create two-bit local minima a single flip
                # cannot leave — scan joint pair flips before giving up.
                signed_h = self.h * (1.0 - 2.0 * bits.astype(float))
                pair = full_pair_scan(gains, signed_h, self._overlap, frozen_mask)
                if pair is None:
                    break
                i, j = pair
                for idx in (i, j):
                    delta = self.h[idx] * (1.0 - 2.0 * float(bits[idx]))
                    residual[self._rows_of[idx]] -= delta
                    bits[idx] ^= 1
                flips += 1
                affected = np.union1d(self._nofn[i], self._nofn[j])
                affected = np.union1d(affected, np.array([i, j]))
                self._update_gains(gains, affected, residual, bits, frozen_mask)
                continue
            # Flip `best`: residual changes only on its slots.
            delta = self.h[best] * (1.0 - 2.0 * float(bits[best]))
            rows = self._rows_of[best]
            residual[rows] -= delta
            bits[best] ^= 1
            flips += 1
            self._update_gains(gains, self._nofn[best], residual, bits, frozen_mask)
            # A tag with no slots yet has an empty neighbourhood including
            # itself — keep its own gain fresh regardless.
            if best not in self._nofn[best]:
                self._update_gains(
                    gains, np.array([best]), residual, bits, frozen_mask
                )

        return DecodeOutcome(
            bits=bits,
            flips=flips,
            converged=flips < self.max_flips,
            residual_norm=float(np.linalg.norm(residual)),
        )

    def decode_best_of(
        self,
        y: np.ndarray,
        restarts: int,
        rng: np.random.Generator,
        init: Optional[np.ndarray] = None,
        frozen: Optional[np.ndarray] = None,
    ) -> DecodeOutcome:
        """Decode with ``restarts`` extra random initialisations, keep the best.

        Bit flipping is a local search; a handful of restarts markedly
        reduces the local-minimum rate when collisions are dense (good
        channels, high transmit probability). Every call draws exactly
        ``restarts`` inits, even once a residual is exact, so the packed
        kernel can draw them all up front. A trial replaces the best so
        far only with a strictly smaller residual norm.
        """
        best = self.decode(y, init=init, frozen=frozen, rng=rng)
        for _ in range(max(0, restarts)):
            trial_init = (rng.random(self.k) < 0.5).astype(np.uint8)
            if init is not None:
                # Random restart must not disturb CRC-frozen values, nor
                # zero-weight nodes: a node with no slots yet has zero gain
                # everywhere, so a restart would hand it unconstrained
                # random bits whose only observable effect is to make an
                # equal-norm trial adoption (a float-rounding tie) visible.
                pinned = self._weights == 0
                if frozen is not None:
                    pinned = pinned | np.asarray(frozen, dtype=bool)
                trial_init[pinned] = np.asarray(init, dtype=np.uint8)[pinned]
            trial = self.decode(y, init=trial_init, frozen=frozen, rng=rng)
            if trial.residual_norm < best.residual_norm:
                best = trial
        return best


def full_width_problem(
    d: np.ndarray,
    h: Sequence[complex],
    ys: np.ndarray,
    init: np.ndarray,
    frozen: Optional[np.ndarray] = None,
) -> SimpleNamespace:
    """A full-width problem with its ``frozen`` columns peeled from scratch.

    ``d`` is ``(L, K)``, ``h`` ``(K,)``, ``ys`` ``(L, M)`` and ``init``
    ``(K, M)``; ``frozen`` is a ``(K,)`` mask of bits that must not flip,
    their values taken from ``init``. The frozen contributions are
    subtracted from ``ys`` and every operand of the free columns is derived
    with fresh gemms into a snapshot carrying the attribute names of a
    :class:`~repro.core.decoder_state.DecoderState`:
    :meth:`~repro.core.bp_decoder.PackedBitFlipDecoder.from_state` binds
    to it, and the rateless freeze rule reads it. No decoder state is
    built, so the oracles stay independent of the incremental code they
    check. ``active_idx`` lists the free columns, ascending.
    """
    d = np.atleast_2d(np.asarray(d, dtype=np.uint8))
    h = np.asarray(h, dtype=complex).ravel()
    if d.shape[1] != h.size:
        raise ValueError(f"D has {d.shape[1]} columns but {h.size} channels given")
    ys = np.asarray(ys, dtype=complex)
    if ys.ndim != 2 or ys.shape[0] != d.shape[0]:
        raise ValueError(f"ys must be (L={d.shape[0]}, M), got {ys.shape}")
    init = np.asarray(init, dtype=np.uint8)
    if init.shape != (h.size, ys.shape[1]):
        raise ValueError(f"init must be (K={h.size}, {ys.shape[1]}), got {init.shape}")
    frozen = np.zeros(h.size, dtype=bool) if frozen is None else np.asarray(frozen, dtype=bool)
    if frozen.size != h.size:
        raise ValueError("frozen mask length mismatch")

    free = np.flatnonzero(~frozen)
    d_f = d.astype(float)
    y = ys - (d_f[:, frozen] * h[frozen]) @ init[frozen].astype(float)
    hf = np.ascontiguousarray(h[free])
    df = d_f[:, free]
    bits = init[free]
    residual = y - (df * hf) @ bits.astype(float)
    corr = df.T @ np.conj(residual)
    return SimpleNamespace(
        d=df, h=hf, weights=df.sum(axis=0),
        hr=np.ascontiguousarray(hf.real), hi=np.ascontiguousarray(hf.imag),
        abs_h2=np.abs(hf) ** 2, overlap=df.T @ df, cross_mag=cross_magnitudes(hf),
        bits=bits, residual=residual,
        corr_re=np.ascontiguousarray(corr.real), corr_im=np.ascontiguousarray(corr.imag),
        y=y, k_full=h.size, active_idx=free,
    )


def decode_full_width(
    d: np.ndarray,
    h: Sequence[complex],
    ys: np.ndarray,
    init: np.ndarray,
    frozen: Optional[np.ndarray] = None,
    restarts: int = 0,
    rng: Optional[np.random.Generator] = None,
    max_flips: int = 10_000,
) -> BatchedDecodeOutcome:
    """The packed kernel on :func:`full_width_problem`'s snapshot (same
    arguments), with ``restarts`` random retries per position following
    the scalar :meth:`BitFlipDecoder.decode_best_of` draw order (``rng``
    is needed only when ``restarts > 0``).

    The outcome's ``bits`` are full-width, frozen rows holding their
    ``init`` values; ``residual`` is the full-width residual (peeling
    only moves the frozen contributions to the symbol side) and the
    correlations cover the free rows.
    """
    problem = full_width_problem(d, h, ys, init, frozen)
    kernel = PackedBitFlipDecoder.from_state(problem, max_flips=max_flips)
    out = kernel.decode_best_of_state(restarts, rng)
    full = np.asarray(init, dtype=np.uint8).copy()
    full[problem.active_idx] = out.bits
    out.bits = full
    return out


class RebuildRatelessDecoder(RatelessDecoder):
    """:class:`~repro.core.rateless.RatelessDecoder` that rebuilds the
    full-width problem on every decode round (module docstring)."""

    def _new_state(self):
        return None

    def _append_to_state(self, row: np.ndarray, symbols: np.ndarray) -> None:
        pass

    def _peel_state(self, positions: np.ndarray) -> None:
        pass

    def _problem(self) -> SimpleNamespace:
        n = self._n_rows
        return full_width_problem(
            self._row_buf[:n], self.h, self._sym_buf[:n], self._estimates, self._decoded
        )
