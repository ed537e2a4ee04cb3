"""Rebuild-per-call reference for the rateless reader — a test oracle.

:class:`RebuildRatelessDecoder` is :class:`~repro.core.rateless.
RatelessDecoder` with its persistent :class:`~repro.core.decoder_state.
DecoderState` taken out: every :meth:`try_decode` call re-stacks the
full-width ``(L, K)`` problem from the stored rows, runs the kernel's
full-width restart protocol with a ``frozen`` mask, and re-derives the
verification residual, weights and slot overlaps with fresh gemms. It
builds no state at all, so its timings are an honest rebuild baseline.

The equivalence suites and the session benchmark select it by patching
the class name where the one data-phase stepper looks it up, in
``repro.core.rateless`` — the static, silencing and mobile entry points
and the multi-reader actors all step it::

    monkeypatch.setattr("repro.core.rateless.RatelessDecoder",
                        RebuildRatelessDecoder)

No production module imports this one.
"""

from __future__ import annotations

import numpy as np

from repro.coding.crc import crc_check_matrix
from repro.core.bp_decoder import PackedBitFlipDecoder
from repro.core.rateless import RatelessDecoder

__all__ = ["RebuildRatelessDecoder"]


class RebuildRatelessDecoder(RatelessDecoder):
    """:class:`~repro.core.rateless.RatelessDecoder` that rebuilds the
    full-width problem on every decode call (module docstring)."""

    def _new_state(self):
        return None

    def _append_to_state(self, row: np.ndarray, symbols: np.ndarray) -> None:
        pass

    def _decode_fixpoint(self) -> None:
        d = self._row_buf[: self._n_rows]
        y = self._sym_buf[: self._n_rows]  # (L, P)
        kernel = PackedBitFlipDecoder(d, self.h, max_flips=self.config.bp_max_flips)
        for _ in range(self.config.bp_verify_rounds):
            outcome = kernel.decode_best_of(
                y,
                restarts=self.config.bp_restarts,
                rng=self.rng,
                init=self._estimates,
                frozen=self._decoded,
            )
            self._estimates = outcome.bits
            if self.crc is None:
                break
            frozen_before_pass = int(self._decoded.sum())
            self._verify_and_freeze(d, y)
            if int(self._decoded.sum()) == frozen_before_pass or self.all_decoded:
                break

    def _verify_and_freeze(self, d: np.ndarray, y: np.ndarray) -> None:
        """The corroborated-CRC rule over the full-width problem."""
        weights = d.sum(axis=0)
        # Residual with the current estimates (frozen rows included).
        residual = y - (d.astype(float) * self.h[None, :]) @ self._estimates.astype(float)
        row_power = np.mean(np.abs(residual) ** 2, axis=1)
        row_ok = row_power <= max(4.0 * self.noise_std**2, 1e-12)

        passes = np.zeros(self.k, dtype=bool)
        candidates = ~self._decoded & (weights > 0)
        if candidates.any():
            passes[candidates] = crc_check_matrix(self._estimates[candidates], self.crc)

        entangled = self._entangled_mask(d)

        for node in range(self.k):
            if self._decoded[node] or not passes[node] or entangled[node]:
                continue
            rows = np.flatnonzero(d[:, node])
            required = 2 if abs(self.h[node]) >= 5.0 * self.noise_std else 3
            if weights[node] >= required:
                self._decoded[node] = True
                continue
            if not bool(np.all(row_ok[rows])):
                continue
            row = rows[0]
            participants = np.flatnonzero(d[row])
            others = participants[participants != node]
            if bool(
                np.all(self._decoded[others] | passes[others])
            ) and self._node_margin_ok(node, row, participants):
                self._decoded[node] = True

    def _entangled_mask(self, d: np.ndarray) -> np.ndarray:
        """The entanglement veto over all unfrozen nodes with nonzero weight,
        lone-slot counts from a fresh ``(n, n)`` slot-overlap matmul."""
        mask = np.zeros(self.k, dtype=bool)
        weights = d.sum(axis=0)
        idx = np.flatnonzero(~self._decoded & (weights > 0))
        if idx.size < 2:
            return mask
        h = self.h[idx]
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
        d_sub = d[:, idx].astype(float)
        shared = d_sub.T @ d_sub  # |d_i ∩ d_j| per pair
        w = weights[idx].astype(float)
        only_i = w[:, None] - shared
        only_j = w[None, :] - shared
        power = absh**2
        evidence = (only_i * power[:, None] + only_j * power[None, :]) / noise_power
        flagged = (candidate & (evidence < 16.0)).any(axis=1)
        mask[idx[flagged]] = True
        return mask
