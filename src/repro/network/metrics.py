"""Aggregate metrics over campaign runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["UplinkMetrics", "uplink_metrics_from_runs"]


@dataclass(frozen=True)
class UplinkMetrics:
    """Summary of one scheme over a set of runs.

    Attributes
    ----------
    mean_duration_ms:
        Mean total data-transfer time — Fig. 10's y-axis.
    mean_undecoded:
        Mean number of undelivered messages per run — Fig. 11's y-axis.
    mean_rate_bits_per_symbol:
        Mean aggregate rate — Fig. 12's right axis.
    loss_fraction:
        Total lost messages over total sent.
    """

    scheme: str
    n_runs: int
    mean_duration_ms: float
    mean_undecoded: float
    mean_rate_bits_per_symbol: float
    loss_fraction: float

    def __str__(self) -> str:
        return (
            f"{self.scheme:>5}: time={self.mean_duration_ms:7.3f} ms  "
            f"undecoded={self.mean_undecoded:5.2f}  "
            f"rate={self.mean_rate_bits_per_symbol:5.2f} b/sym  "
            f"loss={100 * self.loss_fraction:5.1f} %"
        )


def uplink_metrics_from_runs(scheme: str, runs: Sequence) -> UplinkMetrics:
    """Build an :class:`UplinkMetrics` from a list of ``SchemeRun`` records."""
    if not runs:
        raise ValueError("no runs to aggregate")
    durations = np.array([r.duration_s for r in runs])
    losses = np.array([r.message_loss for r in runs])
    rates = np.array([r.bits_per_symbol for r in runs])
    total_tags = sum(r.n_tags for r in runs)
    return UplinkMetrics(
        scheme=scheme,
        n_runs=len(runs),
        mean_duration_ms=float(durations.mean() * 1e3),
        mean_undecoded=float(losses.mean()),
        mean_rate_bits_per_symbol=float(rates.mean()),
        loss_fraction=float(losses.sum()) / total_tags,
    )
