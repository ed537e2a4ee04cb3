"""The batched stall resolver must pick the full pair scan's pair.

:func:`repro.core.bp_decoder.resolve_stalls` decides every stalled
column of a decode round at once. Its oracle is the scalar decoder's
:func:`~repro.core.reference.full_pair_scan`: the plain per-column
(free × free) scan with row-major first-maximum tie-breaking, which shares
no code with the resolver. Frozen bits reach the resolver as production
hands them over: peeled out of the problem. The oracle scans the full
problem under the frozen mask, and the resolver's pairs are mapped back
through the free set.
"""

import numpy as np
import pytest

from repro.core import bp_decoder
from repro.core.bp_decoder import cross_magnitudes, pair_bounds, resolve_stalls
from repro.core.reference import full_pair_scan


def _problem(rng, k, integer):
    """Channels and slot overlaps shared by every column of one round."""
    if integer:
        # Small integer channels and overlaps make pair gains exact
        # integers, so equal maxima (ties) are common.
        h = rng.choice(np.array([1, -1, 1j, 1 + 1j, 2 - 1j]), k)
    else:
        h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    d = (rng.random((int(rng.integers(k, 3 * k + 1)), k)) < 0.3).astype(float)
    return h.astype(complex), d.T @ d


def _frozen(rng, k):
    mode = rng.integers(5)
    if mode == 0:
        return np.zeros(k, dtype=bool)
    if mode == 1:
        # At most one free bit: nothing can pair.
        frozen = np.ones(k, dtype=bool)
        frozen[rng.integers(k)] = bool(rng.integers(2))
        return frozen
    return rng.random(k) < rng.choice([0.1, 0.3, 0.6])


def _column_gains(rng, h, overlap, regime, integer):
    k = h.size
    scale = np.abs(h) ** 2
    if integer:
        low = {"fruitless": -40, "narrow": -5, "wide": -1}[regime]
        return rng.integers(low, low + 3, k).astype(float)
    if regime == "fruitless":
        return -(10.0 + overlap.max()) * 4.0 * scale - 1.0
    if regime == "narrow":
        return (rng.standard_normal(k) - 1.5) * scale * overlap.diagonal().clip(1)
    return (0.3 * rng.standard_normal(k) - 0.1) * scale


def _round(rng, k, integer):
    h, overlap = _problem(rng, k, integer)
    s_dim = int(rng.integers(1, 9))
    regimes = rng.choice(["fruitless", "narrow", "wide"], size=s_dim)
    gains = np.column_stack(
        [_column_gains(rng, h, overlap, r, integer) for r in regimes]
    )
    signs = np.where(rng.random((k, s_dim)) < 0.5, 1.0, -1.0)
    delta = h[:, None] * signs
    frozen = _frozen(rng, k)
    gains[frozen, :] = -np.inf
    return h, overlap, gains, delta, frozen


def _tied_maximum(gains, delta, overlap, frozen):
    """Whether the full scan's best positive pair gain occurs twice."""
    free = np.flatnonzero(~frozen)
    g, d = gains[free], delta[free]
    cross = 2.0 * np.real(np.conj(d)[:, None] * d[None, :])
    pair_gains = g[:, None] + g[None, :] - cross * overlap[np.ix_(free, free)]
    upper = pair_gains[np.triu_indices(free.size, 1)]
    return upper.size > 1 and np.count_nonzero(upper == upper.max()) > 1


def _resolve_peeled(h, overlap, gains, delta, frozen):
    """``resolve_stalls`` on the free-only problem, in full-problem indices."""
    free = np.flatnonzero(~frozen)
    ovf = overlap[np.ix_(free, free)]
    co, cap = pair_bounds(cross_magnitudes(h[free]), ovf)
    pairs = resolve_stalls(gains[free], delta[free], ovf, cap, co)
    hit = pairs[:, 0] >= 0
    pairs[hit] = free[pairs[hit]]
    return pairs


def _oracle(gains, delta, overlap, frozen):
    pairs = np.full((gains.shape[1], 2), -1, dtype=np.int64)
    for s in range(gains.shape[1]):
        pair = full_pair_scan(gains[:, s], delta[:, s], overlap, frozen)
        if pair is not None:
            pairs[s] = pair
    return pairs


@pytest.fixture
def bound_route_calls(monkeypatch):
    """Count the columns the resolver hands to the per-column bound route."""
    calls = []
    best_pair_flip = bp_decoder.best_pair_flip

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return best_pair_flip(*args, **kwargs)

    monkeypatch.setattr(bp_decoder, "best_pair_flip", counted)
    return calls


def test_resolver_matches_uncapped_scan_fuzz(bound_route_calls):
    rng = np.random.default_rng(20121012)
    seen = {"pair": 0, "none": 0, "all_fruitless": 0, "ties": 0}
    for trial in range(360):
        integer = trial % 2 == 0
        k = int(rng.choice([2, 3, 5, 12, 32, 64, 120, 200], p=[
            0.08, 0.08, 0.14, 0.2, 0.2, 0.1, 0.1, 0.1,
        ]))
        h, overlap, gains, delta, frozen = _round(rng, k, integer)
        got = _resolve_peeled(h, overlap, gains, delta, frozen)
        want = _oracle(gains, delta, overlap, frozen)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
        hits = want[:, 0] >= 0
        seen["pair"] += int(hits.sum())
        seen["none"] += int((~hits).sum())
        seen["all_fruitless"] += bool(not hits.any())
        seen["ties"] += sum(
            _tied_maximum(gains[:, s], delta[:, s], overlap, frozen)
            for s in np.flatnonzero(hits)
        )
    assert seen["pair"] > 100
    assert seen["none"] > 100
    assert seen["all_fruitless"] > 30
    assert seen["ties"] > 20
    # Wide, many-candidate columns took the per-column bound route.
    assert len(bound_route_calls) > 20


def test_resolver_chunks_stacked_blocks(monkeypatch):
    # A tiny element cap splits the exact route into many stacked chunks.
    monkeypatch.setattr(bp_decoder, "_EXACT_BLOCK_ELEMS", 64)
    rng = np.random.default_rng(7)
    for trial in range(60):
        k = int(rng.integers(4, 40))
        h, overlap, gains, delta, frozen = _round(rng, k, integer=trial % 2 == 0)
        got = _resolve_peeled(h, overlap, gains, delta, frozen)
        np.testing.assert_array_equal(
            got, _oracle(gains, delta, overlap, frozen), err_msg=f"trial {trial}"
        )


def test_resolver_degenerate_inputs():
    rng = np.random.default_rng(3)
    h, overlap = _problem(rng, 6, integer=False)
    delta = h[:, None] * np.ones((6, 3))
    gains = np.zeros((6, 3))
    for frozen in (np.ones(6, dtype=bool), np.arange(6) != 2):
        pairs = _resolve_peeled(h, overlap, gains, delta, frozen)
        assert pairs.shape == (3, 2)
        assert (pairs == -1).all()
    co, cap = pair_bounds(cross_magnitudes(h), overlap)
    empty = resolve_stalls(
        np.zeros((6, 0)), np.zeros((6, 0), dtype=complex), overlap, cap, co
    )
    assert empty.shape == (0, 2)
