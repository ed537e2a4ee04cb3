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
    frozen = _frozen(rng, k)
    gains[frozen, :] = -np.inf
    return h, overlap, gains, signs, frozen


def _tied_maximum(gains, delta, overlap, frozen):
    """Whether the full scan's best positive pair gain occurs twice."""
    free = np.flatnonzero(~frozen)
    g, d = gains[free], delta[free]
    cross = 2.0 * np.real(np.conj(d)[:, None] * d[None, :])
    pair_gains = g[:, None] + g[None, :] - cross * overlap[np.ix_(free, free)]
    upper = pair_gains[np.triu_indices(free.size, 1)]
    return upper.size > 1 and np.count_nonzero(upper == upper.max()) > 1


def _resolve_peeled(h, overlap, gains, signs, frozen):
    """``resolve_stalls`` on the free-only problem, in full-problem indices."""
    free = np.flatnonzero(~frozen)
    ovf = overlap[np.ix_(free, free)]
    co, cap = pair_bounds(cross_magnitudes(h[free]), ovf)
    pairs = resolve_stalls(gains[free], h[free], signs[free], ovf, cap, co)
    hit = pairs[:, 0] >= 0
    pairs[hit] = free[pairs[hit]]
    return pairs


def _oracle(gains, h, signs, overlap, frozen):
    delta = h[:, None] * signs
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
        h, overlap, gains, signs, frozen = _round(rng, k, integer)
        got = _resolve_peeled(h, overlap, gains, signs, frozen)
        want = _oracle(gains, h, signs, overlap, frozen)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
        hits = want[:, 0] >= 0
        seen["pair"] += int(hits.sum())
        seen["none"] += int((~hits).sum())
        seen["all_fruitless"] += bool(not hits.any())
        seen["ties"] += sum(
            _tied_maximum(gains[:, s], h * signs[:, s], overlap, frozen)
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
        h, overlap, gains, signs, frozen = _round(rng, k, integer=trial % 2 == 0)
        got = _resolve_peeled(h, overlap, gains, signs, frozen)
        np.testing.assert_array_equal(
            got, _oracle(gains, h, signs, overlap, frozen), err_msg=f"trial {trial}"
        )


def test_resolver_degenerate_inputs():
    rng = np.random.default_rng(3)
    h, overlap = _problem(rng, 6, integer=False)
    signs = np.ones((6, 3))
    gains = np.zeros((6, 3))
    for frozen in (np.ones(6, dtype=bool), np.arange(6) != 2):
        pairs = _resolve_peeled(h, overlap, gains, signs, frozen)
        assert pairs.shape == (3, 2)
        assert (pairs == -1).all()
    co, cap = pair_bounds(cross_magnitudes(h), overlap)
    empty = resolve_stalls(np.zeros((6, 0)), h, np.zeros((6, 0)), overlap, cap, co)
    assert empty.shape == (0, 2)


@pytest.fixture
def block_widths(monkeypatch):
    """Record each stacked exact block as ``(columns, per-column widths)``."""
    blocks = []
    exact_block_pairs = bp_decoder._exact_block_pairs

    def recorded(gains, h, signs, is_cand, n_cand, chunk, overlap, pairs):
        blocks.append((chunk.copy(), n_cand.copy()))
        return exact_block_pairs(gains, h, signs, is_cand, n_cand, chunk, overlap, pairs)

    monkeypatch.setattr(bp_decoder, "_exact_block_pairs", recorded)
    return blocks


def _two_candidate_column(rng, cap):
    """Gains for one column whose candidate set is exactly two bits."""
    a, b = rng.choice(np.flatnonzero(cap > 0.0), 2, replace=False)
    g_ab = rng.uniform(-0.45, 0.2, 2) * min(cap[a], cap[b])
    # Every other bit sits far below any partner's reach.
    gains = np.full(cap.size, -(cap.max() + np.abs(g_ab).max() + 1.0) * 2.0)
    gains[[a, b]] = g_ab
    return gains


def test_resolver_two_candidate_columns(block_widths):
    rng = np.random.default_rng(2202)
    hits = 0
    for trial in range(40):
        k = int(rng.integers(4, 24))
        h, overlap = _problem(rng, k, integer=False)
        _, cap = pair_bounds(cross_magnitudes(h), overlap)
        if np.count_nonzero(cap > 0.0) < 2:
            continue
        s_dim = int(rng.integers(1, 6))
        gains = np.column_stack([_two_candidate_column(rng, cap) for _ in range(s_dim)])
        signs = np.where(rng.random((k, s_dim)) < 0.5, 1.0, -1.0)
        frozen = np.zeros(k, dtype=bool)
        block_widths.clear()
        got = _resolve_peeled(h, overlap, gains, signs, frozen)
        want = _oracle(gains, h, signs, overlap, frozen)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
        # One stacked block of width two: a single pair per column.
        assert [w.tolist() for _, w in block_widths] == [[2] * s_dim]
        hits += int((want[:, 0] >= 0).sum())
    assert hits > 10


def test_resolver_mixed_widths_padding_never_wins(block_widths):
    """A narrow column stacked beside a wide one: its pairs all sit at or
    below zero, and its largest single gain belongs to a bit outside its
    candidates, which fills its padding. Only that padding, were it
    scored with its own gains, could reach the maximum."""
    rng = np.random.default_rng(4404)
    for trial in range(30):
        k = int(rng.integers(6, 16))
        h = 3.0 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        d = (rng.random((3 * k, k)) < 0.4).astype(float)
        d[:, 0] = 0.0  # bit 0 shares no slot: its cap is zero
        overlap = d.T @ d
        co, cap = pair_bounds(cross_magnitudes(h), overlap)
        a, b = 1, 2
        half = co[a, b] / 2.0
        if min(cap[a], cap[b]) <= 1.0:
            continue
        narrow = np.full(k, -(cap.max() + half + 10.0) * 2.0)
        narrow[[a, b]] = -half - 0.5  # the (a, b) pair gains at most -1
        narrow[0] = half  # positive, yet no partner lifts it above zero
        wide = -0.01 * rng.random(k) * np.abs(h) ** 2
        gains = np.column_stack([narrow, wide])
        signs = np.where(rng.random((k, 2)) < 0.5, 1.0, -1.0)
        frozen = np.zeros(k, dtype=bool)
        block_widths.clear()
        got = _resolve_peeled(h, overlap, gains, signs, frozen)
        want = _oracle(gains, h, signs, overlap, frozen)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
        assert want[0].tolist() == [-1, -1]
        (chunk, widths), = block_widths
        assert chunk.tolist() == [0, 1] and widths[0] == 2 and widths[1] > 2


def test_resolver_chunk_boundary_at_cap(monkeypatch, block_widths):
    """Cap the stack so that its first chunk fills the cap to the element."""
    rng = np.random.default_rng(6606)
    default = bp_decoder._EXACT_BLOCK_ELEMS
    at_cap = 0
    for trial in range(60):
        k = int(rng.integers(6, 30))
        integer = trial % 2 == 0
        h, overlap = _problem(rng, k, integer)
        s_dim = int(rng.integers(2, 9))
        regimes = rng.choice(["narrow", "wide"], size=s_dim)
        gains = np.column_stack(
            [_column_gains(rng, h, overlap, r, integer) for r in regimes]
        )
        signs = np.where(rng.random((k, s_dim)) < 0.5, 1.0, -1.0)
        frozen = np.zeros(k, dtype=bool)
        want = _oracle(gains, h, signs, overlap, frozen)
        block_widths.clear()
        _resolve_peeled(h, overlap, gains, signs, frozen)
        if not block_widths or block_widths[0][1].size < 2:
            continue
        widths = np.sort(block_widths[0][1])
        tri = widths * (widths - 1) // 2
        j = int(rng.integers(1, widths.size))  # columns in the first chunk
        cap = j * int(tri[j - 1])
        for elems in (cap, cap - 1):
            monkeypatch.setattr(bp_decoder, "_EXACT_BLOCK_ELEMS", elems)
            block_widths.clear()
            got = _resolve_peeled(h, overlap, gains, signs, frozen)
            np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}, cap {elems}")
            first = block_widths[0][1]
            if elems == cap:
                assert first.size == j
                assert first.size * int(first.max()) * (int(first.max()) - 1) // 2 == cap
                at_cap += 1
        monkeypatch.setattr(bp_decoder, "_EXACT_BLOCK_ELEMS", default)
    assert at_cap > 20


def test_resolver_integer_ties_last_pair():
    """Integer pair gains, with the maximum at the last pair of a
    column's candidate triangle: alone, tied with an earlier pair (the
    earlier one wins), and as the single pair of a narrow column stacked
    beside wider ones."""
    k = 6
    h = np.ones(k, dtype=complex)
    overlap = np.ones((k, k)) + np.eye(k)  # every pair shares one slot
    gains = np.array([
        [0, 0, 0, 0, 2, 2],  # (4, 5) alone at the maximum: the last pair
        [2, 0, 0, 0, 2, 2],  # (0, 4), (0, 5) and (4, 5) tie: (0, 4) wins
        [-10, -10, -10, -10, 2, 2],  # two candidates: its only pair
    ], dtype=float).T
    signs = np.ones((k, 3))
    frozen = np.zeros(k, dtype=bool)
    got = _resolve_peeled(h, overlap, gains, signs, frozen)
    want = _oracle(gains, h, signs, overlap, frozen)
    np.testing.assert_array_equal(got, want)
    assert want.tolist() == [[4, 5], [0, 4], [4, 5]]

    # The same tie pattern under unit channels of every phase, whose
    # cross terms are 0 or ±2 and so keep every pair gain an integer.
    rng = np.random.default_rng(8808)
    last = 0
    for trial in range(200):
        k = int(rng.integers(3, 10))
        h = rng.choice(np.array([1, -1, 1j, -1j]), k).astype(complex)
        overlap = rng.integers(0, 3, (k, k)).astype(float)
        overlap = np.triu(overlap, 1) + np.triu(overlap, 1).T + np.diag(rng.integers(1, 4, k))
        s_dim = int(rng.integers(1, 5))
        gains = rng.integers(-3, 3, (k, s_dim)).astype(float)
        gains[-2:] += 2.0  # lift the last two bits toward the maximum
        signs = np.where(rng.random((k, s_dim)) < 0.5, 1.0, -1.0)
        frozen = np.zeros(k, dtype=bool)
        got = _resolve_peeled(h, overlap, gains, signs, frozen)
        want = _oracle(gains, h, signs, overlap, frozen)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
        last += int(((want[:, 0] == k - 2) & (want[:, 1] == k - 1)).sum())
    assert last > 30
