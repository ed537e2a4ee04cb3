"""Benchmark gates for the packed BP decode kernel.

The rateless reader solves one collision system per message-bit position,
all sharing the same D and ĥ. :class:`PackedBitFlipDecoder` replaces the
M independent Python-level decodes of the scalar :class:`BitFlipDecoder`
with one array-native kernel (all positions advancing together, gains
updated incrementally). These benches pin, against the scalar decoder run
position by position with the same generator:

* identical decoded bits at K = 50 (with restarts) and at K = 500 (bits
  and flip counts exact, residual norms to float precision);
* a ≥ 5× speedup at K = 50 — the per-position loop pays Python and
  small-matvec overhead per flip per position per restart;
* a K = 1000 decode completing at all.
"""

import time

import numpy as np

from repro.coding.prng import slot_decision_matrix
from repro.core.reference import BitFlipDecoder, decode_full_width
from repro.core.config import BuzzConfig
from repro.network.scenarios import default_uplink_scenario
from repro.nodes.tag import SALT_DATA
from repro.utils.rng import SeedSequenceFactory

_K = 50
_SLOTS = 70
_RESTARTS = 4


def _median_time(fn, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _instance():
    """One 50-tag location draw with a realistic sparse-D collision stack."""
    seeds = SeedSequenceFactory(77)
    population = default_uplink_scenario(_K).draw_population(seeds.stream("location", 0))
    id_rng = seeds.stream("ids")
    tag_seeds = [t.draw_temp_id(10 * _K * _K, id_rng) for t in population.tags]
    config = BuzzConfig()
    density = config.data_density(_K)
    d = slot_decision_matrix(tag_seeds, range(_SLOTS), density, salt=SALT_DATA)
    h = population.channels
    messages = population.messages  # (K, P)
    noise_rng = seeds.stream("noise")
    y = (d.astype(float) * h) @ messages.astype(float) + 0.1 * (
        noise_rng.standard_normal((_SLOTS, messages.shape[1]))
        + 1j * noise_rng.standard_normal((_SLOTS, messages.shape[1]))
    )
    init = (seeds.stream("init").random(messages.shape) < 0.5).astype(np.uint8)
    return d, h, y, init


def test_bench_batched_decode_kernel(benchmark):
    """Packed kernel ≡ per-position decoder, and ≥ 5× faster at K = 50."""
    d, h, y, init = _instance()
    k, p = init.shape
    frozen = np.zeros(k, dtype=bool)

    def per_position():
        rng = np.random.default_rng(5)
        decoder = BitFlipDecoder(d, h)
        bits = np.empty_like(init)
        for pos in range(p):
            bits[:, pos] = decoder.decode_best_of(
                y[:, pos], restarts=_RESTARTS, rng=rng, init=init[:, pos], frozen=frozen
            ).bits
        return bits

    def packed():
        rng = np.random.default_rng(5)
        return decode_full_width(d, h, y, init, frozen, restarts=_RESTARTS, rng=rng).bits

    reference = per_position()
    result = benchmark.pedantic(packed, rounds=1, iterations=1, warmup_rounds=0)
    assert np.array_equal(result, reference), "packed kernel diverged from per-position decoder"

    scalar_s = _median_time(per_position, rounds=1)
    packed_s = _median_time(packed, rounds=3)
    speedup = scalar_s / packed_s
    print(f"\nBP decode, K={k}, P={p}, L={_SLOTS}: per-position {scalar_s * 1e3:.0f} ms, "
          f"packed {packed_s * 1e3:.0f} ms, speedup {speedup:.0f}x")
    assert speedup >= 5.0


def synthetic_instance(k, m, seed, noise=0.05, corrupt=0.08):
    """A K-tag collision system too large for the scenario generator.

    D is drawn at the config's clamped data density for ``k`` tags, the
    received block is the true superposition plus complex noise, and the
    warm-start init is the truth with a fraction of bits corrupted — the
    same shape of work `try_decode` hands the kernel mid-session.
    """
    rng = np.random.default_rng(seed)
    slots = int(1.2 * k)
    density = BuzzConfig().data_density(k)
    d = (rng.random((slots, k)) < density).astype(np.uint8)
    h = rng.normal(size=k) + 1j * rng.normal(size=k)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    y = (d.astype(float) * h) @ (1.0 - 2.0 * bits.astype(float))
    y = y + noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    init = bits ^ (rng.random((k, m)) < corrupt).astype(np.uint8)
    return d, h, y, init


def test_bench_packed_decode_kernel(benchmark):
    """Packed kernel ≡ per-position decoder at K = 500.

    The packed kernel keeps the correlation matrix incrementally updated
    per flip (an axpy against the cached DᵀD overlap) and holds the
    estimate matrix as a float sign matrix; the scalar decoder re-derives each
    affected gain from the residual. Bits and flip counts must match
    exactly, residual norms to float precision.
    """
    d, h, y, init = synthetic_instance(k=500, m=40, seed=101)
    frozen = np.zeros(init.shape[0], dtype=bool)

    def per_position():
        decoder = BitFlipDecoder(d, h, max_flips=60)
        return [
            decoder.decode(y[:, pos], init=init[:, pos], frozen=frozen)
            for pos in range(init.shape[1])
        ]

    def packed():
        return decode_full_width(d, h, y, init, frozen, max_flips=60)

    start = time.perf_counter()
    reference = per_position()
    scalar_s = time.perf_counter() - start
    result = benchmark.pedantic(packed, rounds=1, iterations=1, warmup_rounds=1)
    assert np.array_equal(result.bits, np.column_stack([o.bits for o in reference]))
    assert result.flips.tolist() == [o.flips for o in reference]
    np.testing.assert_allclose(
        result.residual_norms, [o.residual_norm for o in reference], rtol=1e-12, atol=0
    )

    packed_s = _median_time(packed, rounds=3)
    print(f"\nBP decode, K=500, M=40: per-position {scalar_s * 1e3:.0f} ms, "
          f"packed {packed_s * 1e3:.0f} ms")


def test_bench_packed_k1000_smoke(benchmark):
    """A K = 1000 decode completes under the packed kernel (smoke gate)."""
    d, h, y, init = synthetic_instance(k=1000, m=16, seed=202)

    def packed():
        return decode_full_width(d, h, y, init, max_flips=60)

    outcome = benchmark.pedantic(packed, rounds=1, iterations=1, warmup_rounds=0)
    assert outcome.bits.shape == init.shape
    assert np.all(np.isfinite(outcome.residual_norms))
    assert int(outcome.flips.sum()) > 0


def test_bench_crc_check_matrix(benchmark):
    """Batched CRC ≡ per-node scalar loop, and ≥ 5× faster at K = 50.

    This is the verify pass's former per-node CRC loop: every unfrozen
    candidate row CRC-checked once per decode round.
    """
    from repro.coding.crc import CRC5_GEN2, crc_check, crc_check_matrix
    from repro.utils.bits import random_bits

    rng = np.random.default_rng(9)
    estimates = random_bits(_K * 37, rng).reshape(_K, 37)

    def scalar():
        return np.array([crc_check(row, CRC5_GEN2) for row in estimates])

    def batched():
        return crc_check_matrix(estimates, CRC5_GEN2)

    reference = scalar()
    batched()  # prime the cached remainder table outside the timed region
    result = benchmark.pedantic(batched, rounds=3, iterations=5, warmup_rounds=1)
    assert np.array_equal(result, reference), "batched CRC diverged from scalar loop"

    scalar_s = _median_time(scalar, rounds=3)
    batched_s = _median_time(batched, rounds=9)
    speedup = scalar_s / batched_s
    print(f"\nCRC check, K={_K}, P=37: scalar {scalar_s * 1e3:.2f} ms, "
          f"batched {batched_s * 1e3:.3f} ms, speedup {speedup:.0f}x")
    assert speedup >= 5.0
