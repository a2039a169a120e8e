"""The memory model in closed form, checked independently of ``memory_usage``'s arithmetic.

After T tokens a cache has quantized Q = G·max(0, ⌊(T − R)/G⌋) of them, so

    total_bits = 2·Q·d·b + (Q/G)·(d + G)·32 + (T − Q)·d·32 + P·d·32

where P counts the pool's members plus its aux rows, 0 ≤ P ≤ outlier_num +
aux_capacity.
"""

import pytest

from kvtrace import EngineConfig, SyntheticSpec, SyntheticTrace, TieredCache, TraceHeader, ratio_curve


def closed_form_bits(config: EngineConfig, tokens: int, pool_rows: int) -> int:
    g, r, d, b = config.group_size, config.residual, config.head_dim, config.bits
    quantized = g * max(0, (tokens - r) // g)
    return (2 * quantized * d * b + quantized // g * (d + g) * 32
            + (tokens - quantized) * d * 32 + pool_rows * d * 32)


@pytest.mark.parametrize(
    "config, header, spec, frozen",
    [
        # The reference engine on a pooled layer's block with planted tokens.
        (EngineConfig(head_dim=16), TraceHeader(3, 1, 16, 1024), SyntheticSpec(), False),
        # The evicting config: the aux list fills and the pool freezes.
        (EngineConfig(group_size=16, residual=3, aux_capacity=2, head_dim=8),
         TraceHeader(3, 2, 8, 512), SyntheticSpec(seed=2), True),
        # No residual window: every full group is quantized at once.
        (EngineConfig(residual=0, head_dim=16), TraceHeader(3, 1, 16, 1024), SyntheticSpec(), False),
    ],
    ids=["reference", "evicting", "no-residual"],
)
def test_total_bits_match_the_closed_form_after_every_append(config, header, spec, frozen):
    layer = header.n_layers - 1
    block = SyntheticTrace(header, spec).block(layer, 0)
    cache = TieredCache(config, layer=layer)
    most_pool_rows = 0
    for t in range(header.seq_len):
        cache.append(block[1, t], block[2, t])
        pool_rows = cache.pool.positions.size + cache.pool.aux_positions.size
        assert 0 <= pool_rows <= config.outlier_num + config.aux_capacity
        assert cache.memory_usage().total_bits == closed_form_bits(config, t + 1, pool_rows)
        most_pool_rows = max(most_pool_rows, pool_rows)
    assert most_pool_rows > 0  # the P term was exercised
    assert cache.pool.frozen is frozen


def test_reference_ratio_lies_in_the_closed_form_band():
    # The abstract's 6.4x: the reference setting at d=128 and T=8192.
    config = EngineConfig(head_dim=128)
    [row] = ratio_curve(config, [8192])
    assert row.total_bits == 5_222_400 == closed_form_bits(config, 8192, 13)
    assert f"{row.ratio_vs_fp16:.5g}" == "6.4251"
    fp16_bits = 2 * 8192 * 128 * 16
    most = config.outlier_num + config.aux_capacity
    low, high = (fp16_bits / closed_form_bits(config, 8192, p) for p in (most, 0))
    assert (round(low, 3), round(high, 3)) == (6.316, 6.491)
    assert low <= row.ratio_vs_fp16 <= high
