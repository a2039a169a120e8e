"""``memory_usage`` and ``ratio_curve`` against the memory model's closed form, ``spec.closed_form_bits``.

The closed form shares none of ``MemoryBreakdown.of``'s arithmetic. Its
P term counts the pool's members plus its aux rows, 0 ≤ P ≤ outlier_num +
aux_capacity. The quantized term is the deployed layout's: a group's
codes as ``pack_codes`` writes them.
"""

import numpy as np
import pytest

from kvtrace import (
    EngineConfig,
    MemoryBreakdown,
    OutlierPool,
    SyntheticSpec,
    SyntheticTrace,
    TieredCache,
    TraceHeader,
    pack_codes,
    quantize_keys_channelwise,
    quantize_values_tokenwise,
    ratio_curve,
)

from spec import USAGE_KEYS, closed_form_bits


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
        usage = cache.memory_usage()
        assert {key: getattr(usage, key) for key in USAGE_KEYS} == closed_form_bits(config, t + 1, pool_rows)
        most_pool_rows = max(most_pool_rows, pool_rows)
    assert most_pool_rows > 0  # the P term was exercised
    assert cache.pool.frozen is frozen


def test_reference_ratio_lies_in_the_closed_form_band():
    # The abstract's 6.4x: the reference setting at d=128 and T=8192.
    config = EngineConfig(head_dim=128)
    [usage] = ratio_curve(config, [8192])
    assert usage.total_bits == 5_222_400 == closed_form_bits(config, 8192, 13)["total_bits"]
    fp16_bits = 2 * 8192 * 128 * 16
    ratio = fp16_bits / usage.total_bits
    assert f"{ratio:.5g}" == "6.4251"
    most = config.outlier_num + config.aux_capacity
    low, high = (fp16_bits / closed_form_bits(config, 8192, p)["total_bits"] for p in (most, 0))
    assert (round(low, 3), round(high, 3)) == (6.316, 6.491)
    assert low <= ratio <= high


@pytest.mark.parametrize("bits", range(1, 9))
@pytest.mark.parametrize("group_size, head_dim", [(128, 16), (16, 8), (3, 5), (1, 1)])
def test_quantized_bits_are_the_packed_codes(bits, group_size, head_dim):
    config = EngineConfig(bits=bits, group_size=group_size, head_dim=head_dim)
    rng = np.random.default_rng(bits)
    keys, values = rng.standard_normal((2, group_size, head_dim))
    blocks = quantize_keys_channelwise(keys, bits), quantize_values_tokenwise(values, bits)
    usage = MemoryBreakdown.of(config, group_size, 0, OutlierPool(0, 0))
    assert usage.quantized_bits == 2 * group_size * head_dim * bits
    for block in blocks:
        # Each side's bits fill its packed bytes but for the last byte's padding.
        packed = pack_codes(np.frombuffer(block.codes, np.uint8), bits)
        assert 0 <= 8 * len(packed) - usage.quantized_bits // 2 < 8
