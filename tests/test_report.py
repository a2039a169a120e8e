import csv
import signal

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    Criterion,
    EngineConfig,
    SyntheticSpec,
    TieredCache,
    attend_full_precision,
    compare_criteria,
    estimate_kv_bytes,
    generate_synthetic,
    l1_error,
    ratio_curve,
)
from kvtrace.report import write_csv

from spec import USAGE_KEYS, closed_form_bits, group_rows


class TestEstimateKvBytes:
    def test_reference_model_footprint(self):
        total = estimate_kv_bytes(
            n_layers=32, n_heads=8, head_dim=512, seq_len=8192, batch=64, bytes_per_value=2
        )
        assert total == 274_877_906_944  # 256 GiB
        assert total == 256 * 2**30

    def test_unit_case(self):
        assert estimate_kv_bytes(1, 1, 1, 1, 1, 2) == 4

    def test_zero_batch_rejected(self):
        with pytest.raises(ContractViolation):
            estimate_kv_bytes(1, 1, 1, 1, 0, 2)

    def test_numpy_integers_accepted(self):
        total = estimate_kv_bytes(*(np.int64(v) for v in (32, 8, 512, 8192, 64, 2)))
        assert type(total) is int and total == 256 * 2**30

    def test_linear_in_each_argument(self):
        base = dict(n_layers=2, n_heads=3, head_dim=4, seq_len=5, batch=6, bytes_per_value=2)
        ref = estimate_kv_bytes(**base)
        for name in base:
            doubled = dict(base)
            doubled[name] *= 2
            assert estimate_kv_bytes(**doubled) == 2 * ref


@pytest.fixture(scope="module")
def block():
    # The (3, T, d) Q/K/V block of a one-(layer, head) synthetic trace. Every
    # test shares it, and the CLI reuses one block for every criterion, so
    # compare_criteria must not write to it.
    block = generate_synthetic(SyntheticSpec(seed=61), 1, 1, 16, 256).block(0, 0)
    block.flags.writeable = False
    return block


class TestCompareCriteria:

    def test_zero_budget_identical_across_criteria(self, block):
        errs = [
            compare_criteria(block, 0, c, 2, group_size=64, rng=np.random.default_rng(0))
            for c in Criterion
        ]
        assert errs[0] == errs[1] == errs[2]

    def test_budget_bounds(self, block):
        with pytest.raises(ContractViolation):
            compare_criteria(block, 256, Criterion.RANDOM, 2)

    @pytest.mark.parametrize("group_size", [0, -5])
    def test_group_size_bounds(self, block, group_size):
        with pytest.raises(ContractViolation):
            compare_criteria(block, 3, Criterion.SMALLEST_KEY, 2, group_size=group_size)

    @pytest.mark.parametrize("bits", [0, 9])
    def test_bits_bounds(self, block, bits):
        with pytest.raises(ContractViolation, match="bits"):
            compare_criteria(block, 3, Criterion.SMALLEST_KEY, bits)

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: b[1],  # 2-D: one matrix, not a block
            lambda b: b[:2],  # Q and K only
            lambda b: np.concatenate([b, b[:1]]),  # four matrices
            lambda b: b[:, :0],  # T = 0
            lambda b: b[None],  # 4-D
            lambda b: b.tolist(),  # not an array
        ],
        ids=["2d", "two-rows", "four-rows", "no-tokens", "4d", "list"],
    )
    def test_block_shape_rejected(self, block, make):
        with pytest.raises(ContractViolation, match=r"block must be a \(3, T, d\) array"):
            compare_criteria(make(block), 0, Criterion.SMALLEST_KEY, 2)

    def test_smallest_key_wins_on_planted_trace(self, block):
        rng = np.random.default_rng(1)
        errs = {
            c: compare_criteria(block, 3, c, 2, group_size=64, rng=rng) for c in Criterion
        }
        assert errs[Criterion.SMALLEST_KEY] < errs[Criterion.RANDOM]
        assert errs[Criterion.SMALLEST_KEY] < errs[Criterion.LARGEST_KEY]

    def test_unknown_criterion_rejected(self, block):
        with pytest.raises(ContractViolation, match="unknown criterion"):
            compare_criteria(block, 3, "random", 2)

    def test_random_without_rng_uses_seed_zero(self, block):
        want = compare_criteria(block, 5, Criterion.RANDOM, 2, rng=np.random.default_rng(0))
        assert compare_criteria(block, 5, Criterion.RANDOM, 2) == want

    def test_random_is_seed_deterministic(self, block):
        a = compare_criteria(block, 5, Criterion.RANDOM, 2, rng=np.random.default_rng(9))
        b = compare_criteria(block, 5, Criterion.RANDOM, 2, rng=np.random.default_rng(9))
        assert a == b


def cache_rule_error(block, retained, bits, group_size):
    """The retention study's error with the spec's exclusion rule (``spec.group_rows``).

    Each fixed block of ``group_size`` positions is written as the spec
    writes a cache group, with its retained rows excluded, and the retained
    tokens' exact rows are laid over the dequantized ones before the last
    query attends.
    """
    queries, keys, values = block
    k_hat, v_hat = keys.copy(), values.copy()
    for start in range(0, len(keys), group_size):
        rows = np.arange(start, min(start + group_size, len(keys)))
        held = np.flatnonzero(np.isin(rows, retained))
        k_hat[rows], v_hat[rows] = group_rows(keys[rows], values[rows], held, bits)
    k_hat[retained], v_hat[retained] = keys[retained], values[retained]
    mixed = attend_full_precision(queries[-1], k_hat, v_hat)
    return l1_error(mixed.output, attend_full_precision(queries[-1], keys, values).output)


# Budgets 60 and 150 of 256 tokens fill much of each 8-token block, where
# mean substitution and dropping the retained rows give different errors;
# at the default budget of 3 the two rules agree on this block.
@pytest.mark.parametrize("budget", [3, 60, 150])
@pytest.mark.parametrize("criterion", list(Criterion), ids=lambda c: c.value)
def test_compare_criteria_follows_cache_rule(criterion, budget):
    block = generate_synthetic(SyntheticSpec(seed=0), 1, 1, 16, 256).block(0, 0)
    if criterion is Criterion.RANDOM:
        retained = np.random.default_rng(4).choice(256, size=budget, replace=False)
    else:
        scores = np.abs(block[1]).sum(axis=1, dtype=np.float64)
        sign = 1 if criterion is Criterion.SMALLEST_KEY else -1
        retained = np.argsort(sign * scores, kind="stable")[:budget]
    got = compare_criteria(block, budget, criterion, 2, group_size=8, rng=np.random.default_rng(4))
    assert got == cache_rule_error(block, retained, 2, 8)


def fp16_ratio(seq_len, head_dim, usage):
    """fp16 bits of ``seq_len`` K and V rows over the bits ``usage`` stores."""
    return 2 * seq_len * head_dim * 16 / usage.total_bits


class TestRatioCurve:
    def test_nothing_quantized_below_group_plus_residual(self):
        cfg = EngineConfig(head_dim=16)
        t = cfg.group_size + cfg.residual - 1
        [usage] = ratio_curve(cfg, [t])
        assert fp16_ratio(t, cfg.head_dim, usage) == 1.0

    def test_monotone_at_power_of_two_lengths(self):
        cfg = EngineConfig(bits=2, group_size=8, residual=2, outlier_num=0, head_dim=4)
        lengths = [16, 32, 64, 128, 256, 512]
        ratios = [fp16_ratio(t, 4, usage) for t, usage in zip(lengths, ratio_curve(cfg, lengths))]
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))

    def test_converges_to_block_rate_without_residual(self):
        g, d, bits = 8, 4, 2
        cfg = EngineConfig(bits=bits, group_size=g, residual=0, outlier_num=0, head_dim=d)
        block_bits = 2 * g * d * bits + (d + g) * 2 * 16
        block_rate = (2 * g * d * 16) / block_bits
        [usage] = ratio_curve(cfg, [512 * g])
        assert fp16_ratio(512 * g, d, usage) == pytest.approx(block_rate, rel=0.01)

    def test_unsorted_lengths_rejected(self):
        with pytest.raises(ContractViolation):
            ratio_curve(EngineConfig(), [128, 64])

    def test_empty_lengths_rejected(self):
        with pytest.raises(ContractViolation, match="non-empty"):
            ratio_curve(EngineConfig(), [])

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ContractViolation, match="seed must be >= 0"):
            ratio_curve(EngineConfig(), [1000], seed=seed)

    @pytest.mark.parametrize("lengths", [[0], [-5, 64], [64, 64.5]])
    def test_bad_lengths_rejected_in_every_mode(self, lengths):
        with pytest.raises(ContractViolation, match="seq_lens"):
            ratio_curve(EngineConfig(outlier_num=0), lengths)

    def test_numpy_integers_accepted(self):
        cfg = EngineConfig(head_dim=8)
        assert ratio_curve(cfg, [np.int64(200)], seed=np.int64(3)) == ratio_curve(cfg, [200], seed=3)

    def test_total_bits_equal_a_cache_fed_row_by_row(self):
        d, seed = 5, 7
        froze = 0
        # (group_size, residual, outlier_num, aux_capacity): G=1, R=0, pools
        # that evict until an aux list of 2 (or 1) freezes them, G=48 and no
        # pool. Lengths end below, at and past G + R, and mid-group.
        for g, r, outlier_num, aux in [(1, 0, 2, 2), (1, 3, 1, 2), (8, 0, 3, 2), (8, 2, 2, 2),
                                       (48, 5, 2, 2), (8, 2, 0, 0), (8, 3, 1, 1), (48, 0, 3, 1)]:
            cfg = EngineConfig(group_size=g, residual=r, outlier_num=outlier_num,
                               skip_layers=(), aux_capacity=aux, head_dim=d)
            lengths = sorted({1, max(1, g + r - 1), g + r}) + [g + r, 3 * g + r - 1, 700, 1301, 1303]
            rng = np.random.default_rng(seed)
            cache = TieredCache(cfg)
            want = []
            for target in lengths:
                while cache.total_tokens < target:
                    k = rng.standard_normal(d).astype(np.float32)
                    cache.append(k, rng.standard_normal(d).astype(np.float32))
                want.append(cache.memory_usage().total_bits)
            assert [usage.total_bits for usage in ratio_curve(cfg, lengths, seed=seed)] == want
            froze += cache.pool.frozen and cache.pool.aux_positions.size == aux > 0
        assert froze == 7

    @pytest.mark.parametrize("cfg", [EngineConfig(outlier_num=0), EngineConfig(aux_capacity=0)],
                             ids=["no pool", "frozen from the start"])
    def test_unchangeable_pool_draws_nothing(self, cfg, monkeypatch):
        def no_rng(seed):
            raise AssertionError("drew rows that no output reads")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        lengths = [64, 1000, 65536]
        # Nothing pooled: each length's bits are the closed form with no pool rows.
        assert ([usage.total_bits for usage in ratio_curve(cfg, lengths)]
                == [closed_form_bits(cfg, t, 0)["total_bits"] for t in lengths])

    def test_frozen_pool_draws_no_later_group(self, monkeypatch):
        g, d, seed = 8, 4, 0
        cfg = EngineConfig(group_size=g, residual=0, outlier_num=1, aux_capacity=1,
                           skip_layers=(), head_dim=d)
        # The group whose update freezes a cache fed the same stream.
        rng = np.random.default_rng(seed)
        cache = TieredCache(cfg)
        while not cache.pool.frozen:
            cache.append(rng.standard_normal(d).astype(np.float32), rng.standard_normal(d).astype(np.float32))
        groups = cache.quantized_tokens // g
        assert 1 < groups < 100

        draws = []
        real_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                draws.append(shape)
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        ratio_curve(cfg, [g * groups - 1, 100 * g, 1000 * g], seed=seed)
        assert draws == [(g, 2, d)] * groups

    @pytest.mark.parametrize("cfg, pooled", [(EngineConfig(outlier_num=0), 0), (EngineConfig(), 3 + 32)],
                             ids=["no pool", "pool freezes"])
    def test_longest_length_returns_at_once(self, cfg, pooled):
        # Once the pool is frozen every due group is counted at once; group by
        # group, 2**63 - 1 tokens would take centuries.
        def too_slow(signum, frame):
            raise AssertionError("ratio_curve did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        try:
            [usage] = ratio_curve(cfg, [2**63 - 1])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # The closed form, with a frozen pool holding its members and a full
        # aux list. The CLI's row at this length is checked in
        # test_cli.TestRatioCurveCommand.
        assert {key: getattr(usage, key) for key in USAGE_KEYS} == closed_form_bits(cfg, 2**63 - 1, pooled)

    def test_ott_layer_includes_pool_overhead(self):
        cfg = EngineConfig(group_size=8, residual=0, outlier_num=2, head_dim=4)
        [usage] = ratio_curve(cfg, [64])
        # Both members are charged, one K and one V row each, plus any aux rows.
        assert usage.pool_bits >= cfg.outlier_num * cfg.head_dim * 16 * 2
        # The CLI labels this row: test_cli.TestRatioCurveCommand.test_ott_row_labels.


class TestCsvRoundTrip:
    HEADER = ["mode", "bits", "group_size", "residual", "outlier_num", "seq_len", "total_bits", "ratio_vs_fp16"]

    def test_rows_round_trip(self, tmp_path):
        rows = [
            ["ott", 2, 128, 32, 3, 4096, 1_000_000, 6.402317],
            ["baseline", 2, 128, 32, 0, 128, 65536, 1.0],
        ]
        path = tmp_path / "rows.csv"
        write_csv(path, self.HEADER, rows)
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == self.HEADER
            back = list(reader)
        assert len(back) == 2
        assert back[1] == {
            "mode": "baseline", "bits": "2", "group_size": "128", "residual": "32",
            "outlier_num": "0", "seq_len": "128", "total_bits": "65536", "ratio_vs_fp16": "1",
        }
        # floats survive at six significant digits
        assert float(back[0]["ratio_vs_fp16"]) == float(f"{rows[0][7]:.6g}")

    def test_exact_bytes(self, tmp_path):
        rows = [["ott", 2, 128, 32, 3, 4096, 1_000_000, 6.402317891]]
        path = tmp_path / "rows.csv"
        write_csv(path, self.HEADER, rows)
        assert path.read_bytes() == (
            b"mode,bits,group_size,residual,outlier_num,seq_len,total_bits,ratio_vs_fp16\r\n"
            b"ott,2,128,32,3,4096,1000000,6.40232\r\n"
        )
