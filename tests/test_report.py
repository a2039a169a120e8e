import csv
import tracemalloc

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    Criterion,
    EngineConfig,
    ExperimentRow,
    SyntheticSpec,
    TieredCache,
    compare_criteria,
    estimate_kv_bytes,
    generate_synthetic,
    ratio_curve,
    write_rows,
)
from kvtrace.report import CSV_COLUMNS


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

    def test_lossless_and_max_budget_is_exact(self, block):
        err = compare_criteria(
            block, 255, Criterion.SMALLEST_KEY, 2, group_size=64, passthrough=True
        )
        assert err <= 1e-5

    def test_budget_bounds(self, block):
        with pytest.raises(ContractViolation):
            compare_criteria(block, 256, Criterion.RANDOM, 2)

    @pytest.mark.parametrize("passthrough", [False, True])
    @pytest.mark.parametrize("group_size", [0, -5])
    def test_group_size_bounds(self, block, group_size, passthrough):
        with pytest.raises(ContractViolation):
            compare_criteria(block, 3, Criterion.SMALLEST_KEY, 2, group_size=group_size,
                             passthrough=passthrough)

    @pytest.mark.parametrize("passthrough", [False, True])
    @pytest.mark.parametrize("bits", [0, 9])
    def test_bits_bounds(self, block, bits, passthrough):
        with pytest.raises(ContractViolation, match="bits"):
            compare_criteria(block, 3, Criterion.SMALLEST_KEY, bits, passthrough=passthrough)

    @pytest.mark.parametrize("passthrough", [False, True])
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
    def test_block_shape_rejected(self, block, make, passthrough):
        with pytest.raises(ContractViolation, match=r"block must be a \(3, T, d\) array"):
            compare_criteria(make(block), 0, Criterion.SMALLEST_KEY, 2, passthrough=passthrough)

    def test_smallest_key_wins_on_planted_trace(self, block):
        rng = np.random.default_rng(1)
        errs = {
            c: compare_criteria(block, 3, c, 2, group_size=64, rng=rng) for c in Criterion
        }
        assert errs[Criterion.SMALLEST_KEY] < errs[Criterion.RANDOM]
        assert errs[Criterion.SMALLEST_KEY] < errs[Criterion.LARGEST_KEY]

    @pytest.mark.parametrize("passthrough", [False, True])
    def test_unknown_criterion_rejected(self, block, passthrough):
        with pytest.raises(ContractViolation, match="unknown criterion"):
            compare_criteria(block, 3, "random", 2, passthrough=passthrough)

    def test_random_without_rng_uses_seed_zero(self, block):
        want = compare_criteria(block, 5, Criterion.RANDOM, 2, rng=np.random.default_rng(0))
        assert compare_criteria(block, 5, Criterion.RANDOM, 2) == want

    def test_random_is_seed_deterministic(self, block):
        a = compare_criteria(block, 5, Criterion.RANDOM, 2, rng=np.random.default_rng(9))
        b = compare_criteria(block, 5, Criterion.RANDOM, 2, rng=np.random.default_rng(9))
        assert a == b


class TestRatioCurve:
    def test_nothing_quantized_below_group_plus_residual(self):
        cfg = EngineConfig(head_dim=16)
        rows = ratio_curve(cfg, [cfg.group_size + cfg.residual - 1])
        assert rows[0].ratio_vs_fp16 == 1.0
        assert rows[0].l1_output_error is None

    def test_passthrough_accounting_stays_near_one(self):
        cfg = EngineConfig(head_dim=16, outlier_num=0)
        rows = ratio_curve(cfg, [64, 256, 1024], passthrough=True)
        for row in rows:
            assert row.mode == "fp16"
            assert row.ratio_vs_fp16 == 1.0

    def test_passthrough_pools_nothing(self):
        # An ott config still gives the lossless control: no pool rows charged.
        rows = ratio_curve(EngineConfig(head_dim=64), [64, 1024], passthrough=True)
        for row in rows:
            assert row.mode == "fp16"
            assert row.outlier_num == 0
            assert row.ratio_vs_fp16 == 1.0

    def test_passthrough_is_closed_form_and_stores_nothing(self):
        cfg = EngineConfig(head_dim=64)
        ratio_curve(cfg, [128], passthrough=True)  # warms imports
        tracemalloc.start()
        try:
            rows = ratio_curve(cfg, [65536], passthrough=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == [ExperimentRow("fp16", 2, 128, 32, 0, 65536, None, 2 * 65536 * 64 * 16, 1.0)]
        assert peak < 2**20

    def test_monotone_at_power_of_two_lengths(self):
        cfg = EngineConfig(bits=2, group_size=8, residual=2, outlier_num=0, head_dim=4)
        lengths = [16, 32, 64, 128, 256, 512]
        rows = ratio_curve(cfg, lengths)
        ratios = [r.ratio_vs_fp16 for r in rows]
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))

    def test_converges_to_block_rate_without_residual(self):
        g, d, bits = 8, 4, 2
        cfg = EngineConfig(bits=bits, group_size=g, residual=0, outlier_num=0, head_dim=d)
        block_bits = 2 * g * d * bits + (d + g) * 2 * 16
        block_rate = (2 * g * d * 16) / block_bits
        rows = ratio_curve(cfg, [512 * g])
        assert rows[0].ratio_vs_fp16 == pytest.approx(block_rate, rel=0.01)

    def test_unsorted_lengths_rejected(self):
        with pytest.raises(ContractViolation):
            ratio_curve(EngineConfig(), [128, 64])

    @pytest.mark.parametrize("passthrough", [False, True])
    def test_empty_lengths_rejected(self, passthrough):
        with pytest.raises(ContractViolation, match="non-empty"):
            ratio_curve(EngineConfig(), [], passthrough=passthrough)

    @pytest.mark.parametrize("passthrough", [False, True])
    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_rejected(self, seed, passthrough):
        with pytest.raises(ContractViolation, match="seed must be >= 0"):
            ratio_curve(EngineConfig(), [1000], seed=seed, passthrough=passthrough)

    @pytest.mark.parametrize("passthrough", [False, True])
    @pytest.mark.parametrize("lengths", [[0], [-5, 64], [64, 64.5]])
    def test_bad_lengths_rejected_in_every_mode(self, lengths, passthrough):
        with pytest.raises(ContractViolation, match="seq_lens"):
            ratio_curve(EngineConfig(outlier_num=0), lengths, passthrough=passthrough)

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
            assert [row.total_bits for row in ratio_curve(cfg, lengths, seed=seed)] == want
            froze += cache.pool.frozen and cache.pool.aux_positions.size == aux > 0
        assert froze == 7

    @pytest.mark.parametrize("cfg, passthrough", [
        (EngineConfig(outlier_num=0), False),
        (EngineConfig(), True),
        (EngineConfig(aux_capacity=0), False),
    ], ids=["no pool", "fp16", "frozen from the start"])
    def test_unchangeable_pool_draws_nothing(self, cfg, passthrough, monkeypatch):
        def no_rng(seed):
            raise AssertionError("drew rows that no output reads")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        rows = ratio_curve(cfg, [64, 1000, 65536], passthrough=passthrough)
        assert [row.seq_len for row in rows] == [64, 1000, 65536]

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

    def test_ott_layer_includes_pool_overhead(self):
        cfg = EngineConfig(group_size=8, residual=0, outlier_num=2, head_dim=4)
        rows = ratio_curve(cfg, [64])
        assert rows[0].mode == "ott"
        assert rows[0].outlier_num == 2


class TestCsvRoundTrip:
    def test_rows_round_trip(self, tmp_path):
        rows = [
            ExperimentRow("ott", 2, 128, 32, 3, 4096, 1.25, 1_000_000, 6.402317),
            ExperimentRow("baseline", 2, 128, 32, 0, 128, None, 65536, 1.0),
        ]
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == CSV_COLUMNS
            back = list(reader)
        assert len(back) == 2
        assert back[1] == {
            "mode": "baseline", "bits": "2", "group_size": "128", "residual": "32",
            "outlier_num": "0", "seq_len": "128", "l1_output_error": "",
            "total_bits": "65536", "ratio_vs_fp16": "1",
        }
        # floats survive at six significant digits
        assert float(back[0]["ratio_vs_fp16"]) == float(f"{rows[0].ratio_vs_fp16:.6g}")
        assert float(back[0]["l1_output_error"]) == 1.25

    def test_exact_bytes(self, tmp_path):
        rows = [ExperimentRow("ott", 2, 128, 32, 3, 4096, None, 1_000_000, 6.402317891)]
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        assert path.read_bytes() == (
            b"mode,bits,group_size,residual,outlier_num,seq_len,l1_output_error,total_bits,ratio_vs_fp16\r\n"
            b"ott,2,128,32,3,4096,,1000000,6.40232\r\n"
        )
