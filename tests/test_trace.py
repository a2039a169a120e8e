import hashlib
import io
import os
import struct
import tracemalloc
from dataclasses import astuple, dataclass

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    SyntheticSpec,
    SyntheticTrace,
    TraceFormatError,
    TraceHeader,
    decile_stats,
    generate_synthetic,
    read_trace,
    write_trace,
)
from kvtrace import trace as trace_module


@dataclass(frozen=True)
class ArrayTrace:
    """A trace held in one (3, layers, heads, seq, dim) array, read through ``header`` and ``block``."""

    header: TraceHeader
    qkv: np.ndarray

    def block(self, layer, head):
        trace_module._check_block(self.header, layer, head)
        return self.qkv[:, layer, head].copy()


def tiny_trace(rng, layers=1, heads=1, seq=1, dim=1):
    qkv = rng.standard_normal((3, layers, heads, seq, dim)).astype(np.float32)
    return ArrayTrace(TraceHeader(layers, heads, dim, seq), qkv)


def blocks(trace):
    """Every (layer, head) block of ``trace``, layer-major, as a list."""
    h = trace.header
    return [trace.block(layer, head) for layer in range(h.n_layers) for head in range(h.n_heads)]


class TestFileRoundTrip:
    def test_minimal_trace_bit_exact(self, tmp_path):
        trace = tiny_trace(np.random.default_rng(51))
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.header == trace.header
        np.testing.assert_array_equal(back.block(0, 0), trace.qkv[:, 0, 0])

    def test_round_trip_hash_identical(self, tmp_path):
        trace = tiny_trace(np.random.default_rng(52), layers=2, heads=2, seq=128, dim=8)
        p1, p2 = tmp_path / "a.kvt", tmp_path / "b.kvt"
        write_trace(p1, trace)
        write_trace(p2, read_trace(p1))
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_layout_matches_nested_loop_reference(self, tmp_path):
        # Non-square on purpose, so a swapped axis changes the bytes.
        trace = tiny_trace(np.random.default_rng(56), layers=2, heads=3, seq=5, dim=4)
        path = tmp_path / "layout.kvt"
        write_trace(path, trace)
        want = b"KVTRACE1" + struct.pack("<4I", 2, 3, 4, 5)
        for layer in range(2):
            for head in range(3):
                for arr in trace.qkv:
                    want += arr[layer, head].astype("<f4").tobytes()
        assert path.read_bytes() == want

    @pytest.mark.parametrize("layers, heads", [(2, 3), (1, 1)])
    def test_read_returns_owned_writable_arrays(self, tmp_path, layers, heads):
        trace = tiny_trace(np.random.default_rng(57), layers=layers, heads=heads, seq=5, dim=4)
        path = tmp_path / "owned.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        for layer in range(layers):
            for head in range(heads):
                got = back.block(layer, head)
                assert got.dtype == np.float32
                assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata
                np.testing.assert_array_equal(got, trace.qkv[:, layer, head])
        assert not np.shares_memory(back.block(0, 0), back.block(0, 0))

    def test_header_read_matches_full_read(self, tmp_path):
        path = tmp_path / "t.kvt"
        trace = tiny_trace(np.random.default_rng(60), layers=2, heads=3, seq=5, dim=4)
        write_trace(path, trace)
        assert read_trace(path).header == trace.header == TraceHeader(2, 3, 4, 5)

    def test_read_trace_holds_no_payload(self, tmp_path):
        # The header and size are checked; no block is read until asked for.
        trace = generate_synthetic(SyntheticSpec(seed=5), 4, 2, 32, 512)
        path = tmp_path / "lazy.kvt"
        write_trace(path, trace)
        tracemalloc.start()
        try:
            back = read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.header == trace.header
        assert peak < 64 * 1024

    def test_read_peak_is_the_payload(self, tmp_path):
        # A block is read into its own array: no whole-file bytes object
        # and no converted copy lives beside it, and the blocks already
        # read are dropped, so reading them all peaks at about one block.
        trace = generate_synthetic(SyntheticSpec(seed=5), 4, 2, 32, 512)
        path = tmp_path / "peak.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        want = {(layer, head): trace.block(layer, head)[2] for layer in range(4) for head in range(2)}
        block_bytes = 3 * 512 * 32 * 4
        tracemalloc.start()
        try:
            for layer in range(4):
                for head in range(2):
                    v = back.block(layer, head)[2]
                    assert np.array_equal(v, want[layer, head])
                    del v  # a view keeps its block alive
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes + 64 * 1024

    @pytest.mark.parametrize("short_block", [0, 5])
    def test_short_read_rejected(self, tmp_path, monkeypatch, short_block):
        # The file shrinks after its size was taken: one block read comes
        # back short, and the reader must notice rather than keep garbage.
        trace = tiny_trace(np.random.default_rng(58), layers=2, heads=3, seq=4, dim=3)
        path = tmp_path / "shrunk.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        calls = []

        class ShortReader(io.BufferedReader):
            def readinto(self, buffer):
                calls.append(1)
                view = memoryview(buffer).cast("B")
                if len(calls) == short_block + 1:
                    view = view[:-4]
                return super().readinto(view)

        monkeypatch.setattr(trace_module, "open", lambda p, mode: ShortReader(io.FileIO(p, mode)),
                            raising=False)
        block = 3 * 4 * 3 * 4
        with pytest.raises(TraceFormatError, match="payload incomplete") as exc:
            blocks(back)
        assert exc.value.offset == 8 + 16 + short_block * block + block - 4
        assert len(calls) == short_block + 1

    def test_vanished_file_rejected(self, tmp_path):
        # The file is gone by the time a block is read: a format error at
        # that block's offset, not an OSError.
        path = tmp_path / "gone.kvt"
        write_trace(path, tiny_trace(np.random.default_rng(61), layers=2, heads=3, seq=4, dim=3))
        back = read_trace(path)
        path.unlink()
        with pytest.raises(TraceFormatError, match=r"block \(1, 2\) unreadable") as exc:
            back.block(1, 2)
        assert exc.value.offset == 8 + 16 + 5 * 3 * 4 * 3 * 4

    @pytest.mark.parametrize("make", ["synthetic", "file", "drawn"])
    @pytest.mark.parametrize("layer, head", [(-1, 0), (2, 0), (0, -1), (0, 3)])
    def test_block_out_of_range_rejected(self, tmp_path, make, layer, head):
        # A negative index must not wrap around to the last layer or head.
        trace = tiny_trace(np.random.default_rng(62), layers=2, heads=3, seq=4, dim=3)
        if make == "file":
            write_trace(tmp_path / "t.kvt", trace)
            trace = read_trace(tmp_path / "t.kvt")
        if make == "drawn":
            trace = SyntheticTrace(TraceHeader(2, 3, 3, 40), SyntheticSpec())
        with pytest.raises(ContractViolation, match="out of range"):
            trace.block(layer, head)

    @pytest.mark.parametrize("damage", ["none", "truncated", "trailing", "magic"])
    def test_pipe_reads_like_a_file(self, tmp_path, damage):
        # A pipe has no size to check up front; it must still parse, and
        # fail, exactly as the same bytes in a regular file do.
        path = tmp_path / "t.kvt"
        write_trace(path, tiny_trace(np.random.default_rng(59), layers=2, heads=2, seq=5, dim=4))
        data = path.read_bytes()
        data = {"none": data, "truncated": data[:-7], "trailing": data + b"xx",
                "magic": b"X" + data[1:]}[damage]
        path.write_bytes(data)

        def parse(source):
            try:
                trace = read_trace(source)
            except TraceFormatError as exc:
                return str(exc), exc.offset
            return [b.tobytes() for b in blocks(trace)]

        r, w = os.pipe()
        os.write(w, data)  # well under a pipe's buffer
        os.close(w)
        try:
            from_pipe = parse(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert from_pipe == parse(path)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.kvt"
        trace = tiny_trace(np.random.default_rng(53))
        write_trace(path, trace)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.kvt"
        write_trace(path, tiny_trace(np.random.default_rng(54), seq=16, dim=4))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.offset == len(data) - 7

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.kvt"
        write_trace(path, tiny_trace(np.random.default_rng(55)))
        expected = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.offset == expected

    @pytest.mark.parametrize("name", ["missing.kvt", "."], ids=["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, name):
        # One error type for every trace that cannot be used, at offset 0
        # when the file cannot even be opened or read.
        with pytest.raises(TraceFormatError, match="unreadable") as exc:
            read_trace(tmp_path / name)
        assert exc.value.offset == 0

    def test_zero_dim_header_rejected(self, tmp_path):
        path = tmp_path / "zero.kvt"
        path.write_bytes(b"KVTRACE1" + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_header_validation(self):
        with pytest.raises(ContractViolation):
            TraceHeader(0, 1, 1, 1)

    def test_header_holds_python_ints(self):
        header = TraceHeader(np.int64(2), np.uint32(3), 4, np.int32(5))
        assert header == TraceHeader(2, 3, 4, 5)
        assert all(type(v) is int for v in astuple(header))
        # In uint32 arithmetic the block's byte size would wrap below the limit.
        with pytest.raises(ContractViolation, match="too large to address"):
            TraceHeader(1, 1, np.uint32(2**31), np.uint32(2**31))


class TestSyntheticGenerator:
    def test_no_planted_tokens_keeps_band(self):
        spec = SyntheticSpec(mu=5.0, sigma=0.5, eps=0.01, delta=0.01, m=0, seed=1)
        trace = generate_synthetic(spec, 1, 1, 4, 64)
        channel = trace.block(0, 0)[1][:, 0]
        assert channel.max() - channel.min() <= 2 * spec.sigma

    def test_planted_count_and_band(self):
        spec = SyntheticSpec(mu=5.0, sigma=0.5, eps=0.01, delta=0.01, m=3, seed=2)
        trace = generate_synthetic(spec, 1, 1, 4, 64)
        channel = trace.block(0, 0)[1][:, 0]
        low = np.flatnonzero(np.abs(channel - 0.01) < 1e-6)
        assert low.size == 3
        rest = np.delete(channel, low)
        assert rest.min() >= 4.5 - 1e-6 and rest.max() <= 5.5 + 1e-6

    def test_determinism(self):
        spec = SyntheticSpec(seed=3)
        a = generate_synthetic(spec, 2, 2, 8, 64)
        b = generate_synthetic(spec, 2, 2, 8, 64)
        assert [x.tobytes() for x in blocks(a)] == [x.tobytes() for x in blocks(b)]

    def test_streams_differ_across_heads(self):
        spec = SyntheticSpec(seed=3)
        t = generate_synthetic(spec, 1, 2, 8, 64)
        assert t.block(0, 0)[1].tobytes() != t.block(0, 1)[1].tobytes()

    def test_query_magnitude_in_outlier_channels(self):
        spec = SyntheticSpec(seed=4)
        t = generate_synthetic(spec, 1, 1, 8, 64)
        np.testing.assert_array_equal(t.block(0, 0)[0][:, 0], np.full(64, -spec.q_scale, np.float32))

    def test_planted_positions_helper_matches(self):
        spec = SyntheticSpec(seed=5)
        t = generate_synthetic(spec, 1, 1, 16, 256)
        planted = t.planted(0, 0)
        channel = t.block(0, 0)[1][:, 0]
        assert sorted(np.flatnonzero(channel < spec.mu - spec.sigma - 1e-6).tolist()) == planted.tolist()

    def test_planted_positions_match_every_block(self):
        # Every (layer, head) has its own stream, so its own planted rows.
        spec = SyntheticSpec(outlier_channels=2, seed=8)
        t = generate_synthetic(spec, 3, 2, 8, 64)
        seen = set()
        for layer in range(3):
            for head in range(2):
                planted = t.planted(layer, head).tolist()
                keys = t.block(layer, head)[1]
                for c in range(2):
                    below = np.flatnonzero(keys[:, c] < spec.mu - spec.sigma - 1e-6)
                    assert below.tolist() == planted
                seen.add(tuple(planted))
        assert len(seen) > 1

    def test_planted_rows_have_smallest_l1_at_defaults(self):
        # the m planted rows are exactly the m lowest-magnitude tokens
        for seed in range(10):
            spec = SyntheticSpec(seed=seed)
            t = generate_synthetic(spec, 1, 1, 16, 1024)
            l1 = np.abs(t.block(0, 0)[1]).sum(axis=1)
            planted = set(t.planted(0, 0).tolist())
            smallest = set(np.argsort(l1)[: spec.m].tolist())
            assert smallest == planted

    def test_invariant_violations(self):
        with pytest.raises(ContractViolation):
            SyntheticSpec(eps=0.0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(eps=2.0, delta=1.0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(mu=1.0, sigma=0.9, eps=0.2, delta=0.2)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("q_scale", float("nan"), "q_scale must be finite in float32"),
            ("q_scale", float("inf"), "q_scale must be finite in float32"),
            ("q_scale", 1e39, "q_scale must be finite in float32"),
            ("mu", float("inf"), "mu must be finite in float32"),
            ("mu", float("nan"), "mu must be finite in float32"),
            ("sigma", float("nan"), "sigma must be finite in float32"),
            ("sigma", -1.0, "sigma must be >= 0"),
            ("sigma", 3e38, "need 0 < eps"),
            ("q_scale", -1.0, "q_scale must be >= 0"),
            ("seed", -1, "seed must be >= 0"),
        ],
    )
    def test_generator_floats_must_be_finite(self, field, value, message):
        # Before this check a NaN q_scale built a trace whose queries only
        # failed much later, in softmax; a negative sigma or an infinite mu
        # crashed inside numpy's generator.
        with pytest.raises(ContractViolation, match=message):
            SyntheticSpec(**{field: value})

    def test_band_top_must_be_finite_in_float32(self):
        with pytest.raises(ContractViolation, match="mu \\+ sigma must be finite in float32"):
            SyntheticSpec(mu=3e38, sigma=1e38)
        big = SyntheticSpec(mu=3e38, sigma=0.0)
        trace = generate_synthetic(big, 1, 1, 4, 30)
        assert np.isfinite(trace.block(0, 0)).all()

    def test_m_bounded_by_sequence(self):
        with pytest.raises(ContractViolation):
            generate_synthetic(SyntheticSpec(m=3), 1, 1, 8, 20)


class TestSyntheticTrace:
    """A synthetic trace holds no payload: each (layer, head) block is drawn when it is read."""

    def test_blocks_equal_the_generated_trace(self, tmp_path):
        # write_trace draws every block once, layer-major; blocks drawn out
        # of that order, or twice, are the same blocks.
        spec = SyntheticSpec(m=3, outlier_channels=2, seed=9)
        drawn = SyntheticTrace(TraceHeader(3, 2, 8, 64), spec)
        write_trace(tmp_path / "t.kvt", generate_synthetic(spec, 3, 2, 8, 64))
        built = read_trace(tmp_path / "t.kvt")
        assert drawn.header == built.header
        for layer, head in [(2, 1), (0, 0), (1, 0), (2, 1), (0, 1), (1, 1), (2, 0), (0, 0)]:
            a, b = drawn.block(layer, head), built.block(layer, head)
            assert a.dtype == b.dtype == np.dtype("<f4")
            assert a.shape == b.shape == (3, 64, 8)
            assert a.tobytes() == b.tobytes()

    def test_writing_holds_a_few_blocks(self, tmp_path):
        # No whole-trace array is built: writing 8x8 blocks of 1024x64 (50 MB)
        # draws them one at a time.
        block_bytes = 3 * 1024 * 64 * 4
        tracemalloc.start()
        try:
            write_trace(tmp_path / "big.kvt", generate_synthetic(SyntheticSpec(), 8, 8, 64, 1024))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * block_bytes

    def test_drawing_a_block_holds_under_two_blocks(self):
        # Each of K, Q and V is drawn straight into the float32 block, so
        # one float64 (T, d) draw is the only array held beside it.
        drawn = generate_synthetic(SyntheticSpec(), 1, 1, 64, 1024)
        drawn.block(0, 0)  # warms the generator's first-use allocations
        tracemalloc.start()
        try:
            block = drawn.block(0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * block.nbytes

    @pytest.mark.parametrize("layer, head", [(-1, 0), (1, 0), (0, -1), (0, 2)])
    def test_planted_out_of_range_rejected(self, layer, head):
        # A negative layer used to reach numpy's seeding and fail there.
        trace = SyntheticTrace(TraceHeader(1, 2, 8, 64), SyntheticSpec())
        with pytest.raises(ContractViolation, match="out of range"):
            trace.planted(layer, head)

    def test_each_block_is_a_fresh_array(self):
        drawn = SyntheticTrace(TraceHeader(1, 1, 4, 40), SyntheticSpec())
        a = drawn.block(0, 0)
        a[:] = 0
        assert drawn.block(0, 0).any()

    @pytest.mark.parametrize(
        "spec, head_dim, seq_len, message",
        [
            (SyntheticSpec(m=3), 8, 20, "m=3 too large for seq_len=20"),
            (SyntheticSpec(outlier_channels=9), 8, 64, "more outlier channels than head_dim"),
        ],
    )
    def test_shape_checked_at_construction(self, spec, head_dim, seq_len, message):
        with pytest.raises(ContractViolation, match=message):
            SyntheticTrace(TraceHeader(1, 1, head_dim, seq_len), spec)


class TestWriteTraceFailure:
    """A write that fails part way removes the partial file, and only a regular one."""

    @pytest.fixture
    def failing(self, monkeypatch):
        # A trace whose second block read fails, after the header and one block are written.
        trace = generate_synthetic(SyntheticSpec(seed=11), 2, 1, 4, 40)
        block = SyntheticTrace.block

        def second_fails(self, layer, head):
            if layer == 1:
                raise MemoryError("no room for block (1, 0)")
            return block(self, layer, head)

        monkeypatch.setattr(SyntheticTrace, "block", second_fails)
        return trace

    def test_partial_file_removed(self, tmp_path, failing):
        path = tmp_path / "t.kvt"
        path.write_bytes(b"older contents")
        with pytest.raises(MemoryError):
            write_trace(path, failing)
        assert not path.exists()

    def test_symlink_kept(self, tmp_path, failing):
        # A link such as /dev/stdout names no file of ours to remove.
        target, link = tmp_path / "target.kvt", tmp_path / "link.kvt"
        link.symlink_to(target)
        with pytest.raises(MemoryError):
            write_trace(link, failing)
        assert link.is_symlink()
        assert target.stat().st_size == 24 + 3 * 40 * 4 * 4


class TestDecileStats:
    def test_uniform_lattice(self):
        stats = decile_stats(np.arange(10, dtype=np.float64))
        np.testing.assert_allclose(stats, np.full(10, 10.0))

    def test_two_extremes(self):
        col = np.array([0.0] * 5 + [1.0] * 5)
        stats = decile_stats(col)
        assert stats[0] == 50.0 and stats[-1] == 50.0
        assert stats[1:-1].sum() == 0.0

    def test_sums_to_hundred(self):
        rng = np.random.default_rng(56)
        stats = decile_stats(rng.standard_normal(1000))
        assert abs(stats.sum() - 100.0) <= 1e-6

    def test_constant_column_rejected(self):
        with pytest.raises(ContractViolation):
            decile_stats(np.full(10, 3.0))

    @pytest.mark.parametrize("column, message", [
        (np.ones((2, 5)), "non-empty 1-D"),
        (np.ones(0), "non-empty 1-D"),
        ([1.0, np.nan, 2.0], "NaN or Inf"),
        ([1.0, np.inf, 2.0], "NaN or Inf"),
        ([np.inf, np.inf], "NaN or Inf"),
        ([-1e308, 1e308], "range overflows float64"),
        # Finite, not constant, and still too narrow for ten float64 bins.
        ([0.0, 5e-324], "too narrow"),
        ([0.0, 2.5e-323], "too narrow"),
        ([1.0, 1.0000000000000002], "too narrow"),
    ], ids=["2-D", "empty", "NaN", "Inf", "all Inf", "range overflow",
            "one subnormal", "five subnormals", "one ulp at 1"])
    # A numpy warning would add a line before the CLI's one error line.
    @pytest.mark.filterwarnings("error")
    def test_malformed_column_rejected(self, column, message):
        with pytest.raises(ContractViolation, match=message):
            decile_stats(column)

    def test_synthetic_outlier_channel_shape(self):
        spec = SyntheticSpec(mu=24.0, sigma=6.0, eps=0.01, delta=0.01, m=3, seed=6)
        t = generate_synthetic(spec, 1, 1, 8, 1024)
        stats = decile_stats(t.block(0, 0)[1][:, 0])
        assert stats[0] < 1.0  # planted mass only
        assert stats.argmax() >= 5  # bulk sits in the upper deciles
        assert stats[6:].sum() > 90.0
