import hashlib
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    DegenerateColumnError,
    SyntheticSpec,
    Trace,
    TraceFormatError,
    TraceHeader,
    decile_stats,
    generate_synthetic,
    read_trace,
    write_trace,
)
from kvtrace import trace as trace_module
from kvtrace.trace import planted_positions


def tiny_trace(rng, layers=1, heads=1, seq=1, dim=1):
    header = TraceHeader(layers, heads, dim, seq)
    shape = (layers, heads, seq, dim)
    return Trace(
        header=header,
        q=rng.standard_normal(shape).astype(np.float32),
        k=rng.standard_normal(shape).astype(np.float32),
        v=rng.standard_normal(shape).astype(np.float32),
    )


class TestFileRoundTrip:
    def test_minimal_trace_bit_exact(self, tmp_path):
        trace = tiny_trace(np.random.default_rng(51))
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.header == trace.header
        np.testing.assert_array_equal(back.q, trace.q)
        np.testing.assert_array_equal(back.k, trace.k)
        np.testing.assert_array_equal(back.v, trace.v)

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
                for arr in (trace.q, trace.k, trace.v):
                    want += arr[layer, head].astype("<f4").tobytes()
        assert path.read_bytes() == want

    @pytest.mark.parametrize("layers, heads", [(2, 3), (1, 1)])
    def test_read_returns_owned_writable_arrays(self, tmp_path, layers, heads):
        trace = tiny_trace(np.random.default_rng(57), layers=layers, heads=heads, seq=5, dim=4)
        path = tmp_path / "owned.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        for name in ("q", "k", "v"):
            got, want = getattr(back, name), getattr(trace, name)
            assert got.dtype == np.float32
            assert got.flags.c_contiguous and got.flags.writeable
            np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(back.q, back.k)

    def test_read_peak_is_the_payload(self, tmp_path):
        # Blocks are read into the trace's own arrays: no whole-file bytes
        # object and no converted copy lives beside them.
        trace = generate_synthetic(SyntheticSpec(seed=5), 4, 2, 32, 512)
        path = tmp_path / "peak.kvt"
        write_trace(path, trace)
        payload = 3 * trace.q.nbytes
        tracemalloc.start()
        try:
            back = read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.v, trace.v)
        assert peak <= payload + 64 * 1024

    @pytest.mark.parametrize("short_block", [0, 5])
    def test_short_read_rejected(self, tmp_path, monkeypatch, short_block):
        # The file shrinks after its size was taken: one block read comes
        # back short, and the reader must notice rather than keep garbage.
        trace = tiny_trace(np.random.default_rng(58), layers=2, heads=1, seq=4, dim=3)
        path = tmp_path / "shrunk.kvt"
        write_trace(path, trace)
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
        block = 4 * 3 * 4
        with pytest.raises(TraceFormatError, match="payload incomplete") as exc:
            read_trace(path)
        assert exc.value.offset == 8 + 16 + short_block * block + block - 4
        assert len(calls) == short_block + 1

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
            return [a.tobytes() for a in (trace.q, trace.k, trace.v)]

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

    def test_zero_dim_header_rejected(self, tmp_path):
        path = tmp_path / "zero.kvt"
        path.write_bytes(b"KVTRACE1" + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_header_validation(self):
        with pytest.raises(ContractViolation):
            TraceHeader(0, 1, 1, 1)


class TestSyntheticGenerator:
    def test_no_planted_tokens_keeps_band(self):
        spec = SyntheticSpec(mu=5.0, sigma=0.5, eps=0.01, delta=0.01, m=0, seed=1)
        trace = generate_synthetic(spec, 1, 1, 4, 64)
        channel = trace.k[0, 0, :, 0]
        assert channel.max() - channel.min() <= 2 * spec.sigma

    def test_planted_count_and_band(self):
        spec = SyntheticSpec(mu=5.0, sigma=0.5, eps=0.01, delta=0.01, m=3, seed=2)
        trace = generate_synthetic(spec, 1, 1, 4, 64)
        channel = trace.k[0, 0, :, 0]
        low = np.flatnonzero(np.abs(channel - 0.01) < 1e-6)
        assert low.size == 3
        rest = np.delete(channel, low)
        assert rest.min() >= 4.5 - 1e-6 and rest.max() <= 5.5 + 1e-6

    def test_determinism(self):
        spec = SyntheticSpec(seed=3)
        a = generate_synthetic(spec, 2, 2, 8, 64)
        b = generate_synthetic(spec, 2, 2, 8, 64)
        assert a.q.tobytes() == b.q.tobytes()
        assert a.k.tobytes() == b.k.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_streams_differ_across_heads(self):
        spec = SyntheticSpec(seed=3)
        t = generate_synthetic(spec, 1, 2, 8, 64)
        assert t.k[0, 0].tobytes() != t.k[0, 1].tobytes()

    def test_query_magnitude_in_outlier_channels(self):
        spec = SyntheticSpec(seed=4)
        t = generate_synthetic(spec, 1, 1, 8, 64)
        np.testing.assert_array_equal(t.q[0, 0, :, 0], np.full(64, -spec.q_scale, np.float32))

    def test_planted_positions_helper_matches(self):
        spec = SyntheticSpec(seed=5)
        t = generate_synthetic(spec, 1, 1, 16, 256)
        planted = planted_positions(spec, 0, 0, 256, 16)
        channel = t.k[0, 0, :, 0]
        assert sorted(np.flatnonzero(channel < spec.mu - spec.sigma - 1e-6).tolist()) == planted.tolist()

    def test_planted_rows_have_smallest_l1_at_defaults(self):
        # the m planted rows are exactly the m lowest-magnitude tokens
        for seed in range(10):
            spec = SyntheticSpec(seed=seed)
            t = generate_synthetic(spec, 1, 1, 16, 1024)
            l1 = np.abs(t.k[0, 0]).sum(axis=1)
            planted = set(planted_positions(spec, 0, 0, 1024, 16).tolist())
            smallest = set(np.argsort(l1)[: spec.m].tolist())
            assert smallest == planted

    def test_invariant_violations(self):
        with pytest.raises(ContractViolation):
            SyntheticSpec(eps=0.0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(eps=2.0, delta=1.0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(mu=1.0, sigma=0.9, eps=0.2, delta=0.2)

    def test_m_bounded_by_sequence(self):
        with pytest.raises(ContractViolation):
            generate_synthetic(SyntheticSpec(m=3), 1, 1, 8, 20)


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
        with pytest.raises(DegenerateColumnError):
            decile_stats(np.full(10, 3.0))

    def test_synthetic_outlier_channel_shape(self):
        spec = SyntheticSpec(mu=24.0, sigma=6.0, eps=0.01, delta=0.01, m=3, seed=6)
        t = generate_synthetic(spec, 1, 1, 8, 1024)
        stats = decile_stats(t.k[0, 0, :, 0])
        assert stats[0] < 1.0  # planted mass only
        assert stats.argmax() >= 5  # bulk sits in the upper deciles
        assert stats[6:].sum() > 90.0
