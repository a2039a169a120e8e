"""OTT's rules, written out from the fed rows alone: the reference tests check against.

The spec holds none of a cache's state. Per (layer, head), group j is
quantized once ``t + 1 - j*G >= G + R``. Before that, a list pool offers
the group's key L1 scores to its members, ranks all by (score, position)
and keeps ``capacity`` (0 on skipped layers). Members that lose their slot
go to an aux list, and the pool freezes once that list holds
``aux_capacity`` positions. The group's winners are mean-substituted, and
the group is quantized keys per channel and values per token. At step t
attention reads the dequantized groups, then the pending rows, with the
exact rows at the pool's current positions in place. A replay's error at
step t is the L1 distance between attention over those rows and over the
exact rows, and memory is charged against fp16 in closed form.

So a token the pool evicts is attended through its shadow row, the
mean-substituted dequantized one, even while the aux list holds it and
the memory model pays for its full-precision row. That rule is this
repository's decision: the OTT abstract does not say how evicted tokens
are attended.
"""

import numpy as np

from kvtrace import attend_full_precision, quantize_keys_channelwise, quantize_values_tokenwise, row_l1_errors

# The memory fields ``closed_form_bits`` returns, in ``simulate``'s print order.
USAGE_KEYS = ("quantized_bits", "param_bits", "pending_bits", "pool_bits", "total_bits")


def substituted(group_k, group_v, excluded):
    """Float32 copies of a group, its ``excluded`` rows set to the whole group's float64 per-channel means."""
    k, v = np.array(group_k, np.float32), np.array(group_v, np.float32)
    excluded = list(excluded)
    k[excluded] = k.mean(axis=0, dtype=np.float64)
    v[excluded] = v.mean(axis=0, dtype=np.float64)
    return k, v


def group_rows(group_k, group_v, excluded, bits):
    """The substituted group's K and V rows: keys quantized per channel, values per token, dequantized."""
    k, v = substituted(group_k, group_v, excluded)
    return (quantize_keys_channelwise(k, bits).to_matrix(),
            quantize_values_tokenwise(v, bits).to_matrix())


def pool_update(pool, aux, scores, first, capacity, aux_capacity):
    """Offer ``scores``, the candidates at positions ``first, first + 1, ...``, to a list pool.

    ``pool`` holds (score, position) pairs in rank order and ``aux`` the
    evicted pairs in eviction order. Returns ``(pool, aux, selected,
    evicted)``: the new lists, the winning candidates' positions in rank
    order, and the positions of members that lost their slot in member
    rank order. A frozen pool (capacity 0, or ``aux_capacity`` pairs in
    aux) is returned unchanged, with nothing selected or evicted.
    """
    if capacity == 0 or len(aux) >= aux_capacity:
        return pool, aux, [], []
    ranked = sorted(pool + [(s, first + i) for i, s in enumerate(scores)])[:capacity]
    lost = [m for m in pool if m not in ranked]
    selected = [p for _, p in ranked if p >= first]
    return ranked, aux + lost[: aux_capacity - len(aux)], selected, [p for _, p in lost]


def spec_steps(k, v, config, layer):
    """Yield, per step t of feeding rows ``k[t]``, ``v[t]``, what one (layer, head) cache holds.

    Each step gives the (t + 1, d) K and V rows attention reads, then the
    pool's positions in rank order and the aux list's positions in the
    order they were evicted.
    """
    g, aux_capacity = config.group_size, config.aux_capacity
    capacity = 0 if layer in config.skip_layers else config.outlier_num
    pool, aux, members, aux_positions, n = [], [], [], [], 0
    # Each position's row without the pool: its group's dequantized row once
    # the group is written (the shadow row), the exact row before that.
    shadow_k, shadow_v = k.copy(), v.copy()
    # The attended rows change only at a group write, so each step reads a
    # prefix of one array; no array a step has yielded changes later.
    attended_k, attended_v = k, v
    for t in range(len(k)):
        if t + 1 - n >= g + config.residual:
            gk, gv = k[n : n + g], v[n : n + g]
            scores = np.abs(gk).sum(axis=1, dtype=np.float64).tolist()
            pool, aux, selected, _ = pool_update(pool, aux, scores, n, capacity, aux_capacity)
            members, aux_positions = [p for _, p in pool], [p for _, p in aux]
            shadow_k[n : n + g], shadow_v[n : n + g] = group_rows(gk, gv, [p - n for p in selected], config.bits)
            n += g
            attended_k, attended_v = shadow_k.copy(), shadow_v.copy()
            attended_k[members], attended_v[members] = k[members], v[members]
        yield attended_k[: t + 1], attended_v[: t + 1], members, aux_positions


def spec_replay(trace, config):
    """Yield ``(layer, head, errors, positions, aux_positions)`` per (layer, head), layer-major.

    ``errors`` holds the T float64 per-step L1 errors of attention over
    ``spec_steps``' rows against attention over the first t + 1 exact
    rows; the positions are the pool's and the aux list's after the last
    step.
    """
    h = trace.header
    for layer in range(h.n_layers):
        for head in range(h.n_heads):
            q, k, v = trace.block(layer, head)
            mixed, oracle = np.empty_like(q), np.empty_like(q)
            for t, (rows_k, rows_v, positions, aux_positions) in enumerate(spec_steps(k, v, config, layer)):
                mixed[t] = attend_full_precision(q[t], rows_k, rows_v).output
                oracle[t] = attend_full_precision(q[t], k[: t + 1], v[: t + 1]).output
            yield layer, head, row_l1_errors(mixed, oracle), positions, aux_positions


def closed_form_bits(config, tokens, pool_rows):
    """The memory model's fields in bits, keyed by ``USAGE_KEYS``, after ``tokens`` tokens.

    A cache has then quantized Q = G·max(0, ⌊(T − R)/G⌋) tokens: 2·Q·d·b
    code bits, Q/G groups of d key and G value parameter lines at 2·16
    bits, and (T − Q)·d pending plus ``pool_rows``·d pool and aux values
    per side at 16 bits, where 0 ≤ pool_rows ≤ outlier_num + aux_capacity.
    """
    g, r, d, b = config.group_size, config.residual, config.head_dim, config.bits
    quantized = g * max(0, (tokens - r) // g)
    bits = {"quantized_bits": 2 * quantized * d * b, "param_bits": quantized // g * (d + g) * 32,
            "pending_bits": (tokens - quantized) * d * 32, "pool_bits": pool_rows * d * 32}
    return bits | {"total_bits": sum(bits.values())}
