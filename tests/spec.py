"""OTT's cache rule, written out from the fed rows alone: the reference tests check against.

The spec holds none of a cache's state. Per (layer, head), group j is
quantized once ``t + 1 - j*G >= G + R``. Before that, a list pool offers
the group's key L1 scores to its members, ranks all by (score, position)
and keeps ``capacity`` (0 on skipped layers). Members that lose their slot
go to an aux list, and the pool freezes once that list holds
``aux_capacity`` positions. The group's winners are mean-substituted, and
the group is quantized keys per channel and values per token. At step t
attention reads the dequantized groups, then the pending rows, with the
exact rows at the pool's current positions in place.

So a token the pool evicts is attended through its shadow row, the
mean-substituted dequantized one, even while the aux list holds it and
the memory model pays for its full-precision row. That rule is this
repository's decision: the OTT abstract does not say how evicted tokens
are attended.
"""

import numpy as np

from kvtrace import quantize_keys_channelwise, quantize_values_tokenwise


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


def spec_steps(k, v, config, layer):
    """Yield, per step t of feeding rows ``k[t]``, ``v[t]``, what one (layer, head) cache holds.

    Each step gives the (t + 1, d) K and V rows attention reads, then the
    pool's positions in rank order and the aux list's positions in the
    order they were evicted.
    """
    g, aux_capacity = config.group_size, config.aux_capacity
    capacity = 0 if layer in config.skip_layers else config.outlier_num
    pool, aux, groups = [], [], []  # pool and aux hold (score, position)
    for t in range(len(k)):
        base = len(groups) * g
        if t + 1 - base >= g + config.residual:
            gk, gv = k[base : base + g], v[base : base + g]
            winners = []
            if capacity and len(aux) < aux_capacity:
                scores = np.abs(gk).sum(axis=1, dtype=np.float64).tolist()
                ranked = sorted(pool + [(s, base + i) for i, s in enumerate(scores)])[:capacity]
                aux += [m for m in pool if m not in ranked][: aux_capacity - len(aux)]
                pool = ranked
                winners = [p - base for _, p in pool if p >= base]
            groups.append(group_rows(gk, gv, winners, config.bits))
        n = len(groups) * g
        rows_k = np.concatenate([gk for gk, _ in groups] + [k[n : t + 1]])
        rows_v = np.concatenate([gv for _, gv in groups] + [v[n : t + 1]])
        members = [p for _, p in pool]
        rows_k[members], rows_v[members] = k[members], v[members]
        yield rows_k, rows_v, members, [p for _, p in aux]
