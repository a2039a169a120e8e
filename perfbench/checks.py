"""Correctness checks on the summaries ``kvtrace`` prints.

Every check returns ``(name, ok, detail)``. The closed forms follow the
memory model in the README: after T appends a cache holds
``n = max(0, (T - R) // G)`` quantized groups and ``T - n*G`` pending rows;
a group stores ``2*G*d*bits`` code bits and ``(d + G)`` parameter lines
of 2x16 bits (keys per channel, values per token); full-precision rows
cost 16 bits per value for K and V each.
"""

from __future__ import annotations

import math

FP16_BITS = 16
BIT_FIELDS = ("quantized_bits", "param_bits", "pending_bits", "pool_bits", "total_bits")
SIMULATE_FIELDS = ("mode", "steps", "aggregate_l1_error", *BIT_FIELDS, "ratio_vs_fp16")
RATIO_CURVE_FIELDS = ("seq_len", "total_bits", "ratio_vs_fp16")

# Allowed drift of aggregate_l1_error from the recorded reference: 1e-6 per
# output element (so d * 1e-6 on a per-row L1 sum, which admits a float
# reordering of the attention arithmetic), plus the 6-significant-digit
# rounding of the printed value.
L1_ABS_TOL_PER_ELEMENT = 1e-6
PRINT_REL_TOL = 1e-5


def parse_summary(text: str) -> dict[str, str]:
    """Collect every ``key=value`` token of the CLI's stdout."""
    fields: dict[str, str] = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            fields[key] = value
    return fields


def closed_form_bits(T: int, engine: dict, d: int, caches: int) -> dict[str, int]:
    """Quantized, parameter and pending bits of ``caches`` caches after T tokens."""
    G, R, bits = engine["group_size"], engine["residual"], engine["bits"]
    groups = max(0, (T - R) // G)
    pending = T - groups * G
    return {
        "quantized_bits": caches * 2 * groups * G * d * bits,
        "param_bits": caches * groups * (d + G) * 2 * FP16_BITS,
        "pending_bits": caches * pending * d * FP16_BITS * 2,
    }


def pool_row_bits(d: int) -> int:
    """Bits of one pooled token: full-precision K and V rows."""
    return d * FP16_BITS * 2


def pooled_caches(engine: dict, layers: int, heads: int) -> int:
    return sum(1 for layer in range(layers) if layer not in engine["skip_layers"]) * heads


def _typed(fields: dict[str, str], names) -> tuple[dict, str]:
    """Parse ``names`` from ``fields``: bit counts and lengths as int, the rest as finite float."""
    out = {}
    for name in names:
        if name not in fields:
            return {}, f"missing {name}"
        raw = fields[name]
        if name == "mode":
            out[name] = raw
            continue
        try:
            value = int(raw) if name in BIT_FIELDS or name in ("steps", "seq_len") else float(raw)
        except ValueError:
            return {}, f"{name}={raw!r} does not parse"
        if not math.isfinite(value):
            return {}, f"{name}={raw!r} is not finite"
        out[name] = value
    return out, ""


def check_simulate(rc: int, text: str, shape: dict, engine: dict, reference: dict | None):
    """Checks for one ``simulate`` summary of a trace of ``shape``."""
    checks = [("exit_code", rc == 0, f"rc={rc}")]
    s, why = _typed(parse_summary(text), SIMULATE_FIELDS)
    checks.append(("fields_parse", bool(s), why))
    if not s:
        return checks
    L, H, d, T = shape["layers"], shape["heads"], shape["head_dim"], shape["seq_len"]
    checks.append(("mode_and_steps", s["mode"] == engine["mode"] and s["steps"] == T,
                   f"mode={s['mode']} steps={s['steps']}"))
    expected = closed_form_bits(T, engine, d, L * H)
    for key, want in expected.items():
        checks.append((f"closed_form.{key}", s[key] == want, f"{s[key]} != {want}"))
    pool_cap = pooled_caches(engine, L, H) * (engine["outlier_num"] + engine["aux_capacity"])
    row = pool_row_bits(d)
    checks.append(("pool_bound", s["pool_bits"] % row == 0 and 0 <= s["pool_bits"] <= pool_cap * row,
                   f"pool_bits={s['pool_bits']} bound={pool_cap * row}"))
    parts = sum(s[k] for k in BIT_FIELDS[:-1])
    checks.append(("total_bits", s["total_bits"] == parts, f"{s['total_bits']} != {parts}"))
    fp16 = L * H * 2 * T * d * FP16_BITS
    checks.append(_ratio_check(s["ratio_vs_fp16"], fp16, s["total_bits"]))
    checks.append(("l1_nonnegative", s["aggregate_l1_error"] >= 0, str(s["aggregate_l1_error"])))
    if reference is not None:
        checks.extend(_reference_checks(s, reference, d))
    return checks


def check_ratio_curve(rc: int, text: str, shape: dict, engine: dict, reference: dict | None):
    """Checks for one single-cache ``ratio-curve`` summary at one length."""
    checks = [("exit_code", rc == 0, f"rc={rc}")]
    s, why = _typed(parse_summary(text), RATIO_CURVE_FIELDS)
    checks.append(("fields_parse", bool(s), why))
    if not s:
        return checks
    d, T = shape["head_dim"], shape["seq_len"]
    checks.append(("seq_len", s["seq_len"] == T, f"seq_len={s['seq_len']}"))
    # ratio-curve prints only the total: what the closed form leaves over
    # must be whole pooled rows within the pool plus aux capacity.
    parts = sum(closed_form_bits(T, engine, d, 1).values())
    pool_bits = s["total_bits"] - parts
    row = pool_row_bits(d)
    cap = (engine["outlier_num"] + engine["aux_capacity"]) * row
    checks.append(("closed_form.pool_remainder", pool_bits % row == 0 and 0 <= pool_bits <= cap,
                   f"total_bits - closed form = {pool_bits}, bound {cap}"))
    checks.append(_ratio_check(s["ratio_vs_fp16"], 2 * T * d * FP16_BITS, s["total_bits"]))
    if reference is not None:
        checks.extend(_reference_checks(s, reference, d))
    return checks


def _ratio_check(printed: float, fp16_bits: int, total_bits: int):
    want = fp16_bits / total_bits if total_bits else math.inf
    ok = math.isclose(printed, want, rel_tol=PRINT_REL_TOL)
    return ("ratio_vs_fp16", ok, f"{printed} != {want:.6g}")


def _reference_checks(s: dict, reference: dict, d: int):
    """Bit counts must equal the recorded values; the L1 error must be within tolerance."""
    checks = []
    for key, want in reference.items():
        if key == "aggregate_l1_error":
            tol = L1_ABS_TOL_PER_ELEMENT * d + PRINT_REL_TOL * abs(want)
            checks.append((f"reference.{key}", abs(s[key] - want) <= tol,
                           f"{s[key]} vs {want} (tol {tol:.3g})"))
        elif key == "ratio_vs_fp16":
            checks.append((f"reference.{key}", math.isclose(s[key], want, rel_tol=PRINT_REL_TOL),
                           f"{s[key]} vs {want}"))
        else:
            checks.append((f"reference.{key}", s[key] == want, f"{s[key]} vs {want}"))
    return checks
