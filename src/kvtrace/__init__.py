"""KV-cache quantization with outlier-token tracking on attention traces.

The library replays recorded or synthetic attention traces through a
tiered, group-quantized KV cache, measures attention-output error against
a full-precision oracle, and accounts memory against an fp16 baseline.
"""

from .attention import AttentionResult, attend_full_precision, attend_mixed, l1_error, row_l1_errors, softmax
from .cache import EngineConfig, MemoryBreakdown, TieredCache
from .errors import ContractViolation, TraceFormatError
from .outlier import OutlierPool, score_tokens, substitute_means
from .quant import (
    GroupAxis,
    QuantParams,
    QuantizedBlock,
    dequantize,
    pack_codes,
    quantize_keys_channelwise,
    quantize_uniform,
    quantize_values_tokenwise,
    unpack_codes,
)
from .report import (
    Criterion,
    ExperimentRow,
    compare_criteria,
    estimate_kv_bytes,
    ratio_curve,
    write_rows,
)
from .replay import replay_caches
from .trace import (
    SyntheticSpec,
    SyntheticTrace,
    TraceFile,
    TraceHeader,
    decile_stats,
    generate_synthetic,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionResult",
    "ContractViolation",
    "Criterion",
    "EngineConfig",
    "ExperimentRow",
    "GroupAxis",
    "MemoryBreakdown",
    "OutlierPool",
    "QuantParams",
    "QuantizedBlock",
    "SyntheticSpec",
    "SyntheticTrace",
    "TieredCache",
    "TraceFile",
    "TraceFormatError",
    "TraceHeader",
    "attend_full_precision",
    "attend_mixed",
    "compare_criteria",
    "decile_stats",
    "dequantize",
    "estimate_kv_bytes",
    "generate_synthetic",
    "l1_error",
    "pack_codes",
    "quantize_keys_channelwise",
    "quantize_uniform",
    "quantize_values_tokenwise",
    "ratio_curve",
    "read_trace",
    "replay_caches",
    "row_l1_errors",
    "score_tokens",
    "softmax",
    "substitute_means",
    "unpack_codes",
    "write_rows",
    "write_trace",
]
