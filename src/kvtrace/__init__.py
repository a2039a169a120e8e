"""KV-cache quantization with outlier-token tracking on attention traces.

The library replays recorded or synthetic attention traces through a
tiered, group-quantized KV cache, measures attention-output error against
a full-precision oracle, and accounts memory against an fp16 baseline
(``fp16_bits``).
"""

from .attention import AttentionResult, attend_full_precision, attend_mixed, row_l1_errors
from .cache import EngineConfig, MemoryBreakdown, TieredCache, fp16_bits
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
from .report import Criterion, compare_criteria, ratio_curve
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
    "fp16_bits",
    "generate_synthetic",
    "pack_codes",
    "quantize_keys_channelwise",
    "quantize_uniform",
    "quantize_values_tokenwise",
    "ratio_curve",
    "read_trace",
    "replay_caches",
    "row_l1_errors",
    "score_tokens",
    "substitute_means",
    "unpack_codes",
    "write_trace",
]
