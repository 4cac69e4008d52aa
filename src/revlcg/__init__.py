"""Time-reversible coupled linear congruential generator.

A two-word congruential generator whose y channel is driven by the x
channel through a coupling function, together with the analytically
derived backward recursion that retraces any sequence exactly, and an
exhaustive desk-scale verification suite (orbit period, state-space
equidistribution, round-trip identity, full-period preconditions, and
a bit-exact reproduction of the reference forward/backward program).
"""

from .congruence import (
    MAX_MODULUS,
    ExtGcdResult,
    InvariantError,
    InverseParams,
    LcgParams,
    NotInvertibleError,
    derive_inverse,
    ext_gcd,
    mod_inverse,
    mod_nonneg,
)
from .generator import (
    CoupledGenerator,
    CoupledState,
    CouplingSpec,
    backward_step,
    carry_coupling,
    forward_step,
    generate_sequence,
    output_real,
    pack_state,
    real_decimal,
    reverse_sequence,
    unpack_state,
)
from .rund import (
    RUND,
    RundConstants,
    pack_words,
    packed_multiplier,
    packed_oracle_step,
    rund_backward_step,
    rund_forward_step,
    unpack_word,
)
from .verification import (
    SWEEP_MAX_M,
    EquidistributionReport,
    HullDobellReport,
    OrbitReport,
    ReproductionReport,
    RoundTripReport,
    equidistribution_check,
    hull_dobell_check,
    orbit_period,
    paper_reproduction,
    roundtrip_sample,
    roundtrip_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_MODULUS",
    "SWEEP_MAX_M",
    "ExtGcdResult",
    "InvariantError",
    "InverseParams",
    "LcgParams",
    "NotInvertibleError",
    "derive_inverse",
    "ext_gcd",
    "mod_inverse",
    "mod_nonneg",
    "CoupledGenerator",
    "CoupledState",
    "CouplingSpec",
    "backward_step",
    "carry_coupling",
    "forward_step",
    "generate_sequence",
    "output_real",
    "pack_state",
    "real_decimal",
    "reverse_sequence",
    "unpack_state",
    "RUND",
    "RundConstants",
    "pack_words",
    "packed_multiplier",
    "packed_oracle_step",
    "rund_backward_step",
    "rund_forward_step",
    "unpack_word",
    "EquidistributionReport",
    "HullDobellReport",
    "OrbitReport",
    "ReproductionReport",
    "RoundTripReport",
    "equidistribution_check",
    "hull_dobell_check",
    "orbit_period",
    "paper_reproduction",
    "roundtrip_sample",
    "roundtrip_sweep",
]
