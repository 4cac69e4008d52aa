"""Time-reversible coupled linear congruential generator.

A two-word congruential generator whose y channel is driven by the x
channel through a coupling function, together with the analytically
derived backward recursion that retraces any sequence exactly, and an
exhaustive desk-scale verification suite (orbit period, state-space
equidistribution, round-trip identity, full-period preconditions, and
a bit-exact reproduction of the reference forward/backward program).

The verification names load :mod:`revlcg.verification`, and with it
numpy, on first use (PEP 562), so ``import revlcg`` and the streaming
CLI commands stay free of numpy.
"""

from .congruence import (
    MAX_MODULUS,
    ExtGcdResult,
    InvariantError,
    InverseParams,
    LcgParams,
    NotInvertibleError,
    ParameterError,
    derive_inverse,
    ext_gcd,
    mod_inverse,
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
    packed_multiplier,
    packed_oracle_step,
    rund_backward_step,
    rund_forward_step,
)


def __getattr__(name: str):
    if name in _VERIFICATION_NAMES:
        from . import verification

        value = getattr(verification, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _VERIFICATION_NAMES)


__version__ = "0.1.0"

__all__ = [
    "MAX_MODULUS",
    "SWEEP_MAX_M",
    "ExtGcdResult",
    "InvariantError",
    "InverseParams",
    "LcgParams",
    "NotInvertibleError",
    "ParameterError",
    "derive_inverse",
    "ext_gcd",
    "mod_inverse",
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
    "packed_multiplier",
    "packed_oracle_step",
    "rund_backward_step",
    "rund_forward_step",
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

# Every exported name not imported above lives in the verification module.
_VERIFICATION_NAMES = frozenset(__all__).difference(globals())
