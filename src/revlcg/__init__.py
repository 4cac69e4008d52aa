"""Time-reversible coupled linear congruential generator.

A two-word congruential generator whose y channel is driven by the x
channel through a coupling function, together with the analytically
derived backward recursion that retraces any sequence exactly, and an
exhaustive desk-scale verification suite (orbit period, state-space
equidistribution, round-trip identity, full-period preconditions, and
a bit-exact reproduction of the reference forward/backward program).

Each public name loads the submodule that defines it on first use
(PEP 562), so ``import revlcg`` loads no submodule, and
``derive_inverse`` only :mod:`revlcg.congruence`. The scalar
generator's names load :mod:`revlcg.generator` (with ``decimal`` and
``fractions``), and only the verification names load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in __all__ order.
_HOMES = {
    "MAX_MODULUS": "congruence",
    "SWEEP_MAX_M": "verification",
    "ExtGcdResult": "congruence",
    "InvariantError": "congruence",
    "InverseParams": "congruence",
    "LcgParams": "congruence",
    "NotInvertibleError": "congruence",
    "ParameterError": "congruence",
    "derive_inverse": "congruence",
    "ext_gcd": "congruence",
    "mod_inverse": "congruence",
    "CoupledGenerator": "generator",
    "CoupledState": "generator",
    "CouplingSpec": "generator",
    "backward_step": "generator",
    "carry_coupling": "generator",
    "forward_step": "generator",
    "generate_sequence": "generator",
    "output_real": "generator",
    "pack_state": "generator",
    "real_decimal": "generator",
    "reverse_sequence": "generator",
    "unpack_state": "generator",
    "RUND": "rund",
    "RundConstants": "rund",
    "packed_multiplier": "rund",
    "packed_oracle_step": "rund",
    "rund_backward_step": "rund",
    "rund_forward_step": "rund",
    "EquidistributionReport": "verification",
    "HullDobellReport": "verification",
    "OrbitReport": "verification",
    "ReproductionReport": "verification",
    "RoundTripReport": "verification",
    "equidistribution_check": "verification",
    "hull_dobell_check": "verification",
    "orbit_period": "verification",
    "paper_reproduction": "verification",
    "roundtrip_sample": "verification",
    "roundtrip_sweep": "verification",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOMES.keys())
