"""Physical constants and the sheet-charge <-> delta-strength dictionary.

The five constants are tied together by a single consistency requirement,

    V0**2 * eps0 * a0**3 == hbar**2 / mass,

which is exactly what makes the exponential map between charged-sheet
electrostatics and one-dimensional bound states work out.  A
:class:`UnitSystem` refuses to exist unless the requirement holds, so every
downstream computation can rely on it.  All public functions in the package
take the unit system as an explicit argument; there is no global state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

CONSISTENCY_RTOL = 1e-12

_FIELDS = ("hbar", "mass", "eps0", "V0", "a0")


@dataclass(frozen=True)
class UnitSystem:
    """Immutable bundle of the five physical constants.

    Parameters
    ----------
    hbar : float
        Reduced Planck constant (action).
    mass : float
        Particle mass on the quantum side.
    eps0 : float
        Vacuum permittivity on the electrostatic side.
    V0 : float
        Electric-potential scale of the exponential map.
    a0 : float
        Length scale closing the dimensional bookkeeping.

    Raises
    ------
    ValueError
        If any constant is non-positive or non-finite, if either side of
        ``V0**2 * eps0 * a0**3 == hbar**2 / mass`` is not a finite normal
        float, if the tuple violates that requirement beyond a relative
        tolerance of 1e-12, or if the sheet-to-delta scale ``V0*a0**3`` is
        not a finite normal float.
    """

    hbar: float
    mass: float
    eps0: float
    V0: float
    a0: float

    def __post_init__(self) -> None:
        for name in _FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)
        try:
            lhs = self.V0**2 * self.eps0 * self.a0**3
            rhs = self.hbar**2 / self.mass
        except OverflowError as exc:
            raise ValueError("V0^2*eps0*a0^3 or hbar^2/mass overflows the float range") from exc
        if not all(sys.float_info.min <= side < math.inf for side in (lhs, rhs)):
            # an underflowed pair would pass the test below as 0.0 == 0.0
            raise ValueError(f"V0^2*eps0*a0^3 = {lhs!r} and hbar^2/mass = {rhs!r} must both be finite normal floats")
        if abs(lhs - rhs) > CONSISTENCY_RTOL * max(abs(lhs), abs(rhs)):
            raise ValueError(
                "inconsistent constants: V0^2*eps0*a0^3 = "
                f"{lhs!r} but hbar^2/mass = {rhs!r}"
            )
        # alpha_from_sigma multiplies by this scale and sigma_from_alpha divides by it
        scale = self.V0 * self.a0**3
        if not sys.float_info.min <= scale < math.inf:
            raise ValueError(f"the sheet-to-delta scale V0*a0^3 = {scale!r} must be a finite normal float")


def atomic_units() -> UnitSystem:
    """Return the default system with all five constants equal to one.

    V0 = 1 is the unique value satisfying the consistency requirement once
    hbar = mass = eps0 = a0 = 1.
    """
    return UnitSystem(hbar=1.0, mass=1.0, eps0=1.0, V0=1.0, a0=1.0)


def alpha_from_sigma(sigma: float, units: UnitSystem) -> float:
    """Delta-potential strength dual to a sheet of surface density ``sigma``.

    The sign carries through: a positive sheet maps to a positive strength
    (whose delta term enters the quantum potential with a minus sign, i.e.
    attractively).  The a0^3 factor keeps the strength consistent with the
    curvature and cusp relations in every valid unit system; in atomic
    units it reduces to sigma*V0/2.
    """
    return 0.5 * sigma * units.V0 * units.a0**3


def sigma_from_alpha(alpha: float, units: UnitSystem) -> float:
    """Inverse of :func:`alpha_from_sigma`."""
    return 2.0 * alpha / (units.V0 * units.a0**3)
