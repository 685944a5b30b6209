"""Small shared helpers: reproducible RNG streams and float guards."""
from __future__ import annotations

import math
import random

from .errors import ToleranceError

# Negative results within this many machine epsilons of zero are rounding
# noise and get clamped; anything more negative is a hard error.
NEGATIVE_CLAMP_EPS = 10


def derive_seed(*keys: int | str) -> int:
    """Map a structured key to a 64-bit seed, stable across runs and platforms.

    sha256 of the repr-joined keys. Used for per-path and per-prime child
    streams so that materialization order never affects results. hashlib
    is imported here, so commands that never sample do not load it.
    """
    import hashlib

    material = "|".join(map(repr, keys)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def derive_rng(*keys: int | str) -> random.Random:
    """Child RNG on a deterministic stream derived from the key tuple."""
    return random.Random(derive_seed(*keys))


def require_finite(**fields: float) -> None:
    """Raise ValueError naming the first field that is infinite or nan."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_positive(**fields: float) -> None:
    """Raise ValueError naming the first field that is not a positive finite
    number (nan included); used for tolerances."""
    for name, value in fields.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a positive finite number")


def clamp_nonnegative(value: float, scale: float) -> float:
    """Clamp tiny negative rounding residue to 0.0; reject real negativity.

    scale is the natural magnitude of the computation (e.g. largest term of
    a series); tolerated undershoot is NEGATIVE_CLAMP_EPS * eps * scale.
    """
    if value >= 0.0:
        return value
    slack = NEGATIVE_CLAMP_EPS * 2.220446049250313e-16 * max(scale, 1.0)
    if value >= -slack:
        return 0.0
    raise ToleranceError(
        f"negative value {value!r} exceeds rounding slack {slack!r}"
    )
