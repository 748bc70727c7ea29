"""Exact rational consonance measures and tuning generation.

Sounds are finite sets of rational partial frequencies. Affinity and
harmonicity score how two such sets fit together, and three tuning
generators turn those scores into interval tables for any spectrum,
harmonic or not. Only the Sethares-style roughness curves use floats.

The package re-exports each module's ``__all__``. The roughness names
(``dissonance_curve`` and its kin) load on first use, so that importing
the package does not import numpy.
"""

__version__ = "0.1.0"

from . import consonance, core, document, figures, notation, notes, tuning
from .consonance import *
from .core import *
from .document import *
from .figures import *
from .notation import *
from .notes import *
from .tuning import *

# the numpy-backed names, served by ``__getattr__`` on first use
_DISSONANCE_NAMES = frozenset(
    {"CurvePoint", "DEFAULT_PARAMS", "DissonanceParams", "dissonance_curve", "pair_roughness", "spectrum_roughness"}
)

__all__ = [
    "__version__",
    *(name for module in (core, notes, consonance, tuning, document, notation, figures) for name in module.__all__),
    *sorted(_DISSONANCE_NAMES),
]


def __getattr__(name: str):
    if name in _DISSONANCE_NAMES:
        from . import dissonance

        return getattr(dissonance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DISSONANCE_NAMES)
