"""Exact rational consonance measures and tuning generation.

Sounds are finite sets of rational partial frequencies. Two consonance
measures (affinity and harmonicity) score how two such sets fit together,
and three tuning generators turn those scores into interval tables for any
spectrum, harmonic or not. A Sethares-style roughness module provides the
floating-point comparison curves; everything else is exact.

The roughness names (``dissonance_curve`` and its kin) are loaded on first
use, so that importing the package does not import numpy.
"""

__version__ = "0.1.0"

from .consonance import (
    ConsonanceScore,
    affinity,
    harmonic_superset,
    harmonicity,
    thomae_classical,
    thomae_modified,
    total_consonance,
)
from .core import (
    FrequencySet,
    ParseError,
    Ratio,
    cents,
    format_ratio,
    format_set,
    gcd_set,
    harmonic_set,
    parse_ratio,
    rational_gcd,
    rational_lcm,
    to_ratio,
    total_period,
    transpose,
)
from .document import TuningDocument, export_scl
from .figures import emit_figure_data, supported_figures
from .notation import canonical_set_expression, parse_set_expression
from .notes import NoteName, grid_frequency, note_name, note_set
from .tuning import (
    TuningEntry,
    TuningTable,
    affinitive_intervals,
    affinitive_tuning,
    enumerate_rationals,
    fold_to_octave,
    harmonic_intervals,
    harmonic_tuning,
    octave_reduce,
    superset_tuning,
)

__all__ = [
    "__version__",
    "Ratio",
    "ParseError",
    "parse_ratio",
    "format_ratio",
    "to_ratio",
    "rational_gcd",
    "rational_lcm",
    "cents",
    "FrequencySet",
    "gcd_set",
    "total_period",
    "transpose",
    "harmonic_set",
    "format_set",
    "NoteName",
    "note_name",
    "grid_frequency",
    "note_set",
    "ConsonanceScore",
    "affinity",
    "harmonic_superset",
    "harmonicity",
    "total_consonance",
    "thomae_modified",
    "thomae_classical",
    "TuningEntry",
    "TuningTable",
    "affinitive_intervals",
    "affinitive_tuning",
    "enumerate_rationals",
    "harmonic_intervals",
    "harmonic_tuning",
    "superset_tuning",
    "fold_to_octave",
    "octave_reduce",
    "DissonanceParams",
    "DEFAULT_PARAMS",
    "CurvePoint",
    "pair_roughness",
    "spectrum_roughness",
    "dissonance_curve",
    "TuningDocument",
    "export_scl",
    "parse_set_expression",
    "canonical_set_expression",
    "emit_figure_data",
    "supported_figures",
]

# the numpy-backed names, served by ``__getattr__`` on first use
_DISSONANCE_NAMES = frozenset(
    {
        "CurvePoint",
        "DEFAULT_PARAMS",
        "DissonanceParams",
        "dissonance_curve",
        "pair_roughness",
        "spectrum_roughness",
    }
)


def __getattr__(name: str):
    if name in _DISSONANCE_NAMES:
        from . import dissonance

        return getattr(dissonance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DISSONANCE_NAMES)
