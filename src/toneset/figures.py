"""Reference dataset emission for the documented tuning scenarios.

A figure id is its builder's name without the leading "_": ``_fig5_1``
builds fig5_1, as one CSV block per panel (plus a sidecar block for a
curve overlay). CSVs carry exact interval ratios and the float columns to
re-plot a scenario; plotting is out of scope. Curve builders import the
numpy-backed roughness module when they run, so no other figure loads
numpy. There is one distribution, ``_distribution``, the harmonic tuning
of a unit singleton at h = 0; fig5_5, fig5_6 and fig8_1 format its integer
rows through ``document._formatted``, as every table figure does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Optional

from .core import FrequencySet, _excerpt, harmonic_set
from .document import _filled, _float_cells, _formatted, curve_csv, table_csv
from .tuning import TuningTable, affinitive_tuning, harmonic_tuning, octave_reduce, superset_tuning

__all__ = ["emit_figure_data", "supported_figures"]

C4_FUNDAMENTAL = Fraction(262)
FIFTH = Fraction(3, 2)
MAJOR_THIRD = Fraction(5, 4)
HARMONIC_SEVENTH = Fraction(7, 4)

# Highly inharmonic six-partial spectrum, and the same spectrum with one
# fewer decimal digit of partial precision.
INHARMONIC_RATIOS = tuple(Fraction(r) for r in ("1", "2.76", "5.41", "8.94", "13.35", "18.65"))
INHARMONIC_ROUNDED_RATIOS = tuple(Fraction(r) for r in ("1", "2.8", "5.4", "8.8", "13.4", "18.6"))


def _c4(partials: int = 6) -> FrequencySet:
    return harmonic_set(C4_FUNDAMENTAL, partials)


def _inharmonic(rounded: bool = False) -> FrequencySet:
    ratios = INHARMONIC_ROUNDED_RATIOS if rounded else INHARMONIC_RATIOS
    return FrequencySet(C4_FUNDAMENTAL * r for r in ratios)


Params = Mapping[str, object]


def _steps(params: Params) -> int:
    return int(params.get("steps", 2000))


def _max_den(params: Params, default: int = 60) -> int:
    return int(params.get("max_den", default))


def _fig4_2(params: Params) -> dict[str, str]:
    from .dissonance import DissonanceParams, dissonance_curve

    inh = _inharmonic()
    curve = dissonance_curve(inh, inh, 1.0, 2.3, _steps(params), DissonanceParams())
    return {"fig4_2": curve_csv(curve)}


def _fig4_3(params: Params) -> dict[str, str]:
    from .dissonance import DissonanceParams, dissonance_curve

    c4 = _c4()
    parts = {}
    for chi in (0.24, 0.03, 0.003):
        key = f"fig4_3_chi_{str(chi).replace('.', '_')}"
        parts[key] = curve_csv(
            dissonance_curve(c4, c4, 1.0, 2.1, _steps(params), DissonanceParams(chi_star=chi))
        )
    return parts


def _fig5_1(params: Params) -> dict[str, str]:
    from .dissonance import DissonanceParams, dissonance_curve

    c4 = _c4()
    table = affinitive_tuning(c4, c4)
    return {
        "fig5_1": table_csv(table),
        "fig5_1_dissonance": curve_csv(
            dissonance_curve(c4, c4, float(Fraction(1, 6)), 6.0, _steps(params), DissonanceParams())
        ),
    }


def _fig5_2(params: Params) -> dict[str, str]:
    c4 = _c4()
    return {"fig5_2": table_csv(octave_reduce(affinitive_tuning(c4, c4), c4, c4))}


def _fig5_3(params: Params) -> dict[str, str]:
    c4 = _c4()
    contexts = {
        "fig5_3a": c4,
        "fig5_3b": c4 | c4.transpose(FIFTH),
        "fig5_3c": c4 | c4.transpose(MAJOR_THIRD) | c4.transpose(FIFTH),
    }
    return {key: table_csv(affinitive_tuning(ctx, c4)) for key, ctx in contexts.items()}


def _fig5_4(params: Params) -> dict[str, str]:
    inh = _inharmonic()
    return {"fig5_4": table_csv(affinitive_tuning(inh, inh))}


def _distribution(params: Params) -> TuningTable:
    """The one distribution behind fig5_5, fig5_6 and fig8_1: the harmonic
    tuning of a unit singleton at h = 0, every reduced t in [1/8, 8] with
    denominator up to max_den, its row n/d in lowest terms."""
    single = FrequencySet([C4_FUNDAMENTAL])
    return harmonic_tuning(single, single, 0, Fraction(1, 8), 8, _max_den(params))


def _fig5_5(params: Params) -> dict[str, str]:
    return {"fig5_5": table_csv(_distribution(params))}


def _fig5_6(params: Params) -> dict[str, str]:
    # thomae_modified(n/d) is 1/max(n, d); an int over an int is correctly rounded
    rows = ((n, d, (terms, max(n, d))) for n, d, terms in _distribution(params)._rows)
    values = _formatted(rows, None, lambda key: f"{_float_cells(key[0])[2]},{1 / key[1]!r}")
    return {"fig5_6": "interval_ratio,cents,total,thomae_modified\n" + _filled("%d/%d,%.4f,%s\n", *values)}


def _fig5_7(params: Params) -> dict[str, str]:
    counts = params.get("partials", (1, 6, 256))
    parts = {}
    for k in counts:  # type: ignore[union-attr]
        spectrum = _c4(int(k))
        table = harmonic_tuning(spectrum, spectrum, 0, Fraction(1, 8), Fraction(8), _max_den(params))
        parts[f"fig5_7_k{k}"] = table_csv(table)
    return parts


def _fig5_8(params: Params) -> dict[str, str]:
    c4 = _c4()
    g4 = c4.transpose(FIFTH)
    e4 = c4.transpose(MAJOR_THIRD)
    bb4 = c4.transpose(HARMONIC_SEVENTH)
    contexts = {
        "fig5_8a": c4,
        "fig5_8b": c4 | g4,
        "fig5_8c": c4 | e4 | g4,
        "fig5_8d": c4 | e4 | g4 | bb4,
    }
    bounds = (Fraction(1, 4), Fraction(4), _max_den(params))
    return {
        key: table_csv(harmonic_tuning(ctx, c4, 0, *bounds))
        for key, ctx in contexts.items()
    }


def _fig5_9(params: Params) -> dict[str, str]:
    partials = params.get("partials", 60)
    if isinstance(partials, (list, tuple)):  # the CLI passes every --partials value
        if len(partials) != 1:
            raise ValueError(f"fig5_9 takes one partial count, got {len(partials)}")
        (partials,) = partials
    rich = _c4(int(partials))  # type: ignore[arg-type]
    contexts = {
        "fig5_9a": rich | rich.transpose(FIFTH),
        "fig5_9b": rich | rich.transpose(MAJOR_THIRD) | rich.transpose(FIFTH),
    }
    bounds = (Fraction(1, 4), Fraction(4), _max_den(params))
    return {
        key: table_csv(harmonic_tuning(ctx, rich, 0, *bounds))
        for key, ctx in contexts.items()
    }


def _fig5_10(params: Params) -> dict[str, str]:
    parts = {}
    for key, rounded in (("fig5_10_rounded", True), ("fig5_10_original", False)):
        spectrum = _inharmonic(rounded)
        table = harmonic_tuning(spectrum, spectrum, 0, Fraction(1, 4), Fraction(4), _max_den(params))
        parts[key] = table_csv(table)
    return parts


def _fig5_11(params: Params) -> dict[str, str]:
    sparse = FrequencySet(C4_FUNDAMENTAL * n for n in (1, 2, 4))
    bounds = (Fraction(1, 4), Fraction(4), _max_den(params))
    return {
        "fig5_11a": table_csv(affinitive_tuning(sparse, sparse)),
        "fig5_11b": table_csv(harmonic_tuning(sparse, sparse, 0, *bounds)),
        "fig5_11c": table_csv(harmonic_tuning(sparse, sparse, Fraction(23, 100), *bounds)),
    }


def _fig5_12(params: Params) -> dict[str, str]:
    single = FrequencySet([C4_FUNDAMENTAL])
    return {
        "fig5_12a": table_csv(affinitive_tuning(single, single)),
        "fig5_12b": table_csv(superset_tuning(single, single, 2, 2)),
        "fig5_12c": table_csv(superset_tuning(single, single, 4, 4)),
    }


def _fig5_13(params: Params) -> dict[str, str]:
    c4 = _c4()
    g4 = c4.transpose(FIFTH)
    e4 = c4.transpose(MAJOR_THIRD)
    contexts = {
        "fig5_13a": c4,
        "fig5_13b": c4 | g4,
        "fig5_13c": c4 | e4 | g4,
    }
    return {
        key: table_csv(superset_tuning(ctx, c4, 0, 0)) for key, ctx in contexts.items()
    }


def _fig5_14(params: Params) -> dict[str, str]:
    spectrum = _inharmonic(rounded=True)
    return {
        "fig5_14a": table_csv(
            harmonic_tuning(spectrum, spectrum, 0, Fraction(1, 4), 4, _max_den(params, 30))
        ),
        "fig5_14b": table_csv(superset_tuning(spectrum, spectrum, 0, 0)),
    }


def _fig8_1(params: Params) -> dict[str, str]:
    # thomae_classical(n/d) is 1/d; the row's score is not shown
    values = _formatted(((n, d, d) for n, d, _ in _distribution(params)._rows), None, lambda d: 1 / d)
    return {"fig8_1": "interval_ratio,cents,thomae\n" + _filled("%d/%d,%.4f,%r\n", *values)}


_BUILDERS: dict[str, Callable[[Params], dict[str, str]]] = {
    name[1:]: builder for name, builder in list(globals().items()) if name.startswith("_fig")
}


def supported_figures() -> list[str]:
    return sorted(_BUILDERS)


def emit_figure_data(figure_id: str, params: Optional[Params] = None) -> dict[str, str]:
    """CSV blocks for a figure id; multi-panel scenarios emit one per panel."""
    try:
        builder = _BUILDERS[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure id {_excerpt(figure_id)!r}; supported: {', '.join(supported_figures())}"
        ) from None
    return builder(params or {})
