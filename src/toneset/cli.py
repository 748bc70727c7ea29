"""Command-line front end.

Subcommands cover the consonance report, the three tuning generators, the
bare-interval consonance distribution, dissonance sweeps, octave reduction
and Scala export. Tables travel between subcommands as JSON tuning
documents (stdin/stdout by default).

Exit codes: 0 success, 2 for notation/usage parse failures, 3 for domain
errors (empty sets, invalid ranges, unknown figure ids, ...).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .consonance import total_consonance
from .core import FrequencySet, ParseError, _excerpt, format_ratio, parse_ratio
from .document import TuningDocument, curve_csv, export_scl
from .document import _SCORE_LABELS, _render_text, _score_fields, _score_text
from .figures import emit_figure_data
from .notation import canonical_set_expression, parse_set_expression
from .tuning import (
    TuningTable,
    _terms,
    affinitive_tuning,
    harmonic_tuning,
    octave_reduce,
    superset_tuning,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3

def _typed(convert: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse ``type=`` for ``convert`` whose refusal quotes at most 32
    characters of the value: ``parse_ratio``'s own message, or argparse's
    "invalid int value: '...'" wording for ``int`` and ``float``."""

    def parse(text: str) -> object:
        try:
            return convert(text)
        except ValueError as exc:
            message = str(exc) if isinstance(exc, ParseError) else (
                f"invalid {convert.__name__} value: {_excerpt(text)!r}"
            )
            raise argparse.ArgumentTypeError(message) from None

    return parse


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="")


def _read_document(path: Optional[str]) -> TuningDocument:
    text = sys.stdin.read() if path is None else Path(path).read_text()
    return TuningDocument.from_json(text)


def _lowest(freq_set: FrequencySet) -> Fraction:
    """The lowest partial a*N[0] of a non-empty set, the root of its note names."""
    a, multipliers, _ = freq_set._lattice_view()
    return a * multipliers[0]


def _emit_document(
    table: TuningTable,
    context: FrequencySet,
    complement: FrequencySet,
    parameters: dict,
    args: argparse.Namespace,
    label: Optional[str] = None,
) -> int:
    root = _lowest(context) if args.notes else None
    doc = TuningDocument.from_table(
        table,
        context_expr=canonical_set_expression(context),
        complement_expr=canonical_set_expression(complement),
        parameters=parameters,
        annotate_root=root,
    )
    if label is not None:
        doc.metadata["generator"] = label
    if args.format == "text":
        _emit(_render_text(doc, args.order), args.out)
    else:
        _emit(doc.to_json(), args.out)
    return EXIT_OK


def cmd_consonance(args: argparse.Namespace) -> int:
    contextual = parse_set_expression(args.context)
    complementary = parse_set_expression(args.complement)
    _, texts, shown = _score_fields(_terms(total_consonance(contextual, complementary)))
    # every line is formatted before any is written, so a failure prints none
    sys.stdout.write("".join(
        f"{label:<11} = {text} ({_score_text(v)})\n"
        for label, text, v in zip(_SCORE_LABELS, texts, shown)
    ))
    return EXIT_OK


def cmd_affinitive(args: argparse.Namespace) -> int:
    contextual = parse_set_expression(args.context)
    complementary = parse_set_expression(args.complement)
    table = affinitive_tuning(contextual, complementary)
    return _emit_document(table, contextual, complementary, {}, args)


def cmd_harmonic(args: argparse.Namespace) -> int:
    contextual = parse_set_expression(args.context)
    complementary = parse_set_expression(args.complement)
    table = harmonic_tuning(contextual, complementary, args.h, args.lo, args.hi, args.max_den)
    parameters = {
        "h": format_ratio(args.h, True, "h"),
        "lo": format_ratio(args.lo, True, "lo"),
        "hi": format_ratio(args.hi, True, "hi"),
        "max_den": args.max_den,
    }
    return _emit_document(table, contextual, complementary, parameters, args)


def cmd_superset(args: argparse.Namespace) -> int:
    contextual = parse_set_expression(args.context)
    complementary = parse_set_expression(args.complement)
    # sparse sets get the extended superset by default; richer sets need none
    n = args.n if args.n is not None else (4 if len(contextual) == 1 else 0)
    m = args.m if args.m is not None else (4 if len(complementary) == 1 else 0)
    table = superset_tuning(contextual, complementary, n, m)
    return _emit_document(table, contextual, complementary, {"n": n, "m": m}, args)


def cmd_thomae(args: argparse.Namespace) -> int:
    # For a single-partial sound the total consonance of the bare interval
    # p/q is exactly 1/max(p, q), so the distribution is generated by the
    # harmonic tuning of a unit singleton with no threshold.
    single = FrequencySet([1])
    table = harmonic_tuning(single, single, 0, args.lo, args.hi, args.max_den)
    parameters = {
        "max_den": args.max_den,
        "lo": format_ratio(args.lo, True, "lo"),
        "hi": format_ratio(args.hi, True, "hi"),
    }
    return _emit_document(table, single, single, parameters, args, label="thomae")


def cmd_curve(args: argparse.Namespace) -> int:
    from .dissonance import DissonanceParams, dissonance_curve  # loads numpy

    contextual = parse_set_expression(args.context)
    complementary = parse_set_expression(args.complement)
    params = DissonanceParams(chi_star=args.chi_star)
    points = dissonance_curve(contextual, complementary, args.lo, args.hi, args.steps, params)
    _emit(curve_csv(points), args.out)
    return EXIT_OK


def cmd_reduce_octave(args: argparse.Namespace) -> int:
    doc = _read_document(args.infile)
    metadata = doc.metadata
    if "context" not in metadata or "complement" not in metadata:
        raise ValueError("document lacks context/complement sets; cannot rescore")
    contextual = parse_set_expression(metadata["context"])
    complementary = parse_set_expression(metadata["complement"])
    reduced = octave_reduce(doc.to_table(), contextual, complementary)
    parameters = dict(metadata.get("parameters", {}))
    parameters["octave_reduced"] = True
    root = _lowest(contextual) if doc._notes is not None else None
    out_doc = TuningDocument.from_table(
        reduced,
        context_expr=metadata["context"],
        complement_expr=metadata["complement"],
        parameters=parameters,
        annotate_root=root,
    )
    _emit(out_doc.to_json(), args.out)
    return EXIT_OK


def cmd_export_scl(args: argparse.Namespace) -> int:
    doc = _read_document(args.infile)
    _emit(export_scl(doc, name=args.name, cents_lines=args.cents), args.out)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    params = {}
    if args.max_den is not None:
        params["max_den"] = args.max_den
    if args.steps is not None:
        params["steps"] = args.steps
    if args.partials is not None:
        params["partials"] = args.partials
    parts = emit_figure_data(args.figure_id, params)
    if args.out_dir is not None:
        directory = Path(args.out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in parts.items():
            (directory / f"{name}.csv").write_text(text, newline="")
        return EXIT_OK
    chunks = []
    for name, text in parts.items():
        if len(parts) > 1:
            chunks.append(f"# part: {name}\n")
        chunks.append(text)
    sys.stdout.write("".join(chunks))
    return EXIT_OK


def _add_set_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("context", help="contextual set F (e.g. '262*N6', 'C4_6@262', '262,524+393')")
    parser.add_argument("complement", help="complementary set F' (same notation)")


def _add_document_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--notes", action="store_true", help="annotate entries with note names")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--order",
        choices=("interval", "consonance"),
        default="interval",
        help="row order for --format text (JSON documents are always interval-ascending)",
    )
    parser.add_argument("-o", "--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toneset",
        description="Exact consonance measures and tuning generation for frequency sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("consonance", help="affinity, harmonicity and total consonance of two sets")
    _add_set_arguments(p)
    p.set_defaults(func=cmd_consonance)

    p = sub.add_parser("affinitive", help="tuning from the pairwise-ratio intervals")
    _add_set_arguments(p)
    _add_document_arguments(p)
    p.set_defaults(func=cmd_affinitive)

    p = sub.add_parser("harmonic", help="tuning from harmonicity-thresholded rationals")
    _add_set_arguments(p)
    p.add_argument("--h", type=_typed(parse_ratio), required=True, help="harmonicity threshold in [0,1)")
    p.add_argument("--lo", type=_typed(parse_ratio), default=Fraction(1, 8))
    p.add_argument("--hi", type=_typed(parse_ratio), default=Fraction(8))
    p.add_argument("--max-den", type=_typed(int), default=60)
    _add_document_arguments(p)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("superset", help="tuning from harmonic-superset intervals")
    _add_set_arguments(p)
    p.add_argument("--n", type=_typed(int), default=None, help="extra superset partials for F (default: 4 if F is a singleton)")
    p.add_argument("--m", type=_typed(int), default=None, help="extra superset partials for F'")
    _add_document_arguments(p)
    p.set_defaults(func=cmd_superset)

    p = sub.add_parser("thomae", help="consonance distribution of bare intervals p/q")
    p.add_argument("--max-den", type=_typed(int), required=True)
    p.add_argument("--lo", type=_typed(parse_ratio), default=Fraction(1, 8))
    p.add_argument("--hi", type=_typed(parse_ratio), default=Fraction(8))
    _add_document_arguments(p)
    p.set_defaults(func=cmd_thomae)

    p = sub.add_parser("curve", help="dissonance-curve sweep as CSV")
    _add_set_arguments(p)
    p.add_argument("--chi-star", type=_typed(float), default=0.24)
    p.add_argument("--steps", type=_typed(int), default=2000)
    p.add_argument("--lo", type=_typed(float), default=1.0)
    p.add_argument("--hi", type=_typed(float), default=2.1)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("reduce-octave", help="fold a tuning document into [1,2) and rescore")
    p.add_argument("--in", dest="infile", help="input document (default: stdin)")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_reduce_octave)

    p = sub.add_parser("export-scl", help="convert a tuning document to a Scala .scl file")
    p.add_argument("--in", dest="infile", help="input document (default: stdin)")
    p.add_argument("--name", help="scale name for the header line")
    p.add_argument("--cents", action="store_true", help="write cents lines instead of ratios")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_export_scl)

    p = sub.add_parser("figure", help="emit the dataset behind a documented scenario")
    p.add_argument("figure_id")
    p.add_argument("--out-dir", help="write each CSV part to this directory")
    p.add_argument("--max-den", type=_typed(int), default=None)
    p.add_argument("--steps", type=_typed(int), default=None)
    p.add_argument("--partials", type=_typed(int), nargs="+", default=None)
    p.set_defaults(func=cmd_figure)

    return parser


# One parser serves every main() call in a process: parsing leaves no state
# in it, and argparse looks up sys.stdout, sys.stderr and COLUMNS when it
# writes a message, not when the parser is built.
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
