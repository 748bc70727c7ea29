"""Byte-identity pins for figure datasets, generator tables, tuning documents
and text tables.

Every exact output the package writes is pinned by SHA-256, so a change to
the presentation layer (entry types, CSV and JSON writers, the float display
rule) that alters a single byte fails here. A change that alters one of
these outputs on purpose re-pins it and says why. Dissonance curves depend
on numpy's ``exp`` in their last digits, so instead of a hash the ``curve``
command is required to print exactly the matching figure part.
"""

import hashlib
import io
from fractions import Fraction

import pytest

from toneset import (
    FrequencySet,
    emit_figure_data,
    harmonic_tuning,
    superset_tuning,
    supported_figures,
)
from toneset.cli import main
from toneset.document import table_csv

FIGURE_PARAMS = {"max_den": 16, "steps": 300}
CURVE_FIGURES = {"fig4_2", "fig4_3"}

FIGURE_PARTS = {
    "fig5_1": "12c00d6a2f57506b7ca7e32c0fb10949346fcc3b3281067f9117d445c8c1de85",
    "fig5_10_rounded": "d8a70f5e44f821afbad1ad967ea76866e090cb60c574dfbc564731efdb97eba0",
    "fig5_10_original": "0355ca9a4fa6fcd5b57928b3a5f7929f333f27c908e0e058774fbabb3a6e5389",
    "fig5_11a": "ec8d8abd0ebbb8e202d496f34dee4b222d7f13f84227a7ec9ebb0410c1e34916",
    "fig5_11b": "d052d2a18aed664aee04d24d0cea570d2b3fd45bc3ca02211350563e6d53d778",
    "fig5_11c": "eb20fcc0557e308de0e9a848274e538ab32c7ec3ef1080eaa782e6427d44c271",
    "fig5_12a": "5674288d5cc06b4fda6216a9857d324e5cdc871e651c0ace4b7b071476b28cac",
    "fig5_12b": "166d739bef7c8c0572e627d3f13ef35ae7ef5fbaa4cc4eefc9188e800d28e1fa",
    "fig5_12c": "2d7b4463f6cfca4d2c74a3eec3c5c91e07838a58c1bd99ea65f69b876740bcdb",
    "fig5_13a": "12c00d6a2f57506b7ca7e32c0fb10949346fcc3b3281067f9117d445c8c1de85",
    "fig5_13b": "5ff0f0cce76dc52c1849c3b6ee78e2cc542a0582100f0c0e0d4a59afb31a7b6a",
    "fig5_13c": "9991d9ff717d37418264860b46933d8f9196f223cfa8a7faf638e8204bef5411",
    "fig5_14a": "d8a70f5e44f821afbad1ad967ea76866e090cb60c574dfbc564731efdb97eba0",
    "fig5_14b": "a831850a4b76fa8c44d6926975f3a7948760a344bd849608eb41b2c8d9dae80b",
    "fig5_2": "2d8dd75e6e929dfa403617b256442305422cb59d45ca567cff479706821b9f58",
    "fig5_3a": "12c00d6a2f57506b7ca7e32c0fb10949346fcc3b3281067f9117d445c8c1de85",
    "fig5_3b": "94b5f8721644d7d6e24f5982c4f6ef0bb51472a320762016b399e1c8b63d5564",
    "fig5_3c": "cba46a98a2ba294cbdf89c96cb9077b56eaf4cee980f94c6978d83d454fc218b",
    "fig5_4": "de7a1405b66debf1d3a680a32c5d831da6c734663c049f5a3a07d03b9f4994da",
    "fig5_5": "3aca95e257522b367dc82f692bc4df237426fb0d8e1bdcbe548554f941f15490",
    "fig5_6": "f66b20cc5465289a12018764bb4d5817e7979d9d399f661f6c858e1680124fb4",
    "fig5_7_k1": "3aca95e257522b367dc82f692bc4df237426fb0d8e1bdcbe548554f941f15490",
    "fig5_7_k6": "1512bca792d6d03a2733a43daf0d480081adf638477c8c9562622406102bd13f",
    "fig5_7_k256": "178df1b04edc45c1444ab552e6874924df2fdd3175072c86555ee8e94b072063",
    "fig5_8a": "d22dc48ce4f67f15b952a442b6885d57664b0f9757268c9990691e15deb82c55",
    "fig5_8b": "2f995c614e84c9be8f43b11852dc3e05d7cc6b82d68df63399510a76a553d596",
    "fig5_8c": "a94f7ee0a4a246091804264f979dc44adf135550d1d258c6b9d159da11690880",
    "fig5_8d": "0c2da8ff915d34f62994bc6fccfb75426d95950e0bdd85a48f2f99cff7e29189",
    "fig5_9a": "5d39ace8fa419cd07a8ae21bd5a1c57e89508a0081698559dcbf03522ee40119",
    "fig5_9b": "f81151bc1b10794e194da50368b3427f3079b2a164b07542ce729945baf9eb49",
    "fig8_1": "75f7514ad281e3dc06ca06a17d0d48fa6f434a7874eae7fc8fdc63f4cf147a76",
}

# the one distribution, the unit singleton's harmonic tuning at h = 0 (fig5_5,
# fig5_6 and fig8_1), at the default max_den 60 and at 7
DISTRIBUTION_PARTS = {
    60: {
        "fig5_5": "b12b1b88486497e9f17dcffeb6b8c1db986976c27b8cd71c1901b2470c940543",
        "fig5_6": "9e606370fe57027029632f5d7a31ec1299ec40f5a7eb384b7b28f70f338425bb",
        "fig8_1": "256214634ed38734b0691db2356e05803def455da790424a6d0a4d3643a50059",
    },
    7: {
        "fig5_5": "7779a6c4d5b3203a13b3f3834b36886ce78d38b0713dd2e617733229dd727301",
        "fig5_6": "fdf9878060c2536cce3c717c3b96adece1f72d74da82c6ea50fba35fda2bdc5b",
        "fig8_1": "a8f3e97a26aa2507eae6f89e1b3e2b1e3b147138f7b7b842d13ee4fefba2786e",
    },
}

# the six-partial inharmonic spectrum of fig4_2 and fig5_4, explicitly
INHARMONIC = "262,723.12,1417.42,2342.28,3497.7,4886.3"

DOCUMENTS = {
    ("affinitive", "262*N6", "262*N6", "--notes"):
        "81cc61b888e2df279bd66fa9bf812932ec9fc829edb4888519f132d546e7f6ac",
    ("harmonic", "262*N6", "262*N6", "--h", "1/10", "--max-den", "16"):
        "826ff949027b273c3b0c61d8a55d5820bf7a67282f3200ad758870e7c843f00e",
    ("superset", "262", "262"):
        "938495b91fce41f219bce6ce35e1aee6cbd8931ba67b9a559f40dde9cdbac180",
    ("thomae", "--max-den", "12"):
        "8c9460626d14915e78192932f09aac72f7c338f0c265fa4f2c7d2b52e75180ff",
    # harmonicity floats below 0.0005, kept unrounded
    ("affinitive", INHARMONIC, INHARMONIC):
        "828285fce81cad8813109f9539164c947025cbb79f0fc959832c9720219fa29a",
    ("affinitive", "262*N6", "262*N6", "--notes", "--format", "text"):
        "d71476b98c3c382d635ca240b1c82700b3d38233c181829a4e50e340603724c2",
    ("harmonic", "262*N6", "262*N6", "--h", "1/10", "--max-den", "16", "--format", "text",
     "--order", "consonance"):
        "c47f37fde0166409bf29b7a0815db2570a23b494e844e710e9753220bd575e81",
    ("affinitive", INHARMONIC, INHARMONIC, "--format", "text"):
        "37e80b9a56bd6d5f4567243cd13d0cf8366eddb3f56cae797a30313ba4af9fcd",
    # totals 1/max(p, q), each shared by several intervals, kept in interval order
    ("thomae", "--max-den", "12", "--format", "text", "--order", "consonance"):
        "22148df66dd34e0ad4f5d45106d29fa7733c5370ecc6ebf1134d898e177b8543",
}

# reduce-octave of the ("affinitive", "262*N6", "262*N6", "--notes") document
REDUCED_DOCUMENT = "f03d544efb7889da05ddc65414ed03942a16b230cbaf2356957b1fbedd71d0ac"

# the benchmark's session shape: a union of a harmonic term, a decimal list
# and a note term with an "@" reference, against a note term and decimals
SESSION_F = "131*N3+65.5,196.5+G3_3@196.5"
SESSION_G = "C3_3@131+327.5,458.5"
SESSION_DOCUMENT = "94abbda0b63f0021b30044cbef48b2d1266088785579d20c90f1aec1df0d7ce5"
SESSION_OUTPUTS = {
    ("reduce-octave",): "66b28648a5b0f23c8bd9c76ae2f533a594dcfa4bb0afd3b185f789d6e58c9bed",
    ("reduce-octave", "export-scl"): "cf70d3b0418dd1585a22e21e43fe33ad28a7b5a28b507753c04ed0be839a2fa0",
    ("reduce-octave", "export-scl --cents"): "452503d759ad9509144161676a102d15b90cdbd165dad85b21a97e23d591fc18",
}
SESSION_TEXT_TABLE = "ab45b489bcae8d82219c19ad7d355db997133dd8a3755879f3adf8037b604e5c"


# one-decimal inharmonic spectra 262*{1, 2.7, 5.3} and 393*{1, 1.9, 4.1}:
# supersets of 53 and 41 partials over fundamentals in the ratio 2/3
ONE_DECIMAL = FrequencySet(["262", "707.4", "1388.6"])
ONE_DECIMAL_B = FrequencySet(["393", "746.7", "1611.3"])
SPARSE, SPARSE_B = FrequencySet(["262", "786", "1310"]), FrequencySet(["393", "1179"])

# table_csv of generator calls beyond what the figures and documents reach:
# extended supersets of inharmonic sets, and thresholds with off-unit bounds
GENERATOR_TABLES = {
    "superset n=3 m=2": (
        lambda: superset_tuning(ONE_DECIMAL, ONE_DECIMAL_B, 3, 2),
        "50ea367e7916d7ceba0b3bf6ec5a1aba0527f540589d03f9f0249d41eddb376d",
    ),
    "harmonic one-decimal h=1/100": (
        lambda: harmonic_tuning(
            ONE_DECIMAL, ONE_DECIMAL_B, Fraction(1, 100), Fraction(2, 3), Fraction(7, 5), 40
        ),
        "0f17c7c6228ddc659055001f15a90203ce295cc406855fff960defdcda13cf31",
    ),
    "harmonic sparse h=1/10": (
        lambda: harmonic_tuning(
            SPARSE, SPARSE_B, Fraction(1, 10), Fraction(3, 5), Fraction(5, 2), 24
        ),
        "2db62f0c7bc262bca7e7ea7f068a7666eb3a1f7658e20469c3786b543075020b",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


def test_every_table_part_of_every_figure_is_pinned():
    parts = {}
    for figure_id in supported_figures():
        if figure_id not in CURVE_FIGURES:
            parts.update(emit_figure_data(figure_id, FIGURE_PARAMS))
    parts.pop("fig5_1_dissonance")
    assert {name: sha256(text) for name, text in parts.items()} == FIGURE_PARTS


@pytest.mark.parametrize("max_den", list(DISTRIBUTION_PARTS))
def test_distribution_figures_are_pinned(max_den):
    params = {} if max_den == 60 else {"max_den": max_den}
    parts = {name: emit_figure_data(name, params)[name] for name in DISTRIBUTION_PARTS[max_den]}
    assert {name: sha256(text) for name, text in parts.items()} == DISTRIBUTION_PARTS[max_den]


@pytest.mark.parametrize("name", list(GENERATOR_TABLES))
def test_generator_table_bytes_are_pinned(name):
    generate, pin = GENERATOR_TABLES[name]
    assert sha256(table_csv(generate().entries)) == pin


@pytest.mark.parametrize("argv", list(DOCUMENTS), ids=" ".join)
def test_document_bytes_are_pinned(argv, capsys):
    assert sha256(run(argv, capsys)) == DOCUMENTS[argv]


def test_reduced_document_bytes_are_pinned(capsys, monkeypatch):
    document = run(["affinitive", "262*N6", "262*N6", "--notes"], capsys)
    reduced = run(["reduce-octave"], capsys, monkeypatch, stdin=document)
    assert sha256(reduced) == REDUCED_DOCUMENT


def test_session_documents_are_pinned(capsys, monkeypatch):
    text = run(["affinitive", SESSION_F, SESSION_G, "--notes"], capsys)
    assert sha256(text) == SESSION_DOCUMENT
    outputs = {}
    for steps in SESSION_OUTPUTS:
        out = text
        for step in steps:
            out = run(step.split(), capsys, monkeypatch, stdin=out)
        outputs[steps] = sha256(out)
    assert outputs == SESSION_OUTPUTS
    table = run(["superset", SESSION_F, SESSION_G, "--format", "text"], capsys)
    assert sha256(table) == SESSION_TEXT_TABLE


@pytest.mark.parametrize(
    "figure_id, part, argv",
    [
        ("fig4_2", "fig4_2", [INHARMONIC, INHARMONIC, "--lo", "1", "--hi", "2.3"]),
        ("fig4_3", "fig4_3_chi_0_24", ["262*N6", "262*N6", "--hi", "2.1", "--chi-star", "0.24"]),
        ("fig4_3", "fig4_3_chi_0_03", ["262*N6", "262*N6", "--hi", "2.1", "--chi-star", "0.03"]),
        ("fig4_3", "fig4_3_chi_0_003", ["262*N6", "262*N6", "--hi", "2.1", "--chi-star", "0.003"]),
        ("fig5_1", "fig5_1_dissonance",
         ["262*N6", "262*N6", "--lo", repr(float(Fraction(1, 6))), "--hi", "6"]),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_curve_command_prints_the_figure_curve(figure_id, part, argv, capsys):
    out = run(["curve", *argv, "--steps", "300"], capsys)
    assert out == emit_figure_data(figure_id, FIGURE_PARAMS)[part]
