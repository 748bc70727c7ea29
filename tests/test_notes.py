from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from toneset import (
    FrequencySet,
    NoteName,
    ParseError,
    grid_frequency,
    note_name,
    note_set,
)
from toneset.notes import PITCH_CLASSES, _midi_in_span, _note_text

ALL_MIDI = range(12, 112)  # C0 .. D#8


def _name_for_midi(midi):
    return NoteName(PITCH_CLASSES[midi % 12], midi // 12 - 1)


class TestNoteName:
    def test_known_pitches(self):
        assert note_name(110) == NoteName("A", 2)
        assert note_name(550) == NoteName("C#", 5)
        assert note_name(440) == NoteName("A", 4)
        assert note_name(F(10**4000 + 1, 10**3998)) == NoteName("G", 2)  # about 100 Hz

    def test_every_grid_pitch_names_itself(self):
        for midi in ALL_MIDI:
            expected = _name_for_midi(midi)
            assert note_name(grid_frequency(expected)) == expected

    def test_constant_on_window_interior(self):
        # +-49.9 cents around the true (unrounded) grid pitch, as rationals
        for midi in (12, 45, 69, 81, 111):
            expected = _name_for_midi(midi)
            grid = 440.0 * 2.0 ** ((midi - 69) / 12.0)
            for offset_cents in (-49.9, -25.0, 10.0, 49.9):
                freq = F(str(round(grid * 2 ** (offset_cents / 1200), 6)))
                assert note_name(freq) == expected

    def test_out_of_range_names_span(self):
        for bad in (F(5), F(9000), F(10**4000), F(1, 10**4000)):
            with pytest.raises(ValueError, match="C0..D#8"):
                note_name(bad)

    @pytest.mark.parametrize("edge, inner", [(11.5, 12), (111.5, 111)], ids=["C0", "D#8"])
    def test_span_edges_are_decided_exactly(self, edge, inner):
        # a thousandth of a cent either side of the outer window edge
        grid = 440.0 * 2.0 ** ((edge - 69) / 12.0)
        step = 2 ** ((inner - edge) * 0.002 / 1200)
        assert note_name(F(grid * step)) == _name_for_midi(inner)
        with pytest.raises(ValueError, match="C0..D#8"):
            note_name(F(grid / step))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            note_name(F(0))


class TestNoteNameText:
    @pytest.mark.parametrize("text", ["C#5_3", "A2_4", "C4", "Bb3_12", "G-1"])
    def test_parse_then_render_is_identity(self, text):
        assert NoteName.parse(text).render() == text

    @given(
        st.sampled_from(PITCH_CLASSES + ("Db", "Eb", "Gb", "Ab", "Bb")),
        st.integers(min_value=-1, max_value=9),
        st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )
    def test_render_then_parse_round_trips(self, pc, octave, partials):
        note = NoteName(pc, octave, partials)
        assert NoteName.parse(note.render()) == note

    def test_flats_are_enharmonic_not_equal(self):
        flat, sharp = NoteName.parse("Db5"), NoteName.parse("C#5")
        assert flat != sharp
        assert flat.same_pitch(sharp)

    @pytest.mark.parametrize("bad", ["H4", "C", "C#_3", "5C", "C4_0", "C4_"])
    def test_bad_text_rejected(self, bad):
        with pytest.raises((ParseError, ValueError)):
            NoteName.parse(bad)


class TestGridFrequency:
    def test_a4_exact(self):
        assert grid_frequency("A4") == 440

    def test_c_sharp_5(self):
        assert grid_frequency("C#5") == F("554.37")

    def test_within_own_window(self):
        for midi in ALL_MIDI:
            expected = _name_for_midi(midi)
            assert note_name(grid_frequency(expected)) == expected


class TestNoteSet:
    def test_a2_with_four_partials(self):
        assert note_set("A2_4", 110) == FrequencySet([110, 220, 330, 440])

    def test_c4_six_partials(self):
        assert note_set("C4_6", 262) == FrequencySet([262, 524, 786, 1048, 1310, 1572])

    def test_single_partial(self):
        assert note_set("C4_1", 262) == FrequencySet([262])

    def test_grid_default_reference(self):
        assert note_set("A4_5") == FrequencySet([440, 880, 1320, 1760, 2200])

    def test_frequency_name_mismatch(self):
        with pytest.raises(ValueError, match="frequency/name mismatch"):
            note_set("C4_6", 440)

    def test_partial_count_required(self):
        with pytest.raises(ValueError, match="partial count"):
            note_set("C4", 262)


def fraction_midi_in_span(freq):
    """The reference window rule on Fraction powers: the semitone index i
    with 2^(2i-1) <= (freq/440)^24 < 2^(2i+1), or None outside C0..D#8."""
    x = (freq / 440) ** 24
    for midi in ALL_MIDI:
        i = midi - 69
        if F(2) ** (2 * i - 1) <= x < F(2) ** (2 * i + 1):
            return midi
    return None


def integer_midi_in_span(numerator, denominator):
    return _midi_in_span(numerator, denominator)


def window_edge(half_semitone):
    """The float nearest 440 * 2^((h/2 - 69) / 12), h = half_semitone: for
    odd h, close to a window's irrational edge."""
    return F(440.0 * 2.0 ** ((half_semitone / 2 - 69) / 12.0))


class TestWindowOnIntegers:
    """``_midi_in_span`` decides the window on integers as the Fraction
    24th-power rule does, in lowest terms or not."""

    @given(st.fractions(min_value=F(1, 10**4), max_value=F(10**5), max_denominator=10**9),
           st.integers(1, 10**6))
    def test_random_rationals(self, freq, scale):
        expected = fraction_midi_in_span(freq)
        assert integer_midi_in_span(freq.numerator, freq.denominator) == expected
        assert integer_midi_in_span(freq.numerator * scale, freq.denominator * scale) == expected

    @given(st.integers(2 * 11, 2 * 112), st.integers(1, 18), st.sampled_from([-1, 1]))
    @example(23, 12, -1)
    @example(23, 12, 1)
    @example(223, 12, -1)
    @example(223, 12, 1)
    def test_window_edges_nudged(self, half_semitone, k, sign):
        # odd half-semitones are edges: C0's lower one at 23, D#8's upper one at 223
        freq = window_edge(half_semitone) + sign * F(1, 10**k)
        assert integer_midi_in_span(freq.numerator, freq.denominator) == fraction_midi_in_span(freq)

    @given(st.sampled_from(ALL_MIDI), st.integers(1, 18), st.sampled_from([-1, 1]))
    def test_grid_pitches_nudged(self, midi, k, sign):
        freq = grid_frequency(_name_for_midi(midi)) + sign * F(1, 10**k)
        assert integer_midi_in_span(freq.numerator, freq.denominator) == midi == fraction_midi_in_span(freq)

    @pytest.mark.parametrize("freq", [F(1, 10**k) for k in (1, 3, 60)] + [F(10**k) for k in (4, 60, 4000)]
                             + [F(15), F(16), F(5123), F(5125), F(10**4000 + 1, 10**3998)])
    def test_far_outside_and_near_the_span(self, freq):
        assert integer_midi_in_span(freq.numerator, freq.denominator) == fraction_midi_in_span(freq)


def rendered_name_or_none(freq):
    """``note_name(freq).render()``, or None where ``note_name`` refuses the
    frequency as outside the span."""
    try:
        return note_name(freq).render()
    except ValueError:
        return None


class TestNoteTexts:
    """A document's note names come from the table of the span's texts,
    looked up by the window test's semitone index; ``note_name`` builds its
    ``NoteName`` from that same index."""

    # C0's window starts near 15.89 Hz and D#8's ends near 5272 Hz
    @given(st.fractions(min_value=F(14), max_value=F(5400), max_denominator=10**6), st.integers(1, 10**6))
    @example(window_edge(23) - F(1, 10**12), 1)
    @example(window_edge(23) + F(1, 10**12), 1)
    @example(window_edge(223) - F(1, 10**12), 1)
    @example(window_edge(223) + F(1, 10**12), 1)
    def test_table_text_is_the_rendered_name(self, freq, scale):
        expected = rendered_name_or_none(freq)
        assert _note_text(freq.numerator * scale, freq.denominator * scale) == expected
        if expected is not None:
            assert note_name(freq).midi == _midi_in_span(freq.numerator, freq.denominator)

    def test_every_span_text_once(self):
        texts = [_note_text(*grid_frequency(_name_for_midi(midi)).as_integer_ratio()) for midi in ALL_MIDI]
        assert texts == [_name_for_midi(midi).render() for midi in ALL_MIDI]
        assert (texts[0], texts[-1]) == ("C0", "D#8")
