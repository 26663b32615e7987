"""Tests for repro.text.fuzzy (surface variants, StringIndex)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.text.fuzzy import StringIndex, surface_variants
from repro.text.normalize import normalize_text


class TestSurfaceVariants:
    def test_plain(self):
        assert surface_variants("Spike Lee") == {"spike lee"}

    def test_comma_inversion(self):
        assert "spike lee" in surface_variants("Lee, Spike")

    def test_comma_inversion_keeps_original(self):
        assert "lee spike" in surface_variants("Lee, Spike")

    def test_trailing_parenthetical(self):
        variants = surface_variants("Crooklyn (1994)")
        assert "crooklyn" in variants
        assert "crooklyn 1994" in variants

    def test_empty(self):
        assert surface_variants("") == set()
        assert surface_variants("!!!") == set()

    def test_comma_inside_parenthetical_not_inverted(self):
        # "Gladiator (2000, UK)" is a title + qualifier, not "Last, First";
        # the old behavior indexed the bogus variant "uk gladiator 2000".
        variants = surface_variants("Gladiator (2000, UK)")
        assert "uk gladiator 2000" not in variants
        assert variants == {"gladiator 2000 uk", "gladiator"}

    def test_comma_inversion_survives_trailing_parenthetical(self):
        # A true name inversion still fires once the qualifier is stripped.
        variants = surface_variants("Lee, Spike (director)")
        assert "spike lee" in variants

    def test_comma_only_inside_parenthetical_no_inversion(self):
        variants = surface_variants("Big Night (1996, US, Drama)")
        assert "big night" in variants
        assert not any(v.startswith("1996") or v.startswith("us ") for v in variants)

    def test_long_comma_phrase_not_inverted(self):
        # Clause-like comma usage should not generate inversions.
        text = "The Good, the Bad and the Ugly went to town together"
        variants = surface_variants(text)
        assert normalize_text(text) in variants
        assert len(variants) == 1

    @given(st.text(max_size=40))
    def test_variants_are_normalized(self, text):
        for variant in surface_variants(text):
            assert variant == normalize_text(variant)


class TestStringIndex:
    def test_roundtrip(self):
        index = StringIndex()
        index.add("Do the Right Thing", "m1")
        assert index.lookup("do the right thing!") == {"m1"}

    def test_multiple_payloads(self):
        index = StringIndex()
        index.add("Pilot", "ep1")
        index.add("Pilot", "ep2")
        assert index.lookup("Pilot") == {"ep1", "ep2"}

    def test_comma_inversion_lookup(self):
        index = StringIndex()
        index.add("Spike Lee", "p1")
        assert index.lookup("Lee, Spike") == {"p1"}

    def test_parenthetical_lookup(self):
        index = StringIndex()
        index.add("Crooklyn", "m2")
        assert index.lookup("Crooklyn (1994)") == {"m2"}

    def test_miss(self):
        index = StringIndex()
        index.add("Spike Lee", "p1")
        assert index.lookup("Someone Else") == set()

    def test_contains(self):
        index = StringIndex()
        index.add("Spike Lee", "p1")
        assert index.contains("spike lee")
        assert not index.contains("joe")

    def test_update(self):
        index = StringIndex()
        index.update(["A Film", "Le Film"], "m3")
        assert index.lookup("a film") == {"m3"}
        assert index.lookup("le film") == {"m3"}

    def test_duplicate_add_is_idempotent(self):
        index = StringIndex()
        index.add("Spike Lee", "p1")
        size = len(index)
        index.add("Spike Lee", "p1")
        assert len(index) == size

    @given(st.lists(st.tuples(st.text(min_size=1, max_size=20), st.integers()), max_size=30))
    def test_every_added_surface_is_findable(self, pairs):
        index = StringIndex()
        for surface, value in pairs:
            index.add(surface, value)
        for surface, value in pairs:
            if normalize_text(surface):
                assert value in index.lookup(surface)
