"""Tests for repro.datasets.entities (synthetic universes)."""

from repro.datasets.entities import (
    BookUniverse,
    MovieUniverse,
    NbaUniverse,
    UniversityUniverse,
)


class TestMovieUniverse:
    def test_deterministic(self):
        a = MovieUniverse(seed=5, n_people=50, n_films=20)
        b = MovieUniverse(seed=5, n_people=50, n_films=20)
        assert [f.title for f in a.films.values()] == [
            f.title for f in b.films.values()
        ]
        assert [p.name for p in a.people.values()] == [
            p.name for p in b.people.values()
        ]

    def test_different_seeds_differ(self):
        a = MovieUniverse(seed=1, n_people=50, n_films=20)
        b = MovieUniverse(seed=2, n_people=50, n_films=20)
        assert [f.title for f in a.films.values()] != [
            f.title for f in b.films.values()
        ]

    def test_counts(self):
        universe = MovieUniverse(seed=0, n_people=60, n_films=25, n_series=3,
                                 episodes_per_series=4)
        assert len(universe.people) == 60
        assert len(universe.films) == 25
        assert len(universe.series) == 3
        assert len(universe.episodes) == 12

    def test_facts_reference_known_entities(self):
        universe = MovieUniverse(seed=0, n_people=40, n_films=15)
        ids = {e.id for e in universe.entities()}
        for fact in universe.facts():
            assert fact.subject in ids
            if fact.value.is_entity:
                assert fact.value.value in ids

    def test_inverse_facts_consistent(self):
        universe = MovieUniverse(seed=0, n_people=40, n_films=15)
        cast = set()
        acted = set()
        for fact in universe.facts():
            if fact.predicate == "has_cast_member":
                cast.add((fact.subject, fact.value.value))
            elif fact.predicate == "acted_in":
                acted.add((fact.value.value, fact.subject))
        assert cast == acted

    def test_principal_cast_subset(self):
        universe = MovieUniverse(seed=0, n_people=40, n_films=15)
        for film in universe.films.values():
            assert set(film.principal_cast_ids) <= set(film.cast_ids)
            assert film.principal_cast_ids

    def test_directors_direct_many(self):
        """Role pools concentrate credits (see ``repro.datasets.entities``)."""
        universe = MovieUniverse(seed=0, n_people=200, n_films=100)
        from collections import Counter
        credits = Counter()
        for film in universe.films.values():
            for director in film.director_ids:
                credits[director] += 1
        assert max(credits.values()) >= 3

    def test_pilot_episodes_exist(self):
        universe = MovieUniverse(seed=0, n_people=40, n_films=10, n_series=8,
                                 episodes_per_series=4)
        pilots = [e for e in universe.episodes.values() if e.title == "Pilot"]
        assert len(pilots) >= 2  # the title-ambiguity hazard

    def test_release_year_matches_date(self):
        universe = MovieUniverse(seed=0, n_people=40, n_films=15)
        for film in universe.films.values():
            assert film.release_date.startswith(film.release_year)

    def test_unique_names(self):
        universe = MovieUniverse(seed=0, n_people=300, n_films=150)
        names = [p.name for p in universe.people.values()]
        assert len(names) == len(set(names))
        titles = [f.title for f in universe.films.values()]
        assert len(titles) == len(set(titles))


class TestOtherUniverses:
    def test_books(self):
        universe = BookUniverse(seed=0, n_books=50)
        assert len(universe.books) == 50
        for book in universe.books.values():
            assert book.isbn13.startswith("978-")
            assert len(book.isbn13.replace("-", "")) == 13
            assert book.authors
        facts = universe.facts()
        assert any(f.predicate == "isbn13" for f in facts)

    def test_isbn_check_digit(self):
        universe = BookUniverse(seed=0, n_books=20)
        for book in universe.books.values():
            digits = [int(c) for c in book.isbn13.replace("-", "")]
            checksum = sum(d * (1 if i % 2 == 0 else 3) for i, d in enumerate(digits))
            assert checksum % 10 == 0

    def test_nba(self):
        universe = NbaUniverse(seed=0, n_players=40)
        assert len(universe.players) == 40
        for player in universe.players.values():
            feet, inches = player.height.split("-")
            assert 5 <= int(feet) <= 7
            assert 0 <= int(inches) <= 11
            assert 150 < int(player.weight) < 300

    def test_universities(self):
        universe = UniversityUniverse(seed=0, n_universities=40)
        assert len(universe.universities) == 40
        names = [u.name for u in universe.universities.values()]
        assert len(names) == len(set(names))
        for uni in universe.universities.values():
            assert uni.type in ("Public", "Private")
            assert uni.website.endswith(".edu")
            assert uni.phone.startswith("(")

    def test_deterministic_books(self):
        a = BookUniverse(seed=3, n_books=10)
        b = BookUniverse(seed=3, n_books=10)
        assert [x.isbn13 for x in a.books.values()] == [
            x.isbn13 for x in b.books.values()
        ]
