"""Tests for repro.core.extraction.features (Section 4.2): the names
the feature-row walker builds for a node."""

from repro.core.config import CeresConfig
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.dom.parser import parse_html


def row(extractor: NodeFeatureExtractor, node, document) -> tuple[str, ...]:
    """``node``'s feature names, from a fresh walker over ``extractor``."""
    return FeatureNameBatcher(extractor).row_for(node, document)


def label_page(value: str = "Spike Lee") -> str:
    return (
        "<html><body><div class='info' id='main'>"
        "<div class='row'><span class='label'>Director:</span>"
        f"<span class='value' itemprop='director'>{value}</span></div>"
        "<div class='row'><span class='label'>Genre:</span>"
        "<span class='value'>Drama</span></div>"
        "</div></body></html>"
    )


class TestStructuralFeatures:
    def test_own_tag_feature(self):
        doc = parse_html(label_page())
        extractor = NodeFeatureExtractor(CeresConfig()).fit([doc])
        node = next(f for f in doc.text_fields() if f.text == "Spike Lee")
        features = row(extractor, node, doc)
        assert "xfer:s|tag|span|0|0" in features

    def test_attribute_features(self):
        doc = parse_html(label_page())
        extractor = NodeFeatureExtractor(CeresConfig()).fit([doc])
        node = next(f for f in doc.text_fields() if f.text == "Spike Lee")
        features = row(extractor, node, doc)
        assert "site:s|class|value|0|0" in features
        assert "site:s|itemprop|director|0|0" in features

    def test_ancestor_features(self):
        doc = parse_html(label_page())
        extractor = NodeFeatureExtractor(CeresConfig()).fit([doc])
        node = next(f for f in doc.text_fields() if f.text == "Spike Lee")
        features = row(extractor, node, doc)
        assert "site:s|class|row|1|0" in features
        assert "site:s|class|info|2|0" in features
        assert "site:s|id|main|2|0" in features

    def test_sibling_features(self):
        doc = parse_html(label_page())
        extractor = NodeFeatureExtractor(CeresConfig()).fit([doc])
        node = next(f for f in doc.text_fields() if f.text == "Spike Lee")
        features = row(extractor, node, doc)
        # The label span is the -1 sibling of the value span.
        assert "site:s|class|label|0|-1" in features

    def test_ancestor_level_limit(self):
        doc = parse_html(label_page())
        config = CeresConfig(struct_ancestor_levels=0)
        extractor = NodeFeatureExtractor(config).fit([doc])
        node = next(f for f in doc.text_fields() if f.text == "Spike Lee")
        features = row(extractor, node, doc)
        assert "site:s|class|row|1|0" not in features
        assert "xfer:s|tag|span|0|0" in features

    def test_sibling_width_limit(self):
        doc = parse_html(
            "<html><body><div>"
            + "".join(f"<p class='p{i}'>t{i}</p>" for i in range(12))
            + "</div></body></html>"
        )
        config = CeresConfig(struct_sibling_width=2)
        extractor = NodeFeatureExtractor(config).fit([doc])
        node = next(f for f in doc.text_fields() if f.text == "t6")
        features = row(extractor, node, doc)
        assert "site:s|class|p5|0|-1" in features
        assert "site:s|class|p4|0|-2" in features
        assert "site:s|class|p3|0|-3" not in features


class TestTextFeatures:
    def pages(self, n: int = 5):
        return [parse_html(label_page(f"Person {i}")) for i in range(n)]

    def test_frequent_strings_compiled(self):
        docs = self.pages()
        extractor = NodeFeatureExtractor(CeresConfig()).fit(docs)
        assert "Director:" in extractor.frequent_strings
        assert "Genre:" in extractor.frequent_strings
        # Values vary per page and must not qualify.
        assert "Person 0" not in extractor.frequent_strings

    def test_nearby_string_feature(self):
        docs = self.pages()
        extractor = NodeFeatureExtractor(CeresConfig()).fit(docs)
        node = next(f for f in docs[0].text_fields() if f.text == "Person 0")
        features = row(extractor, node, docs[0])
        assert any(name.startswith("site:t|Director:") for name in features)

    def test_far_string_no_feature(self):
        config = CeresConfig(text_feature_height=0)
        docs = self.pages()
        extractor = NodeFeatureExtractor(config).fit(docs)
        node = next(f for f in docs[0].text_fields() if f.text == "Person 0")
        features = row(extractor, node, docs[0])
        # Height 0 means only strings inside the same element qualify.
        assert not any(name.startswith("site:t|Director:") for name in features)

    def test_max_frequent_strings_zero_disables(self):
        config = CeresConfig(max_frequent_strings=0)
        docs = self.pages()
        extractor = NodeFeatureExtractor(config).fit(docs)
        assert extractor.frequent_strings == set()
        node = next(f for f in docs[0].text_fields() if f.text == "Person 0")
        features = row(extractor, node, docs[0])
        assert not any(name.startswith("site:t|") for name in features)

    def test_long_strings_not_frequent(self):
        long_text = "x" * 100
        docs = [
            parse_html(f"<html><body><p>{long_text}</p><p>v{i}</p></body></html>")
            for i in range(5)
        ]
        extractor = NodeFeatureExtractor(CeresConfig()).fit(docs)
        assert long_text not in extractor.frequent_strings

    def test_fit_empty(self):
        extractor = NodeFeatureExtractor(CeresConfig()).fit([])
        assert extractor.frequent_strings == set()


class TestRegistryCacheSafety:
    """The bug this PR kills: registries were keyed by ``id(document)``,
    so a GC-recycled object id could serve one page's frequent-string
    registry for a *different* page, silently corrupting features."""

    PAGE_A = (
        "<html><body><div><p>Director:</p><p>Spike Lee</p></div></body></html>"
    )
    PAGE_B = (
        "<html><body><div><p>Writer:</p><p>Spike Lee</p></div></body></html>"
    )

    def _extractor(self) -> NodeFeatureExtractor:
        extractor = NodeFeatureExtractor(CeresConfig())
        extractor.frequent_strings = {"Director:", "Writer:"}
        return extractor

    def test_recycled_object_id_does_not_cross_contaminate(self):
        import gc

        import pytest

        # Ground truth from a fresh extractor that has only ever seen B.
        truth_extractor = self._extractor()
        doc_b = parse_html(self.PAGE_B)
        node_b = next(f for f in doc_b.text_fields() if f.text == "Spike Lee")
        truth = {
            name for name in row(truth_extractor, node_b, doc_b)
            if name.startswith("site:t|")
        }
        assert any("Writer:" in name for name in truth)
        del doc_b, node_b

        batcher = FeatureNameBatcher(self._extractor())
        seen_object_ids: set[int] = set()
        recycled = 0
        for _ in range(60):
            # Page A populates the registry cache, then its document dies,
            # freeing its memory for the interpreter to recycle.
            doc_a = parse_html(self.PAGE_A)
            node_a = next(
                f for f in doc_a.text_fields() if f.text == "Spike Lee"
            )
            features_a = batcher.row_for(node_a, doc_a)
            assert any(name.startswith("site:t|Director:") for name in features_a)
            seen_object_ids.add(id(doc_a))
            del doc_a, node_a
            # Parent/child pointers form reference cycles, so dead
            # documents wait on the cycle collector before their memory
            # (and object ids) can be reused.
            gc.collect()

            # Page B may be allocated at a recycled address: under the old
            # id()-keyed cache that returned A's registry for B.
            doc_b = parse_html(self.PAGE_B)
            if id(doc_b) in seen_object_ids:
                recycled += 1
            seen_object_ids.add(id(doc_b))
            node_b = next(
                f for f in doc_b.text_fields() if f.text == "Spike Lee"
            )
            features_b = {
                name for name in batcher.row_for(node_b, doc_b)
                if name.startswith("site:t|")
            }
            assert features_b == truth
            del doc_b, node_b
            gc.collect()

        if not recycled:  # pragma: no cover - allocator-dependent
            pytest.skip("interpreter never recycled a document id")

    def test_registry_cache_is_bounded(self):
        """Only the last page's registry stays resident."""
        extractor = self._extractor()
        batcher = FeatureNameBatcher(extractor)
        docs = [parse_html(self.PAGE_A) for _ in range(10)]
        for doc in docs:
            node = doc.text_fields()[0]
            batcher.row_for(node, doc)
        doc_id, registry = extractor._last_registry
        assert doc_id == docs[-1].doc_id
        assert registry is extractor.registry_for(docs[-1])

    def test_registry_for_reuses_page_then_rebuilds(self):
        extractor = self._extractor()
        doc_a = parse_html(self.PAGE_A)
        doc_b = parse_html(self.PAGE_B)
        first = extractor.registry_for(doc_a)
        assert extractor.registry_for(doc_a) is first
        registry_b = extractor.registry_for(doc_b)
        assert registry_b is not first
        assert any(
            text == "Writer:" for entries in registry_b.values()
            for text, _ in entries
        )
        rebuilt = extractor.registry_for(doc_a)
        assert rebuilt is not first
        assert rebuilt == first
