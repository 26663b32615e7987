"""Generative property tests over the DOM/render/match stack.

Hypothesis builds random page structures through the PageBuilder and
checks the system-level invariants that everything else relies on:

* renderer emissions align 1:1 with parser text fields (the ground-truth
  alignment ``repro.datasets.render`` calls its central invariant);
* every node's XPath evaluates back to that node;
* serialize → parse is a fixed point;
* page signatures are invariant under list-length changes.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.templates import page_signature
from repro.datasets.render import GeneratedPage, PageBuilder
from repro.dom.parser import parse_html
from repro.dom.serialize import to_html
from repro.dom.xpath import evaluate_xpath, xpath_steps, format_steps

# Visible text with at least one non-space character.
visible_text = st.text(
    alphabet=string.ascii_letters + string.digits + " &<>'\"!,.é",
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip())

tags = st.sampled_from(["div", "span", "p", "section", "article", "b", "em"])


@st.composite
def page_spec(draw):
    """A random nested block structure: list of (depth-delta, texts)."""
    n_blocks = draw(st.integers(1, 6))
    blocks = []
    for _ in range(n_blocks):
        tag = draw(tags)
        texts = draw(st.lists(visible_text, min_size=0, max_size=3))
        nested = draw(st.booleans())
        blocks.append((tag, texts, nested))
    return blocks


def build(blocks) -> GeneratedPage:
    builder = PageBuilder()
    builder.open("html").open("body")
    for index, (tag, texts, nested) in enumerate(blocks):
        builder.open(tag, class_=f"c{index}")
        for text in texts:
            builder.leaf("span", text)
        if nested:
            builder.open("div", class_="inner")
            builder.leaf("p", f"inner {index}")
            builder.close("div")
        builder.close(tag)
    builder.close("body").close("html")
    return GeneratedPage("prop", builder.html(), builder.emissions)


class TestAlignmentInvariant:
    @settings(max_examples=60, deadline=None)
    @given(page_spec())
    def test_emissions_align_with_text_fields(self, blocks):
        page = build(blocks)
        fields = page.document.text_fields()  # raises on misalignment
        assert len(fields) == len(page.emissions)
        for node, emission in zip(fields, page.emissions):
            assert node.text == emission.text

    @settings(max_examples=60, deadline=None)
    @given(page_spec())
    def test_every_node_xpath_roundtrips(self, blocks):
        page = build(blocks)
        root = page.document.root
        for field in page.document.text_fields():
            assert evaluate_xpath(root, field.xpath) is field
            assert format_steps(xpath_steps(field)) == field.xpath

    @settings(max_examples=40, deadline=None)
    @given(page_spec())
    def test_serialize_parse_fixed_point(self, blocks):
        page = build(blocks)
        once = to_html(page.document.root)
        twice = to_html(parse_html(once).root)
        assert once == twice

    @settings(max_examples=40, deadline=None)
    @given(page_spec())
    def test_node_at_consistency(self, blocks):
        page = build(blocks)
        doc = page.document
        for element in doc.iter_elements():
            assert doc.node_at(element.xpath) is element


class TestSignatureInvariant:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(5, 12))
    def test_list_length_invariance(self, short, long):
        def page(n):
            builder = PageBuilder()
            builder.open("html").open("body")
            builder.open("ul", class_="items")
            for i in range(n):
                builder.open("li")
                builder.text(f"item {i}")
                builder.close("li")
            builder.close("ul")
            builder.close("body").close("html")
            return parse_html(builder.html())

        assert page_signature(page(short)) == page_signature(page(long))
