"""Tests for repro.dom.parser and repro.dom.node."""

import pytest

from repro.dom.node import ElementNode, TextNode
from repro.dom.parser import parse_html


SIMPLE = """
<html><head><title>T</title></head>
<body>
<div class="info" id="main">
  <h1>Do the Right Thing</h1>
  <p>Director: <a href="/p/1">Spike Lee</a></p>
  <ul><li>Drama</li><li>Comedy</li></ul>
</div>
</body></html>
"""


class TestParsing:
    def test_root_is_html(self):
        doc = parse_html(SIMPLE)
        assert doc.root.tag == "html"
        assert doc.root.parent is None
        assert doc.root.xpath == "/html[1]"

    def test_text_fields_in_document_order(self):
        doc = parse_html(SIMPLE)
        texts = [f.text.strip() for f in doc.text_fields()]
        assert texts == [
            "T",
            "Do the Right Thing",
            "Director:",
            "Spike Lee",
            "Drama",
            "Comedy",
        ]

    def test_tag_indices_count_same_tag_only(self):
        doc = parse_html("<html><body><p>a</p><div>b</div><p>c</p></body></html>")
        paths = [f.xpath for f in doc.text_fields()]
        assert paths == [
            "/html[1]/body[1]/p[1]/text()[1]",
            "/html[1]/body[1]/div[1]/text()[1]",
            "/html[1]/body[1]/p[2]/text()[1]",
        ]

    def test_attributes(self):
        doc = parse_html(SIMPLE)
        div = next(e for e in doc.iter_elements() if e.tag == "div")
        assert div.get("class") == "info"
        assert div.get("id") == "main"
        assert div.get("missing", "x") == "x"

    def test_void_elements(self):
        doc = parse_html("<html><body>a<br>b<img src='x'>c</body></html>")
        texts = [f.text for f in doc.text_fields()]
        assert texts == ["a", "b", "c"]
        body = doc.root.element_children()[0]
        tags = [c.tag for c in body.element_children()]
        assert tags == ["br", "img"]

    def test_self_closing_void(self):
        doc = parse_html("<html><body>a<br/>b</body></html>")
        assert [f.text for f in doc.text_fields()] == ["a", "b"]

    def test_implicit_li_close(self):
        doc = parse_html("<html><body><ul><li>one<li>two<li>three</ul></body></html>")
        assert [f.text for f in doc.text_fields()] == ["one", "two", "three"]
        ul = next(e for e in doc.iter_elements() if e.tag == "ul")
        assert len(ul.element_children()) == 3

    def test_implicit_table_close(self):
        doc = parse_html(
            "<html><body><table><tr><td>a<td>b<tr><td>c</table></body></html>"
        )
        texts = [f.text for f in doc.text_fields()]
        assert texts == ["a", "b", "c"]

    def test_stray_end_tag_ignored(self):
        doc = parse_html("<html><body></span><p>ok</p></body></html>")
        assert [f.text for f in doc.text_fields()] == ["ok"]

    def test_unclosed_tags_at_eof(self):
        doc = parse_html("<html><body><div><p>dangling")
        assert [f.text for f in doc.text_fields()] == ["dangling"]

    def test_entity_references_decoded(self):
        doc = parse_html("<html><body><p>Tom &amp; Jerry</p></body></html>")
        assert doc.text_fields()[0].text == "Tom & Jerry"

    def test_adjacent_text_merged(self):
        doc = parse_html("<html><body><p>a &amp; b &amp; c</p></body></html>")
        fields = doc.text_fields()
        assert len(fields) == 1
        assert fields[0].text == "a & b & c"

    def test_comments_dropped(self):
        doc = parse_html("<html><body><!-- hidden --><p>shown</p></body></html>")
        assert [f.text for f in doc.text_fields()] == ["shown"]

    def test_script_and_style_not_text_fields(self):
        doc = parse_html(
            "<html><body><script>var x=1;</script><style>.a{}</style><p>real</p></body></html>"
        )
        assert [f.text for f in doc.text_fields()] == ["real"]

    def test_whitespace_only_text_skipped(self):
        doc = parse_html("<html><body>  \n  <p>x</p>  \n </body></html>")
        assert [f.text for f in doc.text_fields()] == ["x"]

    def test_fragment_without_html(self):
        doc = parse_html("<div><p>frag</p></div>")
        assert doc.root.tag == "#fragment"
        assert [f.text for f in doc.text_fields()] == ["frag"]

    def test_multiple_text_children_indices(self):
        doc = parse_html("<html><body><p>one<b>mid</b>two</p></body></html>")
        fields = doc.text_fields()
        assert fields[0].xpath.endswith("/p[1]/text()[1]")
        assert fields[2].xpath.endswith("/p[1]/text()[2]")

    def test_node_at_lookup(self):
        doc = parse_html(SIMPLE)
        for field in doc.text_fields():
            assert doc.node_at(field.xpath) is field
        h1 = next(e for e in doc.iter_elements() if e.tag == "h1")
        assert doc.node_at(h1.xpath) is h1
        assert doc.node_at("/html[1]/body[9]") is None

    def test_url_carried(self):
        doc = parse_html("<html></html>", url="http://example.com/1")
        assert doc.url == "http://example.com/1"


class TestNodeApi:
    def test_ancestors(self):
        doc = parse_html(SIMPLE)
        a = next(e for e in doc.iter_elements() if e.tag == "a")
        chain = [n.tag for n in a.ancestors()]
        assert chain == ["p", "div", "body", "html"]
        chain_with_self = [n.tag for n in a.ancestors(include_self=True)]
        assert chain_with_self[0] == "a"

    def test_depth(self):
        doc = parse_html(SIMPLE)
        assert doc.root.depth == 0
        a = next(e for e in doc.iter_elements() if e.tag == "a")
        assert a.depth == 4  # html → body → div → p → a

    def test_text_content(self):
        doc = parse_html("<html><body><p>a <b>b</b> c</p></body></html>")
        p = next(e for e in doc.iter_elements() if e.tag == "p")
        assert p.text_content() == "a  b  c"

    def test_contains(self):
        doc = parse_html(SIMPLE)
        div = next(e for e in doc.iter_elements() if e.tag == "div")
        li = next(e for e in doc.iter_elements() if e.tag == "li")
        assert div.contains(li)
        assert not li.contains(div)
        assert div.contains(div)

    def test_text_node_element(self):
        doc = parse_html("<html><body><p>x</p></body></html>")
        field = doc.text_fields()[0]
        assert field.element.tag == "p"
        assert field.is_text
        assert not field.element.is_text

    def test_root_property(self):
        doc = parse_html(SIMPLE)
        li = next(e for e in doc.iter_elements() if e.tag == "li")
        assert li.root is doc.root

    def test_repr_smoke(self):
        node = ElementNode("div")
        text = TextNode("some quite long text that will be truncated in repr")
        assert "div" in repr(node)
        assert "..." in repr(text)


class TestDocId:
    def test_unique_and_monotonic_among_live_documents(self):
        docs = [parse_html(SIMPLE) for _ in range(10)]
        ids = [doc.doc_id for doc in docs]
        assert len(set(ids)) == 10
        assert ids == sorted(ids)

    def test_never_recycled_after_gc(self):
        """Unlike ``id()``, doc_ids must stay unique even when the
        interpreter recycles the freed documents' memory."""
        seen: set[int] = set()
        for _ in range(300):
            doc = parse_html(SIMPLE)
            assert doc.doc_id not in seen
            seen.add(doc.doc_id)
            del doc

    def test_fragment_documents_get_ids_too(self):
        doc = parse_html("<p>fragment</p>")
        assert isinstance(doc.doc_id, int)
        assert doc.doc_id > 0


class TestParseLimits:
    """Hostile-input caps: depth and node-count bombs are refused with a
    permanent, classified error instead of exhausting the process."""

    def test_depth_bomb_rejected(self):
        from repro.dom.parser import ParseLimitError

        bomb = "<div>" * 50 + "x" + "</div>" * 50
        with pytest.raises(ParseLimitError, match="max_parse_depth"):
            parse_html(bomb, max_depth=20)

    def test_node_bomb_rejected(self):
        from repro.dom.parser import ParseLimitError

        bomb = "<html><body>" + "<p>x</p>" * 200 + "</body></html>"
        with pytest.raises(ParseLimitError, match="max_parse_nodes"):
            parse_html(bomb, max_nodes=100)

    def test_limits_classified_permanent(self):
        from repro.dom.parser import ParseLimitError
        from repro.runtime.resilience import classify_error

        try:
            parse_html("<div>" * 30, max_depth=10)
        except ParseLimitError as exc:
            assert classify_error(exc) == "permanent"
        else:  # pragma: no cover - the parse must fail
            raise AssertionError("depth bomb parsed")

    def test_normal_page_fits_generous_defaults(self):
        from repro.core.config import CeresConfig

        config = CeresConfig()
        doc = parse_html(
            SIMPLE,
            max_depth=config.max_parse_depth,
            max_nodes=config.max_parse_nodes,
        )
        assert doc.root.tag == "html"

    def test_uncapped_by_default(self):
        deep = "<div>" * 400 + "x" + "</div>" * 400
        doc = parse_html(deep)  # trusted-corpus path stays permissive
        assert doc.root is not None

    @pytest.mark.parametrize("html", ["<p><![foo]>x</p>", "<p><![ x]>y</p>", "<![ "])
    def test_unreadable_marked_section_is_a_named_value_error(self, html):
        """``html.parser`` 3.11 asserts on these; the port raises a
        ``ValueError`` subclass with the same message, which the error
        taxonomy calls permanent (serve-http answers 422)."""
        from repro.dom.parser import MarkedSectionError
        from repro.runtime.resilience import classify_error

        with pytest.raises(MarkedSectionError) as caught:
            parse_html(html)
        assert isinstance(caught.value, ValueError)
        assert classify_error(caught.value) == "permanent"

    def test_depth_cap_ignores_void_elements(self):
        flat = "<html><body>" + "<br/>" * 50 + "</body></html>"
        doc = parse_html(flat, max_depth=10)  # <br> never nests
        assert doc.root.tag == "html"

    def test_wide_parent_parses_in_linear_time(self):
        """Sibling indices come from per-parent counts, not a scan of
        the earlier siblings: 32,000 ``<b>x</b>y`` pairs in one parent
        (64,000 children) parse within serve-http's caps in seconds."""
        import time

        from repro.core.config import CeresConfig

        config = CeresConfig()
        html = "<div>" + "<b>x</b>y" * 32_000 + "</div>"
        start = time.perf_counter()
        doc = parse_html(
            html,
            max_depth=config.max_parse_depth,
            max_nodes=config.max_parse_nodes,
        )
        elapsed = time.perf_counter() - start
        div = doc.root.element_children()[0]
        assert len(div.children) == 64_000
        assert div.children[-2].xpath == "/#fragment[1]/div[1]/b[32000]"
        assert div.children[-1].xpath == "/#fragment[1]/div[1]/text()[32000]"
        assert elapsed < 2.0, elapsed


def _recounted_xpaths(element, prefix, out):
    """Walk ``element``'s subtree recounting each child's XPath index
    from its earlier siblings; maps every node to its recounted xpath."""
    tag_counts: dict[str, int] = {}
    n_text = 0
    for child in element.children:
        if child.is_text:
            n_text += 1
            out[child] = (n_text, f"{prefix}/text()[{n_text}]")
        else:
            tag_counts[child.tag] = tag_counts.get(child.tag, 0) + 1
            index = tag_counts[child.tag]
            out[child] = (index, f"{prefix}/{child.tag}[{index}]")
            _recounted_xpaths(child, out[child][1], out)
    return out


class TestSiblingIndices:
    @pytest.mark.parametrize("vertical", ["movie", "book", "nbaplayer", "university"])
    def test_indices_match_a_recount_on_swde_pages(self, vertical):
        from repro.datasets import generate_swde

        dataset = generate_swde(vertical, n_sites=2, pages_per_site=4, seed=0)
        for site in dataset.sites:
            for page in site.pages:
                doc = parse_html(page.html)
                root = doc.root
                expected = _recounted_xpaths(
                    root, f"/{root.tag}[1]", {root: (1, f"/{root.tag}[1]")}
                )
                assert len(expected) > 20
                for node, (index, xpath) in expected.items():
                    got = node.text_index if node.is_text else node.tag_index
                    assert (got, node.xpath) == (index, xpath)
                    assert doc.node_at(xpath) is node


def _live_dom_nodes() -> int:
    import gc

    return sum(
        1 for obj in gc.get_objects() if isinstance(obj, (ElementNode, TextNode))
    )


class TestRelease:
    """A parsed tree is a ``parent``/``children`` reference cycle;
    :meth:`Document.release` lets refcounting free it."""

    def test_released_document_frees_without_the_collector(self):
        import gc

        gc.collect()
        before = _live_dom_nodes()
        gc.disable()
        try:
            doc = parse_html(SIMPLE)
            doc.text_fields()
            doc.node_at("/html[1]/body[1]/div[1]")
            assert _live_dom_nodes() > before
            doc.release()
            del doc
            assert _live_dom_nodes() == before
        finally:
            gc.enable()

    def test_released_document_refuses_use(self):
        doc = parse_html(SIMPLE)
        field = doc.text_fields()[0]
        cached_xpath = field.xpath
        doc.release()
        doc.release()  # idempotent
        assert doc.root is None
        assert "released" in repr(doc)
        for use in (doc.text_fields, doc.iter_elements, lambda: doc.node_at("/html[1]")):
            with pytest.raises(RuntimeError, match="released"):
                use()
        # A node the caller kept has no ancestors left, only the xpath it
        # had already cached.
        assert field.parent is None
        assert field.xpath == cached_xpath
