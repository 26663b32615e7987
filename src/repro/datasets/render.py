"""HTML page rendering with node-level ground-truth capture.

The central invariant (property-tested in
``tests/test_property_generative.py``): every visible string on a generated
page is emitted through :meth:`PageBuilder.text`, which records an
:class:`Emission` — ``(text, predicate-or-None, canonical object)`` — in
emission order.  Because the parser yields text fields in document order,
``document.text_fields()[i]`` corresponds to ``emissions[i]`` exactly,
giving node-level truth without planting any markers in the HTML that a
classifier could exploit.

``predicate=None`` marks decorative text (labels, ads, recommendation
blocks): extracting such a node for any predicate is a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape

from repro.dom.parser import Document, parse_html

__all__ = ["Emission", "PageBuilder", "GeneratedPage", "PageTruth"]


@dataclass(frozen=True)
class Emission:
    """Ground truth for one emitted text field."""

    text: str
    predicate: str | None = None
    #: canonical object value (e.g. ISO date) when the surface differs.
    canonical: str | None = None

    @property
    def object_value(self) -> str | None:
        """The canonical object string this field asserts, if any."""
        if self.predicate is None:
            return None
        return self.canonical if self.canonical is not None else self.text


class PageBuilder:
    """Builds an HTML string while recording ground-truth emissions."""

    def __init__(self) -> None:
        self._parts: list[str] = []
        self._stack: list[str] = []
        self.emissions: list[Emission] = []

    # -- structure ----------------------------------------------------------

    def open(self, tag: str, **attrs: str) -> PageBuilder:
        rendered = "".join(
            f' {name.rstrip("_")}="{escape(value, quote=True)}"'
            for name, value in attrs.items()
        )
        self._parts.append(f"<{tag}{rendered}>")
        self._stack.append(tag)
        return self

    def close(self, tag: str | None = None) -> PageBuilder:
        expected = self._stack.pop()
        if tag is not None and tag != expected:
            raise ValueError(f"closing {tag!r} but {expected!r} is open")
        self._parts.append(f"</{expected}>")
        return self

    def element(self, tag: str, **attrs: str):
        """Context manager: ``with builder.element("div", class_="x"): ...``"""
        builder = self

        class _Ctx:
            def __enter__(self) -> PageBuilder:
                return builder.open(tag, **attrs)

            def __exit__(self, *exc) -> None:
                if exc[0] is None:
                    builder.close(tag)

        return _Ctx()

    def void(self, tag: str, **attrs: str) -> PageBuilder:
        rendered = "".join(
            f' {name.rstrip("_")}="{escape(value, quote=True)}"'
            for name, value in attrs.items()
        )
        self._parts.append(f"<{tag}{rendered}>")
        return self

    # -- content ---------------------------------------------------------------

    def text(
        self,
        value: str,
        predicate: str | None = None,
        canonical: str | None = None,
    ) -> PageBuilder:
        """Emit a visible string and record its ground truth."""
        if not value.strip():
            raise ValueError("refusing to emit whitespace-only text (breaks alignment)")
        self._parts.append(escape(value, quote=False))
        self.emissions.append(Emission(value, predicate, canonical))
        return self

    def leaf(
        self,
        tag: str,
        value: str,
        predicate: str | None = None,
        canonical: str | None = None,
        **attrs: str,
    ) -> PageBuilder:
        """``<tag ...>value</tag>`` in one call."""
        self.open(tag, **attrs)
        self.text(value, predicate, canonical)
        self.close(tag)
        return self

    def html(self) -> str:
        if self._stack:
            raise ValueError(f"unclosed tags at render time: {self._stack}")
        return "".join(self._parts)


@dataclass
class PageTruth:
    """Page-level ground truth derived from emissions."""

    #: predicate -> list of canonical object values asserted by the page.
    objects: dict[str, list[str]] = field(default_factory=dict)
    #: predicate -> set of surface strings that express it on the page.
    surfaces: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def from_emissions(cls, emissions: list[Emission]) -> PageTruth:
        truth = cls()
        for emission in emissions:
            if emission.predicate is None:
                continue
            value = emission.object_value
            bucket = truth.objects.setdefault(emission.predicate, [])
            if value not in bucket:
                bucket.append(value)
            truth.surfaces.setdefault(emission.predicate, set()).add(
                emission.text.strip()
            )
        return truth


@dataclass
class GeneratedPage:
    """A rendered page plus its complete ground truth."""

    page_id: str
    html: str
    emissions: list[Emission]
    #: universe entity id of the page's topic (None for non-detail pages).
    topic_entity_id: str | None = None
    #: the topic's canonical name as displayed.
    topic_name: str | None = None

    _document: Document | None = None
    _truth: PageTruth | None = None
    _node_emissions: dict | None = None

    @property
    def document(self) -> Document:
        """The parsed DOM (cached; alignment is validated on first parse)."""
        if self._document is None:
            document = parse_html(self.html, url=self.page_id)
            fields = document.text_fields()
            if len(fields) != len(self.emissions):
                raise AssertionError(
                    f"{self.page_id}: {len(fields)} text fields vs "
                    f"{len(self.emissions)} emissions — renderer/parser misalignment"
                )
            self._document = document
        return self._document

    @property
    def truth(self) -> PageTruth:
        if self._truth is None:
            self._truth = PageTruth.from_emissions(self.emissions)
        return self._truth

    def emission_for_node(self, node) -> Emission | None:
        """The ground-truth emission aligned with a text node of this page."""
        if self._node_emissions is None:
            self._node_emissions = {
                id(field_node): emission
                for field_node, emission in zip(
                    self.document.text_fields(), self.emissions
                )
            }
        return self._node_emissions.get(id(node))

    def aligned(self) -> list[tuple]:
        """All ``(text_node, emission)`` pairs in document order."""
        return list(zip(self.document.text_fields(), self.emissions))
