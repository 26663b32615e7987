"""Transferable (``xfer:``) node features for the cross-site global model.

ZeroShotCeres (Lockard et al., 2020; PAPERS.md) observes that a node
classifier built *only* from topology-relative signals — DOM context,
relative layout, text similarity to predicate names — generalizes to
unseen sites of a vertical, while CERES's site-specific vocabulary
(CSS classes, frequent-string lexicons) does not.  This module produces
exactly that restricted representation:

* **tag topology** — the per-site walker's structural ancestor/
  sibling-window names over tags alone (a walker configured with no
  attributes and no lexicon emits exactly the ``xfer:s|tag|…`` names;
  attribute values stay behind in ``site:``);
* **depth buckets** — capped absolute DOM depth of the text node;
* **relative layout** — the node's decile position among the page's
  text fields, plus first/last markers;
* **predicate-name overlap** — token overlap between each ontology
  predicate's name and the node's own text or the immediately preceding
  text field (the field that usually holds the human-readable label);
* **text shape classes** — coarse surface shapes of the node text
  (numeric, year, title case, trailing colon, token/length buckets).

Every feature name this module emits is in the ``xfer:`` namespace, and
none embeds markup values: no attribute values, no XPaths, no site
strings.  CI greps this file to keep it that way.  A node's features
are a tuple of names, the row the vectorizer's name-row path reads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.core.config import CeresConfig
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.dom.node import TextNode
from repro.dom.parser import Document

__all__ = ["TransferFeatureExtractor", "predicate_tokens", "shape_classes"]

#: One node's feature names.
Row = tuple[str, ...]

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")
_YEAR_PATTERN = re.compile(r"(?:18|19|20)\d\d")
_ISO_DATE_PATTERN = re.compile(r"\d{4}-\d{2}-\d{2}")

#: Absolute DOM depths at or beyond this collapse into one bucket.
_DEPTH_CAP = 15
#: Relative-layout resolution: position among the page's text fields.
_LAYOUT_BUCKETS = 10
#: Token counts at or beyond this collapse into one bucket.
_TOKEN_COUNT_CAP = 4
#: Upper bounds of the text-length buckets (longer → ``len|long``).
_LENGTH_BOUNDS = (4, 8, 16, 32, 64)


def predicate_tokens(name: str) -> frozenset[str]:
    """Lower-cased alphanumeric tokens of a predicate name or node text
    (``"directed_by"`` and ``"Directed by:"`` both → ``{directed, by}``)."""
    return frozenset(_TOKEN_PATTERN.findall(name.lower()))


def shape_classes(text: str) -> list[str]:
    """Coarse, site-agnostic surface shapes of one text field."""
    stripped = text.strip()
    shapes = [f"tokens|{min(len(stripped.split()), _TOKEN_COUNT_CAP)}"]
    length = len(stripped)
    for bound in _LENGTH_BOUNDS:
        if length <= bound:
            shapes.append(f"len|{bound}")
            break
    else:
        shapes.append("len|long")
    if stripped.isdigit():
        shapes.append("numeric")
    if _YEAR_PATTERN.fullmatch(stripped):
        shapes.append("year")
    if _ISO_DATE_PATTERN.fullmatch(stripped):
        shapes.append("iso-date")
    if any(ch.isdigit() for ch in stripped):
        shapes.append("has-digit")
    if stripped.isupper():
        shapes.append("upper")
    elif stripped.istitle():
        shapes.append("titlecase")
    elif stripped[:1].isupper():
        shapes.append("capitalized")
    if stripped.endswith(":"):
        shapes.append("label-colon")
    if "," in stripped:
        shapes.append("comma")
    return shapes


class TransferFeatureExtractor:
    """Produces the ``xfer:``-only feature row of a text node.

    Needs no fitting: unlike :class:`NodeFeatureExtractor` there is no
    site lexicon to compile — the whole point is that every signal here
    is meaningful on a site the model has never seen.  ``predicates``
    (the vertical's ontology predicate names) parameterize the
    overlap features and are part of the model, not of any site.
    """

    def __init__(
        self, predicates: Iterable[str], config: CeresConfig | None = None
    ) -> None:
        self.config = config or CeresConfig()
        self.predicates = tuple(sorted(set(predicates)))
        self._predicate_tokens = {
            name: tokens
            for name in self.predicates
            if (tokens := predicate_tokens(name))
        }
        # A walker with no attributes and an empty lexicon emits the
        # tag-topology names only, and interns template positions by tag.
        self._structural = FeatureNameBatcher(
            NodeFeatureExtractor(self.config.replace(struct_attributes=()))
        )
        # Page rows are deterministic per document; keep the last page's,
        # keyed by doc_id like the per-site feature registry.
        self._last_page: tuple[
            int | None, tuple[list[TextNode], list[Row]]
        ] = (None, ([], []))

    # -- page-level extraction ---------------------------------------------

    def page_features(
        self, document: Document
    ) -> tuple[list[TextNode], list[Row]]:
        """``(nodes, feature rows)`` for every non-empty text field.

        Layout features are relative positions within this list, so rows
        are built page-at-a-time (the last page's are kept, keyed by
        ``doc_id``); single-node access goes through :meth:`features`.
        """
        doc_id, cached = self._last_page
        if doc_id == document.doc_id:
            return cached
        nodes = [node for node in document.text_fields() if node.text.strip()]
        rows = [
            self._node_features(node, document, position, nodes)
            for position, node in enumerate(nodes)
        ]
        result = (nodes, rows)
        self._last_page = (document.doc_id, result)
        return result

    def features(self, node: TextNode, document: Document) -> Row:
        """The feature row of one node (via the page rows)."""
        nodes, rows = self.page_features(document)
        for position, candidate in enumerate(nodes):
            if candidate is node:
                return rows[position]
        # Node not among the page's non-empty text fields (blank text):
        # no layout position exists; emit the position-free families.
        return self._node_features(node, document, None, nodes)

    def _node_features(
        self,
        node: TextNode,
        document: Document,
        position: int | None,
        page_nodes: list[TextNode],
    ) -> Row:
        # The walker's row is shared by template twins: extend a copy.
        names = list(self._structural.row_for(node, document))
        names.append(f"xfer:depth|{min(node.depth, _DEPTH_CAP)}")
        text = node.text
        previous_text = ""
        if position is not None and page_nodes:
            n_fields = len(page_nodes)
            bucket = (_LAYOUT_BUCKETS * position) // n_fields
            names.append(f"xfer:layout|pos|{bucket}")
            if position == 0:
                names.append("xfer:layout|first")
            if position == n_fields - 1:
                names.append("xfer:layout|last")
            if position > 0:
                previous_text = page_nodes[position - 1].text
        names.extend(f"xfer:shape|{shape}" for shape in shape_classes(text))
        self._overlap_features(text, "self", names)
        if previous_text:
            self._overlap_features(previous_text, "prev", names)
        return tuple(names)

    def _overlap_features(
        self, text: str, context: str, names: list[str]
    ) -> None:
        """Token overlap between ``text`` and each predicate's name.

        ``full`` means every token of the predicate name occurs in the
        text ("Directed by" vs ``directed_by``); ``part`` means at least
        one does.  ``context`` distinguishes the node's own text from the
        preceding field's (where label strings usually live).
        """
        tokens = predicate_tokens(text)
        if not tokens:
            return
        for predicate, wanted in self._predicate_tokens.items():
            if wanted <= tokens:
                names.append(f"xfer:pred|{predicate}|{context}|full")
            elif wanted & tokens:
                names.append(f"xfer:pred|{predicate}|{context}|part")
