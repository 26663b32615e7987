"""CERES configuration.

Every tunable the paper mentions is gathered here, with defaults set to the
values given in the text ("We set parameters exactly as the examples given
in the texts", Section 5.2).  Parameters whose paper values are calibrated
to web scale (the 0.01%-of-85M-triples stoplist) carry companion
``*_min_count`` knobs so behaviour is preserved at laptop scale; each
knob's comment documents its adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CONFIG_DOMAINS", "CeresConfig", "outside_domain"]


@dataclass
class CeresConfig:
    """All knobs for annotation, training, and extraction."""

    # --- topic identification (Section 3.1, Algorithm 1) ---
    #: Strings appearing in at least this fraction of KB triples are never
    #: topic candidates ("e.g., 0.01%").
    stoplist_fraction: float = 0.0001
    #: Absolute floor for the stoplist threshold at small KB sizes.  The
    #: paper's 0.01% is calibrated to an 85M-triple KB (~8,500 occurrences);
    #: at laptop scale an ordinary entity appears as a triple object a
    #: couple dozen times (inverse relations), so the floor sits above that.
    stoplist_min_count: int = 30
    #: Uniqueness filter: discard a candidate identified as topic of at
    #: least this many pages ("e.g., >= 5 pages").
    max_pages_per_topic: int = 5
    #: Informativeness filter: discard pages with fewer relation
    #: annotations than this ("e.g., >= 3").
    min_annotations_per_page: int = 3

    # --- relation annotation (Section 3.2, Algorithm 2) ---
    #: An object that appears as a value of a predicate on more than this
    #: fraction of annotated pages is suspicious (informativeness) and must
    #: be confirmed by the global clustering step.
    over_represented_object_fraction: float = 0.5
    #: A predicate is "frequently duplicated" when at least this fraction
    #: of its (page, object) instances have two or more mentions; only such
    #: predicates get cluster-based tie-breaking (Algorithm 2, line 25).
    duplicated_predicate_fraction: float = 0.2
    #: Over-representation is only judged for predicates appearing on at
    #: least this many pages — below that, "appears on more than half the
    #: pages" is noise, not evidence (e.g. 2 of 3 pages).
    min_predicate_pages: int = 4
    #: Cap on distinct XPaths fed to agglomerative clustering per predicate.
    max_cluster_items: int = 300

    # --- training examples (Section 4.1) ---
    #: Negative ("OTHER") examples sampled per positive example (r = 3).
    negatives_per_positive: int = 3
    #: Seed for the negative-sampling RNG.
    random_seed: int = 7

    # --- node features (Section 4.2) ---
    #: Ancestor levels inspected for structural features.
    struct_ancestor_levels: int = 4
    #: Sibling width on either side of each inspected ancestor ("up to a
    #: width of 5 on either side").
    struct_sibling_width: int = 5
    #: HTML attributes contributing structural features (the Vertex set).
    struct_attributes: tuple[str, ...] = (
        "class",
        "id",
        "itemprop",
        "itemtype",
        "property",
    )
    #: A string is "frequent" when it occurs on at least this fraction of
    #: pages (these become node-text features, e.g. "Director:").
    frequent_string_min_fraction: float = 0.3
    #: Maximum number of frequent strings kept per site.
    max_frequent_strings: int = 80
    #: Maximum character length of a frequent string.
    max_frequent_string_length: int = 40
    #: Ancestor hops searched for nearby frequent strings.
    text_feature_height: int = 3

    # --- classifier (Sections 4.2, 5.2) ---
    #: Inverse L2 regularization strength (scikit-learn convention, C=1).
    classifier_C: float = 1.0
    #: L-BFGS iteration budget.
    classifier_max_iter: int = 200

    # --- extraction (Section 4.3) ---
    #: Minimum predicted probability to emit an extraction (paper: 0.5).
    confidence_threshold: float = 0.5

    # --- caching (serving memory model; see README) ---
    #: Max page match results (:class:`repro.kb.matcher.PageMatch`) kept
    #: resident per :class:`~repro.kb.matcher.PageMatcher`.  Annotation
    #: re-reads each page's matches several times, so this should exceed
    #: the largest cluster processed at once.
    page_match_cache_size: int = 512
    #: Max sites kept resident (models + extractor pools) by a single
    #: :class:`~repro.runtime.service.ExtractionService`; least recently
    #: served sites are evicted and transparently reloaded on next use.
    max_resident_sites: int = 8

    # --- parsing limits (hostile-input hardening; serving tier) ---
    #: Cap on open-element nesting depth when parsing untrusted HTML
    #: (the serving tier passes this to :func:`repro.dom.parser.parse_html`).
    #: Generous: real template pages nest well under 100 levels; a
    #: ``<div>``-bomb recursion attack needs thousands.
    max_parse_depth: int = 240
    #: Cap on total parsed nodes (elements + text runs) per untrusted
    #: page.  Generous: the largest SWDE pages build a few tens of
    #: thousands of nodes.
    max_parse_nodes: int = 400_000

    # --- template clustering (Section 2.1) ---
    #: Whether to split a site's pages into template clusters first.
    use_template_clustering: bool = True
    #: Jaccard similarity threshold for page-signature clustering.
    template_similarity_threshold: float = 0.7
    #: Clusters smaller than this are skipped (too few pages to learn).
    min_cluster_size: int = 4

    def replace(self, **overrides) -> CeresConfig:
        """A copy of this config with the given fields replaced."""
        import dataclasses

        return dataclasses.replace(self, **overrides)


_UNIT = ("within [0, 1]", lambda value: 0 <= value <= 1)
_NON_NEGATIVE = (">= 0", lambda value: value >= 0)
_AT_LEAST_ONE = (">= 1", lambda value: value >= 1)

#: Each numeric field's domain, from its comment above: fractions,
#: similarity and confidence thresholds lie in [0, 1]; counts, levels,
#: widths, heights and lengths are >= 0; C is positive; the iteration
#: budget, the page floor and the cache, residency and parse caps are
#: >= 1 (``LRUCache`` refuses a capacity of 0, and a page floor of 0
#: selects what 1 does).  ``random_seed`` takes any int.  Registry loads,
#: the CLI's flags and ``ServingConfig``'s parse caps all check this table.
CONFIG_DOMAINS = {
    "stoplist_fraction": _UNIT,
    "stoplist_min_count": _NON_NEGATIVE,
    "max_pages_per_topic": _NON_NEGATIVE,
    "min_annotations_per_page": _NON_NEGATIVE,
    "over_represented_object_fraction": _UNIT,
    "duplicated_predicate_fraction": _UNIT,
    "min_predicate_pages": _AT_LEAST_ONE,
    "max_cluster_items": _NON_NEGATIVE,
    "negatives_per_positive": _NON_NEGATIVE,
    "struct_ancestor_levels": _NON_NEGATIVE,
    "struct_sibling_width": _NON_NEGATIVE,
    "frequent_string_min_fraction": _UNIT,
    "max_frequent_strings": _NON_NEGATIVE,
    "max_frequent_string_length": _NON_NEGATIVE,
    "text_feature_height": _NON_NEGATIVE,
    "classifier_C": ("> 0", lambda value: value > 0),
    "classifier_max_iter": _AT_LEAST_ONE,
    "confidence_threshold": _UNIT,
    "page_match_cache_size": _AT_LEAST_ONE,
    "max_resident_sites": _AT_LEAST_ONE,
    "max_parse_depth": _AT_LEAST_ONE,
    "max_parse_nodes": _AT_LEAST_ONE,
    "template_similarity_threshold": _UNIT,
    "min_cluster_size": _NON_NEGATIVE,
}


def outside_domain(name: str, value) -> str | None:
    """``name``'s domain as text (``">= 1"``) when ``value`` lies outside
    it, else None (also for a field that takes any value)."""
    if name not in CONFIG_DOMAINS:
        return None
    domain, within = CONFIG_DOMAINS[name]
    return None if within(value) else domain
