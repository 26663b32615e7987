"""Ablation experiments for CERES's design choices.

These go beyond the paper's own tables: each isolates one mechanism of the
CERES pipeline and measures its contribution on the IMDb testbed, where
the hazards that motivate the mechanisms are planted.

* **Annotation evidence** (Section 3.2): local evidence only vs local +
  global clustering (CERES-Full) vs neither (all-mentions = CERES-Topic).
* **Negative sampling** (Section 4.1): list-index exclusion on/off and the
  negatives-per-positive ratio r.
* **Feature families** (Section 4.2): structural features only, text
  features only, both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.ceres_topic import make_ceres_topic_pipeline
from repro.core.annotation.relation import RelationAnnotator
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.datasets.imdb import IMDbDataset, PERSON_PREDICATES, generate_imdb
from repro.evaluation.experiments.common import split_pages
from repro.evaluation.report import format_prf, format_table
from repro.evaluation.scoring import node_level_scores
from repro.ml.metrics import PRF

__all__ = [
    "AblationResult",
    "run_annotation_evidence_ablation",
    "run_negative_sampling_ablation",
    "run_feature_ablation",
]


@dataclass
class AblationResult:
    title: str
    #: variant name -> pooled PRF over person-page predicates
    scores: dict[str, PRF] = field(default_factory=dict)

    def format(self) -> str:
        rows = [
            [variant] + [format_prf(v) for v in score.as_tuple()]
            for variant, score in self.scores.items()
        ]
        return format_table(["Variant", "P", "R", "F1"], rows, title=self.title)


class _LocalOnlyAnnotator(RelationAnnotator):
    """Algorithm 2 with the global clustering step disabled: local ties and
    over-represented objects are simply dropped."""

    def _choose_mention(self, obj, co_mentions, frequently_duplicated,
                        over_represented, clusters_for):
        best = self.best_local_mentions(obj.mentions, co_mentions)
        if len(best) == 1:
            return best[0]
        return None


def _pooled_scores(run_extractions, eval_pages, candidates, config) -> PRF:
    scores = node_level_scores(
        run_extractions, eval_pages, PERSON_PREDICATES, candidates,
        config.confidence_threshold,
    )
    total = PRF()
    for score in scores.values():
        total += score
    return total


def run_annotation_evidence_ablation(
    seed: int = 0, dataset: IMDbDataset | None = None
) -> AblationResult:
    """All-mentions vs local-only vs local+global on IMDb person pages."""
    config = CeresConfig()
    if dataset is None:
        dataset = generate_imdb(seed, n_films=40, n_people=36, n_episodes=12)
    kb = dataset.kb
    assert kb is not None
    train_pages, eval_pages = split_pages(dataset.person_pages, seed)
    train_docs = [p.document for p in train_pages]
    eval_docs = [p.document for p in eval_pages]

    result = AblationResult("Ablation: relation-annotation evidence (IMDb person pages)")

    pipeline = make_ceres_topic_pipeline(kb, config)
    run = pipeline.run(train_docs, eval_docs)
    result.scores["all-mentions (CERES-Topic)"] = _pooled_scores(
        run.extractions, eval_pages, run.candidates, config
    )

    pipeline = CeresPipeline(kb, config)
    pipeline.annotator = _LocalOnlyAnnotator(kb, config, pipeline.matcher)
    run = pipeline.run(train_docs, eval_docs)
    result.scores["local evidence only"] = _pooled_scores(
        run.extractions, eval_pages, run.candidates, config
    )

    pipeline = CeresPipeline(kb, config)
    run = pipeline.run(train_docs, eval_docs)
    result.scores["local + global (CERES-Full)"] = _pooled_scores(
        run.extractions, eval_pages, run.candidates, config
    )
    return result


def run_negative_sampling_ablation(
    seed: int = 0, dataset: IMDbDataset | None = None
) -> AblationResult:
    """Negatives-per-positive ratio and list-index exclusion."""
    if dataset is None:
        dataset = generate_imdb(seed, n_films=40, n_people=36, n_episodes=12)
    kb = dataset.kb
    assert kb is not None
    train_pages, eval_pages = split_pages(dataset.person_pages, seed)
    train_docs = [p.document for p in train_pages]
    eval_docs = [p.document for p in eval_pages]

    result = AblationResult("Ablation: negative sampling (IMDb person pages)")
    variants = [
        ("r=1, with list exclusion", CeresConfig(negatives_per_positive=1)),
        ("r=3, with list exclusion (paper)", CeresConfig(negatives_per_positive=3)),
        ("r=5, with list exclusion", CeresConfig(negatives_per_positive=5)),
    ]
    for name, config in variants:
        pipeline = CeresPipeline(kb, config)
        run = pipeline.run(train_docs, eval_docs)
        result.scores[name] = _pooled_scores(
            run.extractions, eval_pages, run.candidates, config
        )

    # Disable list exclusion by monkey-free configuration: rebuild examples
    # with patterns suppressed via a subclassed pipeline stage.
    import repro.core.annotation.examples as examples_mod

    config = CeresConfig(negatives_per_positive=3)
    original = examples_mod.list_exclusion_patterns
    try:
        examples_mod.list_exclusion_patterns = lambda page: []
        pipeline = CeresPipeline(kb, config)
        run = pipeline.run(train_docs, eval_docs)
        result.scores["r=3, no list exclusion"] = _pooled_scores(
            run.extractions, eval_pages, run.candidates, config
        )
    finally:
        examples_mod.list_exclusion_patterns = original
    return result


def run_feature_ablation(
    seed: int = 0, dataset: IMDbDataset | None = None
) -> AblationResult:
    """Structural-only vs text-only vs both feature families."""
    if dataset is None:
        dataset = generate_imdb(seed, n_films=40, n_people=36, n_episodes=12)
    kb = dataset.kb
    assert kb is not None
    train_pages, eval_pages = split_pages(dataset.person_pages, seed)
    train_docs = [p.document for p in train_pages]
    eval_docs = [p.document for p in eval_pages]

    result = AblationResult("Ablation: node feature families (IMDb person pages)")
    variants = [
        ("structural only", CeresConfig(max_frequent_strings=0)),
        ("text only", CeresConfig(struct_ancestor_levels=0, struct_sibling_width=0)),
        ("structural + text (paper)", CeresConfig()),
    ]
    for name, config in variants:
        pipeline = CeresPipeline(kb, config)
        run = pipeline.run(train_docs, eval_docs)
        result.scores[name] = _pooled_scores(
            run.extractions, eval_pages, run.candidates, config
        )
    return result
