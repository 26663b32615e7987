"""Seeded workload inputs, handed to the program only as raw HTML bytes.

Each workload's generator takes the workload seed and returns pages (with
the generator's ground truth kept on the benchmark side, for scoring) and,
for the serving workloads, fully encoded HTTP requests.  The same seed
always yields the same bytes.

Guarantees the run checks and records:

* training pages and served pages never overlap (byte-level);
* ``serve`` repeats no page;
* ``recrawl`` repeats exactly :data:`RECRAWL_REPEATS` of every
  :data:`RECRAWL_PAGES_PER_REQUEST` pages, each byte-identical to a page
  of the same site sent earlier in the run.
"""

from __future__ import annotations

import dataclasses
import json
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets.commoncrawl import DEFAULT_SITES, generate_commoncrawl
from repro.datasets.entities import MovieUniverse
from repro.datasets.swde import generate_swde, seed_kb_for
from repro.kb.io import save_kb
from repro.kb.ontology import NAME_PREDICATE
from repro.text.normalize import normalize_text

#: SWDE verticals of the ``serve`` registry; two sites each.
SERVE_VERTICALS = ("movie", "book", "nbaplayer", "university")
#: generator seed of the ``serve`` sites (fixed; see :func:`serve_inputs`).
SERVE_SITES_SEED = 0
#: pages per SWDE site used to train its model in set-up.
SERVE_TRAIN_PAGES = 24
#: pages generated per SWDE site (the university generator runs out of
#: distinct names a little above 400).
SERVE_SITE_PAGES = 400
#: server starts per set-up; each consumes one warm-up page per site.
SETUP_REPEATS = 3

#: popularity ranks (0-based, see :func:`recrawl_inputs`) held out of
#: training and served zero-shot by the global model.
RECRAWL_HELD_OUT_RANKS = (2, 9, 20)
#: Zipf exponent of the site popularity skew.
RECRAWL_ZIPF = 0.5
RECRAWL_PAGES_PER_REQUEST = 16
#: pages per request that repeat an earlier-sent page of the same site.
RECRAWL_REPEATS = 4
#: requests generated; well above what a run sends at today's speed.
RECRAWL_REQUEST_SUPPLY = 400


@dataclass(frozen=True)
class Page:
    """One generated page and the facts its truth asserts."""

    site: str
    url: str
    html: str
    #: (predicate, normalized object) pairs the page asserts, name excluded.
    gold: frozenset
    #: "detail" or "list" — the generator's template kind.
    kind: str


@dataclass
class Request:
    """One pre-encoded ``POST /extract``."""

    site: str
    pages: list
    wire: bytes = b""

    def encode(self) -> "Request":
        body = json.dumps(
            {
                "site": self.site,
                "pages": [{"html": p.html, "url": p.url} for p in self.pages],
            },
            ensure_ascii=False,
        ).encode("utf-8")
        head = (
            "POST /extract HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.wire = head.encode("ascii") + body
        return self


@dataclass
class CorpusInputs:
    kb_path: Path
    corpus_dir: Path
    startup_dir: Path
    #: (site, file name) -> Page, the key run-corpus rows carry.
    pages: dict = field(default_factory=dict)


@dataclass
class ServingInputs:
    """Training material plus the request stream of a serving workload."""

    #: (kb path, training corpus dir) per run-corpus training launch.
    trainings: list
    warmups: list
    stream: list
    #: sites that have a per-site model after training.
    trained_sites: frozenset
    #: site -> template kinds among its generated pages.
    kinds: dict


def _page(site: str, url: str, generated) -> Page:
    gold = frozenset(
        (predicate, normalize_text(value))
        for predicate, values in generated.truth.objects.items()
        if predicate != NAME_PREDICATE
        for value in values
    )
    kind = "detail" if generated.topic_entity_id is not None else "list"
    return Page(site, url, generated.html, gold, kind)


def _write_site(directory: Path, pages) -> None:
    """One site directory of ``p000.html``... files (pages need ``.html``)."""
    directory.mkdir(parents=True, exist_ok=True)
    for index, page in enumerate(pages):
        (directory / f"p{index:03d}.html").write_bytes(page.html.encode("utf-8"))


def corpus_inputs(seed: int, root: Path) -> CorpusInputs:
    """The long-tail corpus of 33 sites at its default size (890 pages)."""
    root.mkdir(parents=True, exist_ok=True)
    dataset = generate_commoncrawl(seed=seed)
    inputs = CorpusInputs(
        kb_path=root / "kb.json",
        corpus_dir=root / "corpus",
        startup_dir=root / "startup",
    )
    save_kb(dataset.kb, inputs.kb_path)
    for site in dataset.sites:
        pages = [
            _page(site.name, f"p{index:03d}.html", generated)
            for index, generated in enumerate(site.pages)
        ]
        _write_site(inputs.corpus_dir / site.name, pages)
        for page in pages:
            inputs.pages[(site.name, page.url)] = page
    # The start-up probe runs the smallest site that has detail pages.
    smallest = min(
        (site for site in dataset.sites if site.config.n_pages),
        key=lambda site: (len(site.pages), site.name),
    )
    _write_site(inputs.startup_dir / smallest.name, smallest.pages)
    return inputs


def serve_inputs(seed: int, root: Path) -> ServingInputs:
    """8 SWDE sites (2 per vertical): training pages plus a stream of
    1–4-page requests over pages never trained on and never repeated.

    The sites themselves come from :data:`SERVE_SITES_SEED`, so every
    seed serves the same trained models and accuracy moves only with the
    program; the workload seed picks the served pages and their order.
    Sites and page counts are drawn in shuffled rounds (every 8 requests
    visit every site once, every 4 carry 1, 2, 3 and 4 pages), so short
    phases see the same mix whatever the seed.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    trainings = []
    pools: dict[str, list[Page]] = {}
    for vertical in SERVE_VERTICALS:
        dataset = generate_swde(
            vertical, n_sites=2, pages_per_site=SERVE_SITE_PAGES,
            seed=SERVE_SITES_SEED,
        )
        kb_path = root / f"kb_{vertical}.json"
        save_kb(seed_kb_for(dataset, SERVE_SITES_SEED), kb_path)
        train_dir = root / "train" / vertical
        for site in dataset.sites:
            pages = [
                _page(site.name, f"{site.name}/{index}", generated)
                for index, generated in enumerate(site.pages)
            ]
            _write_site(train_dir / site.name, pages[:SERVE_TRAIN_PAGES])
            pools[site.name] = pages[SERVE_TRAIN_PAGES:]
            rng.shuffle(pools[site.name])
        trainings.append((kb_path, train_dir))
    sites = sorted(pools)
    warmups = [
        [Request(site, [pools[site].pop()]).encode() for site in sites]
        for _ in range(SETUP_REPEATS)
    ]
    site_round: list[str] = []
    size_round: list[int] = []
    stream = []
    while True:
        if not site_round:
            site_round = rng.sample(sites, len(sites))
        if not size_round:
            size_round = rng.sample([1, 2, 3, 4], 4)
        site, count = site_round.pop(), size_round.pop()
        if len(pools[site]) < count:
            break
        pages = [pools[site].pop() for _ in range(count)]
        stream.append(Request(site, pages).encode())
    return ServingInputs(
        trainings, warmups, stream, frozenset(sites), {s: {"detail"} for s in sites}
    )


def recrawl_ranking() -> list[str]:
    """The fixed popularity order of the 33 corpus sites (same every seed,
    so seeds vary content and draw order, not which sites are hot)."""
    return sorted(
        (config.name for config in DEFAULT_SITES),
        key=lambda name: (zlib.crc32(name.encode("utf-8")), name),
    )


def recrawl_inputs(seed: int, root: Path) -> ServingInputs:
    """All 33 corpus sites: 30 trained (with a global model), 3 held out,
    requested with a Zipf skew in 16-page requests, 4 of each 16 pages
    byte-identical repeats of pages the site already sent."""
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    ranking = recrawl_ranking()
    weights = [1.0 / (rank + 1) ** RECRAWL_ZIPF for rank in range(len(ranking))]
    held_out = {ranking[rank] for rank in RECRAWL_HELD_OUT_RANKS}
    draws = rng.choices(ranking, weights, k=RECRAWL_REQUEST_SUPPLY)
    fresh_per_request = RECRAWL_PAGES_PER_REQUEST - RECRAWL_REPEATS
    need = {name: SETUP_REPEATS for name in ranking}
    for name in draws:
        need[name] += fresh_per_request
    configs = []
    base = {}
    for config in DEFAULT_SITES:
        base[config.name] = config.n_pages + config.n_noise_pages
        factor = (base[config.name] + need[config.name]) / base[config.name]
        configs.append(
            dataclasses.replace(
                config,
                n_pages=round(config.n_pages * factor),
                n_noise_pages=round(config.n_noise_pages * factor),
            )
        )
    # The corpus workload's universe, so the seed KB (and so training
    # cost) matches the corpus the registry is trained on.
    universe = MovieUniverse(
        seed=seed, n_people=500, n_films=max(400, int(890 * 0.9)),
        n_series=14, episodes_per_series=8,
    )
    dataset = generate_commoncrawl(seed=seed, sites=tuple(configs), universe=universe)
    kb_path = root / "kb.json"
    save_kb(dataset.kb, kb_path)
    train_dir = root / "train"
    pools: dict[str, list[Page]] = {}
    kinds = {}
    for site in dataset.sites:
        pages = [
            _page(site.name, f"{site.name}/{index}", generated)
            for index, generated in enumerate(site.pages)
        ]
        training = pages[: base[site.name]]
        if site.name not in held_out:
            _write_site(train_dir / site.name, training)
        # A film drawn twice for one site renders byte-identically; such
        # pages (and any copy of a training page) leave the fresh pool.
        seen = {page.html for page in training}
        pool = []
        for page in pages[base[site.name]:]:
            if page.html not in seen:
                seen.add(page.html)
                pool.append(page)
        pools[site.name] = pool
        kinds[site.name] = {page.kind for page in pages}
    warmups = [
        [Request(name, [pools[name].pop(0)]).encode() for name in ranking]
        for _ in range(SETUP_REPEATS)
    ]
    # The timed server's warm-up pages count as sent: a repeat may copy
    # one of them (earlier set-up servers are gone, so theirs may not).
    sent: dict[str, list[Page]] = {
        name: [warmups[-1][index].pages[0]] for index, name in enumerate(ranking)
    }
    stride = RECRAWL_PAGES_PER_REQUEST // RECRAWL_REPEATS
    stream = []
    for name in draws:
        if len(pools[name]) < fresh_per_request:
            break
        pages = []
        for position in range(RECRAWL_PAGES_PER_REQUEST):
            if position % stride == stride - 1:
                pages.append(rng.choice(sent[name]))
            else:
                page = pools[name].pop(0)
                sent[name].append(page)
                pages.append(page)
        stream.append(Request(name, pages).encode())
    return ServingInputs(
        [(kb_path, train_dir)],
        warmups,
        stream,
        frozenset(ranking) - held_out,
        kinds,
    )


def workload_properties(
    data: ServingInputs, warmups: list, timed: list, resident_cap: int
) -> dict:
    """Measured properties of the requests actually sent.  The repeat
    share is over the timed requests' pages; a repeat is a page whose
    bytes were sent earlier in the run, warm-ups included."""
    seen = {page.html for request in warmups for page in request.pages}
    repeats = slots = total_bytes = 0
    for request in timed:
        for page in request.pages:
            slots += 1
            total_bytes += len(page.html.encode("utf-8"))
            if page.html in seen:
                repeats += 1
            seen.add(page.html)
    sites = {request.site for request in warmups + timed}
    return {
        "repeat_share": repeats / slots if slots else 0.0,
        "sites": len(sites),
        "resident_cap": resident_cap,
        "unseen_site_share": (
            sum(1 for r in timed if r.site not in data.trained_sites)
            / len(timed) if timed else 0.0
        ),
        "pages_per_request": (
            sum(len(r.pages) for r in timed) / len(timed) if timed else 0.0
        ),
        "bytes_per_page": total_bytes / slots if slots else 0.0,
        "templates_per_site": (
            sum(len(data.kinds[s]) for s in sites) / len(sites)
            if sites else 0.0
        ),
    }
