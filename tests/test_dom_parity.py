"""Parser parity goldens: the exact tree of every generated page and of
~3,000 mutated inputs.

``tests/golden/dom_digests.json`` pins, per input, a canonical digest of
the parsed tree (document-order tags, attributes, ``tag_index``,
``element_index``, text and ``text_index``) or, for inputs the parser
refuses, the error it raises.  The goldens were computed with the parser
that drove CPython 3.11.7's ``html.parser``; :mod:`repro.dom.parser`
ports those rules, so it must reproduce every digest on any Python —
with its plain-token fast path, and with the fast path disabled so that
the ported general rules alone parse everything.

The inputs are the pages of the test-size SWDE (all four verticals),
IMDb and CommonCrawl (hazard sites included) generators plus a seeded,
stdlib-only mutation corpus derived from them: truncations, comments,
declarations, processing instructions, marked sections, script/style
bodies with fake end tags, entity fragments, odd attributes, control
and non-breaking characters inside tags, stray/misnested/implicitly
closed tags, unterminated markup and depth/node-cap bombs.

Regenerate the goldens only for an intended DOM change, and say why::

    PYTHONPATH=src python tests/test_dom_parity.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from repro.datasets import DEFAULT_SITES, VERTICALS, generate_commoncrawl, generate_imdb
from repro.datasets import generate_swde
from repro.dom import parser
from repro.dom.parser import parse_html

GOLDEN = Path(__file__).parent / "golden" / "dom_digests.json"

#: Number of mutated inputs derived from the generated pages.
N_MUTATIONS = 3000

# -- the corpus -------------------------------------------------------------


def generated_pages() -> list[tuple[str, str]]:
    """``(id, html)`` for every page of the test-size generators."""
    pages = []
    for vertical in VERTICALS:
        dataset = generate_swde(vertical, n_sites=10, pages_per_site=4, seed=0)
        for site in dataset.sites:
            for index, page in enumerate(site.pages):
                pages.append((f"swde/{vertical}/{site.name}/{index}", page.html))
    imdb = generate_imdb(seed=0, n_films=12, n_people=10, n_episodes=6)
    for index, page in enumerate(imdb.film_pages + imdb.person_pages):
        pages.append((f"imdb/{index}", page.html))
    roster = tuple(
        dataclasses.replace(
            config,
            n_pages=min(config.n_pages, 6),
            n_noise_pages=min(config.n_noise_pages, 3),
        )
        for config in DEFAULT_SITES
    )
    for site in generate_commoncrawl(seed=0, sites=roster).sites:
        for index, page in enumerate(site.pages):
            pages.append((f"cc/{site.name}/{index}", page.html))
    return pages


_MARKUP = (
    "<!-- note -->", "<!---->", "<!-->", "<!--->", "<!-- a -- b -->",
    "<!-- x --!>", "<!-- x -- >", "-->", "<!DOCTYPE html>",
    '<!doctype html PUBLIC "-//W3C//DTD HTML 4.01//EN">', "<!DOCTYPE",
    '<?xml version="1.0"?>', "<?php echo 1; ?>", "<![CDATA[ a < b ]]>",
    "<![CDATA[x]] >", "<![cdata[<p>y</p>]]>", "<![if !IE]>", "<![endif]>",
    "<![ignore[ z ]]>", "<!x>", "<!>", "</>", "<! x>", "<!-", "<!--", "<?",
    "<!", "<![", "<![CDATA[", "<![foo]>", "<![ x]>", "<!--<p>hidden</p>-->",
    "<!--a><!--b>", "<![CDATA[x><!-- c -->", "<!--a><![if x]>b<![endif]>",
    "<![CDATA[a><![CDATA[b]]>",
)

_RAW_TEXT = (
    "<script>if (a</b) { x = '</div>'; }</script>",
    '<script>var s = "</scr" + "ipt>";</script>',
    '<script type="text/javascript">a &amp; b < c</script>',
    "<SCRIPT>document.write('<p>x</p>')</script >",
    "<style>p > a { color: red }</STYLE>",
    "<style>/* </styles> */ b{}</style>",
    "<script>x</script y>",
    "<script>never closed ",
    "<script/>after",
    "<style/>",
    "</ script>",
    "<script>a</ script>b</script>",
    "<script><!-- </script> -->",
    "<script>\n</SCRIPT\n>",
    "<textarea></script></textarea>",
    "<style>",
)

_ENTITIES = (
    "&amp;", "&amp", "&ampx", "&AMP;", "&#65;", "&#x41;", "&#X41", "&#x;",
    "&#;", "&#1;", "&#0;", "&#xD800;", "&#1114112;", "&#128;", "&notit;",
    "&notin", "&", "&;", "&&", "&#65", "&lt;b&gt;", "&nbsp;", "&Aacute",
    "&zz;", "&#x1F600;", "& amp;", "&#9999999999;", "&amp;amp;", "&#38;",
)

_ATTRIBUTES = (
    " disabled", " data-x='y z'", " a=b", ' a = "b"', ' a=="b"',
    ' class="dup" class="second"', ' A="1" a="2"', ' x="1"y="2"', ' e=""',
    ' t="a>b"', ' u="&amp;&lt;"', " v='it&apos;s'", " w=x/", " /",
    ' z="unterminated', ' "q"', " =x", ' on:click.prevent="go"', " ID=Main",
    " b=&amp;c", "/", ' s="a\nb"', " n=''", ' k="&#1;"',
)

_ODD_CHARS = ("\x0b", "\xa0", "\x00", "\x0c", "\r", " ", "\x1f", "\t")

_STRUCTURE = (
    "</span>", "</p>", "</html>", "</body>", "</td>", "</br>", "</img>",
    "<b><i>x</b>y</i>", "<p>a<p>b", "<li>x", "<td>y", "<tr>", "<thead>",
    "<tbody>", "<dt>a<dd>b", "<option>o", "<p/>", "<div/>", "<br></br>",
    "<html>", "<body>", "<table><tr><td>1<td>2<tr><td>3</table>",
    "<ul><li>1<li>2</ul>", "</div></div></div>", "<div><span>",
    "<table><tr><th>h<th>i<tr><td>1</table>", "<dl><dt>a<dd>b<dt>c</dl>",
    "<select><option>a<option>b</select>", "<p>a<p/>b</p>", "<li>x<li/>y",
    "<table><thead><tr><th>x<tbody><tr><td>y</table>", "<tr><td>a<th>b",
)

_LT_NOISE = (
    "< b", "<3", "a < b", "<<", "<>", "</ a>", '</a b="c">', "</a\n>",
    "<a<b>", "</a<b>", "<", "</", "<a", "</3>", "<-->", "<a/b>", "<a =b>",
    "<a\x00>", "</A>", "<a b='x'c>", "<a\n\nhref='q'>",
)

_UNTERMINATED = ('<a x="1" ', "<!--", "</a", "<!x", "<?x", "<![CDATA[", "<a&amp\x00",
                 "<a\"\x00 b", "<![foo bar", "<![ x", "<a b='", "<!DOCTYPE x")

_TAG = re.compile(r"<([a-zA-Z][a-zA-Z0-9]*)")
_END_TAG = re.compile(r"</[a-zA-Z][a-zA-Z0-9]*>")
_BOUNDARY = re.compile(r"[<>]")


def _position(rng: random.Random, html: str) -> int:
    """A random offset: half the time anywhere, half at a tag boundary."""
    if rng.random() < 0.5 or "<" not in html:
        return rng.randint(0, len(html))
    offsets = [m.start() + (m.group() == ">") for m in _BOUNDARY.finditer(html)]
    return rng.choice(offsets)


def _insert(rng: random.Random, html: str, snippet: str) -> str:
    at = _position(rng, html)
    return html[:at] + snippet + html[at:]


def _truncate(rng, html):
    return html[: _position(rng, html)]


def _markup(rng, html):
    return _insert(rng, html, rng.choice(_MARKUP))


def _raw_text(rng, html):
    return _insert(rng, html, rng.choice(_RAW_TEXT))


def _entities(rng, html):
    entity = rng.choice(_ENTITIES)
    values = [m.end() for m in re.finditer(r'="', html)]
    if values and rng.random() < 0.4:
        at = rng.choice(values)
        return html[:at] + entity + html[at:]
    return _insert(rng, html, entity)


def _tag_end(rng, html):
    """Offset just past a random start tag's name, or ``None``."""
    names = list(_TAG.finditer(html))
    return rng.choice(names).end() if names else None


def _attributes(rng, html):
    at = _tag_end(rng, html)
    if at is None:
        return html
    if rng.random() < 0.25:  # uppercase the whole tag
        close = html.find(">", at)
        close = len(html) if close < 0 else close
        start = html.rfind("<", 0, at)
        return html[:start] + html[start:close].upper() + html[close:]
    return html[:at] + rng.choice(_ATTRIBUTES) + html[at:]


def _odd_chars(rng, html):
    at = _tag_end(rng, html)
    if at is None:
        return _insert(rng, html, rng.choice(_ODD_CHARS))
    close = html.find(">", at)
    close = len(html) if close < 0 else close
    at = rng.choice((at, at - 1, rng.randint(at, close)))
    return html[:at] + rng.choice(_ODD_CHARS) + html[at:]


def _structure(rng, html):
    ends = list(_END_TAG.finditer(html))
    roll = rng.random()
    if ends and roll < 0.2:  # drop an end tag
        match = rng.choice(ends)
        return html[: match.start()] + html[match.end():]
    if ends and roll < 0.3:  # uppercase an end tag
        match = rng.choice(ends)
        return html[: match.start()] + match.group().upper() + html[match.end():]
    return _insert(rng, html, rng.choice(_STRUCTURE))


def _lt_noise(rng, html):
    return _insert(rng, html, rng.choice(_LT_NOISE))


def _unterminated(rng, html):
    return _truncate(rng, html) + rng.choice(_UNTERMINATED) * rng.randint(1, 40)


_OPERATORS = (
    _truncate, _markup, _raw_text, _entities, _attributes, _odd_chars,
    _structure, _lt_noise, _unterminated,
)


def _bomb(rng: random.Random, html: str) -> tuple[str, int | None, int | None]:
    """A depth or node-cap bomb, or a generated page parsed under caps
    tight enough to trip somewhere inside it."""
    kind = rng.randrange(4)
    if kind == 0:
        cap = rng.randint(3, 40)
        unit = rng.choice(("<div>", "<div><br>", "<p><span>", "<li><ul>", "<b>"))
        nest = unit * (cap + rng.randint(-2, 3))
        return _insert(rng, html, nest + "x"), cap, None
    if kind == 1:
        cap = rng.randint(10, 400)
        unit = rng.choice(("<b>x</b>", "<p>x</p>y", "<br>", "z<!---->"))
        return _insert(rng, html, unit * (cap // 2 + rng.randint(0, cap))), None, cap
    if kind == 2:
        return html, rng.randint(2, 12), None
    return html, rng.randint(5, 1 + html.count("<")), rng.randint(3, 30)


def mutated_inputs(pages) -> list[tuple[str, str, int | None, int | None]]:
    """``(id, html, max_depth, max_nodes)`` for the seeded mutation corpus:
    one to three operators per input, the first cycling through every
    operator; every tenth input is a cap bomb."""
    inputs = []
    for k in range(N_MUTATIONS):
        rng = random.Random(f"dom-parity/{k}")
        _, html = rng.choice(pages)
        if k % 10 == 9:
            html, depth, nodes = _bomb(rng, html)
            inputs.append((f"bomb/{k}", html, depth, nodes))
            continue
        operators = [_OPERATORS[k % len(_OPERATORS)]]
        operators += rng.sample(_OPERATORS, rng.choice((0, 0, 1, 2)))
        for operator in operators:
            html = operator(rng, html)
        inputs.append((f"mut/{k}", html, None, None))
    return inputs


def build_corpus() -> list[tuple[str, str, int | None, int | None]]:
    pages = generated_pages()
    return [(i, html, None, None) for i, html in pages] + mutated_inputs(pages)


# -- the digest -------------------------------------------------------------


def dom_digest(html: str, max_depth: int | None = None, max_nodes: int | None = None) -> str:
    """First 16 hex digits of the sha256 over the canonical tree, or
    ``"<ErrorType>: <message>"`` when the parser refuses the input."""
    try:
        document = parse_html(html, max_depth=max_depth, max_nodes=max_nodes)
    except ValueError as exc:  # cap bombs; unreadable <![… sections
        return f"{type(exc).__name__}: {exc}"
    tokens: list = []
    stack: list = [(document.root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            tokens.append(")")
        elif node.is_text:
            tokens.append(["T", node.text, node.text_index])
        else:
            tokens.append(
                ["E", node.tag, list(node.attrs.items()), node.tag_index, node.element_index]
            )
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
    return hashlib.sha256(json.dumps(tokens).encode()).hexdigest()[:16]


def inputs_digest(corpus) -> str:
    """sha256 over the corpus itself, so a generator change shows up as
    such rather than as a parser mismatch."""
    blob = json.dumps([list(entry) for entry in corpus])
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the tests --------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_inputs_are_the_golden_ones(corpus, golden):
    assert len(corpus) == len(golden["digests"])
    assert inputs_digest(corpus) == golden["inputs_sha256"]


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast-path", "general-rules"])
def test_every_tree_matches_its_golden_digest(corpus, golden, fast_path, monkeypatch):
    if not fast_path:
        monkeypatch.setattr(parser, "_FAST_TOKEN", re.compile(r"(?!)"))
    digests = golden["digests"]
    mismatched = [
        entry_id
        for entry_id, html, max_depth, max_nodes in corpus
        if dom_digest(html, max_depth, max_nodes) != digests[entry_id]
    ]
    assert not mismatched, f"{len(mismatched)} trees differ, e.g. {mismatched[:10]}"


@pytest.mark.parametrize(
    "unit", ['<a x="1" ', "<!--", "</a", "<!x", "<?x", "<!--x>", "<![CDATA[x>"]
)
def test_a_megabyte_of_unterminated_markup_parses_in_linear_time(unit):
    """Past the last ``>`` nothing can become markup, and a comment or
    ``<![…]`` section that finds no close once never will.  The
    html.parser rules re-scan the rest of the input at each one: 72 KB of
    ``<a x="1" `` took 18 s, 120 KB of ``<!--x>`` 6.8 s, and 1 MB would
    take hours."""
    html = "<p>lead</p>" + unit * (1_000_000 // len(unit))
    start = time.perf_counter()
    document = parse_html(html)
    elapsed = time.perf_counter() - start
    tail = document.root.children[-1]
    assert tail.is_text and tail.text == html[len("<p>lead</p>"):]
    assert elapsed < 2.0, elapsed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dom_parity.py --write")
    entries = build_corpus()
    GOLDEN.write_text(
        json.dumps(
            {
                "inputs_sha256": inputs_digest(entries),
                "digests": {
                    entry_id: dom_digest(html, max_depth, max_nodes)
                    for entry_id, html, max_depth, max_nodes in entries
                },
            },
            indent=0,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} digests to {GOLDEN}")
