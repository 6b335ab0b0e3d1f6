"""Corpus, request generators and the ``(workload, seed) -> plan`` mapping.

A plan is plain JSON-able data: the documents to ingest, the index
dictionary, every request and their order.  Nothing here talks to a
server or reads a clock, so equal ``(workload, seed, seconds)`` give a
byte-identical plan (``plan_bytes``) and therefore identical counts,
answers, quality numbers and engine counters.

The ground-truth *text* comes from the constant ``CORPUS_SEED``;
``--seed`` drives the OCR channel (hence every stored SFA), which
patterns are asked, and their order.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

from repro.ocr.corpus import make_ca, make_db, make_lt
from repro.ocr.engine import stable_seed
from repro.service.shards import DEFAULT_RANGE_WIDTH

WORKLOADS = ("ingest_build", "scan_cold", "index_auto", "repeat_mixed")

CORPUS_SEED = 2011
LINES_PER_DOC = 8
#: The ``run_seconds`` of BENCHMARK.json.  The request counts below are
#: the work that fills about this many seconds of the measured phase on
#: the two-core box the benchmark was sized on; ``--seconds`` scales
#: them linearly, so work stays a function of the arguments alone.
REF_SECONDS = 10

SQL_TEMPLATE = "SELECT DocId, Loss FROM Claims WHERE DocData LIKE '{}'"
#: How a repeat_mixed read may vary an already-touched pattern: another
#: ``num_ans`` on /search, or the same LIKE through /sql.  Each misses
#: the result LRU and hits the kernel memo.
VARIANTS = (("/search", 10), ("/search", 25), ("/search", 50), ("/sql", 100))


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; only the counts marked *scaled* follow --seconds."""

    m: int
    k: int
    base_docs: int  # documents in the database before a read phase
    mixed_docs: int  # the same for repeat_mixed, split over both shards
    preload_docs: int  # ingest_build: in the database before the timed ingest
    timed_docs: int  # ingest_build: timed ingest (scaled)
    build_reads: int  # ingest_build: reads after the index builds (scaled)
    scan_reads: int  # scan_cold (scaled)
    auto_reads: int  # index_auto (scaled)
    epochs: int  # repeat_mixed (scaled)
    hot: int  # repeat_mixed hot set = first touches per epoch
    variants: int  # repeat_mixed per epoch
    repeats: int  # repeat_mixed per epoch
    warmup: int  # untimed requests per endpoint before a read phase


FULL = Scale(
    m=40, k=25, base_docs=12, mixed_docs=10, preload_docs=3, timed_docs=12,
    build_reads=80, scan_reads=150, auto_reads=450, epochs=5, hot=25,
    variants=45, repeats=30, warmup=5,
)
SMOKE = Scale(
    m=10, k=5, base_docs=3, mixed_docs=2, preload_docs=1, timed_docs=2,
    build_reads=10, scan_reads=20, auto_reads=20, epochs=2, hot=5,
    variants=9, repeats=6, warmup=1,
)

#: Latency classes per workload, cheapest first, as percentage shares of
#: the timed reads.  The cold filescan costs the same for every pattern
#: kind (one class); repeat_mixed is built by quota over three classes.
def latency_classes(workload: str, scale: Scale) -> list[list]:
    if workload != "repeat_mixed":
        return [["cold", 100.0]]
    total = scale.hot + scale.variants + scale.repeats
    return [
        ["lru_hit", 100.0 * scale.repeats / total],
        ["memo_hit", 100.0 * scale.variants / total],
        ["cold", 100.0 * scale.hot / total],
    ]


def percentile_margin(classes: list[list], percentile: float) -> float:
    """Points between ``percentile`` and the nearest class boundary."""
    edges, upto = [], 0.0
    for _, share in classes[:-1]:
        upto += share
        edges.append(upto)
    return min((abs(percentile - edge) for edge in edges), default=100.0)


def scaled(scale: Scale, seconds: float) -> Scale:
    factor = seconds / REF_SECONDS

    def grow(count: int) -> int:
        return max(1, round(count * factor))

    return Scale(
        **{
            **scale.__dict__,
            "timed_docs": grow(scale.timed_docs),
            "build_reads": grow(scale.build_reads),
            "scan_reads": grow(scale.scan_reads),
            "auto_reads": grow(scale.auto_reads),
            "epochs": grow(scale.epochs),
        }
    )


# ----------------------------------------------------------------------
def corpus(num_docs: int, sharded: bool) -> list[dict]:
    """``num_docs`` documents cycling the CA / LT / DB generators.

    On the 2-shard router the ids alternate between the first two
    DocId ranges, so consecutive documents land on alternating shards.
    """
    per_kind = -(-num_docs // 3)
    kinds = [
        maker(num_docs=per_kind, lines_per_doc=LINES_PER_DOC, seed=CORPUS_SEED)
        for maker in (make_ca, make_lt, make_db)
    ]
    docs = []
    for i in range(num_docs):
        source = kinds[i % 3].documents[i // 3]
        doc_id = i // 2 + DEFAULT_RANGE_WIDTH * (i % 2) if sharded else i
        docs.append(
            {
                "doc_id": doc_id,
                "name": source.name,
                "year": source.year,
                "loss": source.loss,
                "lines": list(source.lines),
            }
        )
    return docs


def dictionary(docs: list[dict]) -> list[str]:
    """Every alphabetic ground-truth word of at least four characters."""
    words = set()
    for doc in docs:
        for line in doc["lines"]:
            words.update(
                w.lower() for w in re.findall(r"[A-Za-z]+", line) if len(w) >= 4
            )
    return sorted(words)


def _lines(docs: list[dict]) -> list[str]:
    lines = [line for doc in docs for line in doc["lines"]]
    # Patterns are spliced into LIKE strings, REGEX: bodies and quoted
    # SQL unescaped; the synthetic corpora never contain these.
    assert not any(set(line) & set("%_'()|*\\") for line in lines)
    return lines


def _digits_to_class(text: str) -> str:
    return re.sub(r"\d", r"\\d", text)


def _request(like: str, kind: str, endpoint: str = "/search", num_ans: int = 100) -> dict:
    if endpoint == "/sql":
        body = {"query": SQL_TEMPLATE.format(like), "num_ans": num_ans}
    else:
        body = {"pattern": like, "plan": "filescan", "num_ans": num_ans}
    return {"endpoint": endpoint, "body": body, "like": like, "kind": kind, "cls": "cold"}


def _keyword(rng: random.Random, lines: list[str]) -> str:
    line = rng.choice(lines)
    size = rng.randint(5, 14)
    start = rng.randrange(0, len(line) - size + 1)
    return "%" + line[start : start + size] + "%"


def _digit_regex(rng: random.Random, lines: list[str]) -> str:
    line = rng.choice([text for text in lines if re.search(r"\d", text)])
    digit = rng.choice([m.start() for m in re.finditer(r"\d", line)])
    size = rng.randint(5, 14)
    start = min(max(0, digit - rng.randrange(size)), len(line) - size)
    return "REGEX:" + _digits_to_class(line[start : start + size])


def _wild_regex(rng: random.Random, lines: list[str]) -> str:
    # Both shapes match the line they were cut from: a gap between two
    # of its words, or a choice of first word before its real successor.
    words = rng.choice(lines).split(" ")
    first = rng.choice([i for i, w in enumerate(words[:-1]) if len(w) >= 3])
    if rng.random() < 0.5:
        second = rng.randrange(first + 1, len(words))
        return "REGEX:" + words[first] + "(\\x)*" + words[second]
    other = rng.choice([w for w in rng.choice(lines).split(" ") if len(w) >= 3])
    return "REGEX:(" + words[first] + "|" + other + ") " + words[first + 1]


_MAKERS = (("keyword", _keyword), ("digit", _digit_regex), ("wild", _wild_regex))


def scan_patterns(
    rng: random.Random, lines: list[str], count: int, seen: set[str]
) -> list[tuple[str, str]]:
    """``count`` distinct patterns: 60 % keyword, 25 % ``\\d``, 15 % wild."""
    quota = [round(count * 0.60), round(count * 0.25)]
    quota.append(count - sum(quota))
    kinds = [i for i, n in enumerate(quota) for _ in range(n)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        name, maker = _MAKERS[kind]
        while True:
            like = maker(rng, lines)
            if like not in seen:
                break
        seen.add(like)
        out.append((name, like))
    return out


def scan_warmup(rng: random.Random, lines: list[str], count: int, seen: set[str]) -> list[dict]:
    """``count`` untimed requests per endpoint, on patterns of their own."""
    return [
        _request(like, kind, endpoint)
        for endpoint in ("/search", "/sql")
        for kind, like in scan_patterns(rng, lines, count, seen)
    ]


def scan_schedule(seed: int, lines: list[str], count: int, warmup: int):
    """Distinct cold patterns; every fifth request goes through /sql."""
    rng = random.Random(stable_seed("e2e", "scan", seed))
    seen: set[str] = set()
    warm = scan_warmup(rng, lines, warmup, seen)
    reads = [
        _request(like, kind, "/sql" if i % 5 == 4 else "/search")
        for i, (kind, like) in enumerate(scan_patterns(rng, lines, count, seen))
    ]
    return warm, reads


def anchored_schedule(seed: int, lines: list[str], count: int, warmup: int):
    """Left-anchored ``REGEX:<word> <next 3-10 chars>`` patterns, ``auto``.

    Anchors are sorted by ground-truth selectivity and dealt round-robin,
    so every run covers the selectivity range evenly.
    """
    rng = random.Random(stable_seed("e2e", "auto", seed))
    by_anchor: dict[str, set[str]] = {}
    for line in lines:
        at = 0
        for word in line.split(" "):
            rest = line[at + len(word) + 1 :]
            at += len(word) + 1
            if word.isalpha() and len(word) >= 4:
                for cut in range(3, min(10, len(rest)) + 1):
                    by_anchor.setdefault(word.lower(), set()).add(
                        "REGEX:" + word + " " + _digits_to_class(rest[:cut])
                    )
    lowered = [line.lower() for line in lines]
    order = sorted(
        by_anchor, key=lambda a: (sum(a in line for line in lowered), a)
    )
    stacks = {}
    for anchor in order:
        stacks[anchor] = sorted(by_anchor[anchor])
        rng.shuffle(stacks[anchor])
    picked: list[str] = []
    while len(picked) < count + warmup:
        before = len(picked)
        for anchor in order:
            if stacks[anchor] and len(picked) < count + warmup:
                picked.append(stacks[anchor].pop())
        if len(picked) == before:
            raise ValueError(f"corpus yields only {before} anchored patterns")

    def request(like: str) -> dict:
        req = _request(like, "anchored")
        req["body"]["plan"] = "auto"
        return req

    # The warm-up takes the tail, so the timed reads are whole rounds.
    return [request(p) for p in picked[count:]], [request(p) for p in picked[:count]]


def epoch_reads(rng: random.Random, hot: list[tuple[str, str]], scale: Scale) -> list[dict]:
    """One repeat_mixed epoch: first touches, variants and exact repeats.

    Kinds are drawn at random among the feasible ones (a variant or a
    repeat needs an earlier touch), so classes interleave as in real
    traffic while the per-epoch quota is met exactly.
    """
    left = {"first": len(hot), "variant": scale.variants, "repeat": scale.repeats}
    untouched = list(range(len(hot)))
    rng.shuffle(untouched)
    unused: dict[int, list] = {}
    issued: list[dict] = []
    while any(left.values()):
        feasible = [
            kind
            for kind, n in left.items()
            if n and (kind == "first" or (issued and (kind == "repeat" or unused)))
        ]
        kind = rng.choices(feasible, [left[f] for f in feasible])[0]
        left[kind] -= 1
        if kind == "first":
            index = untouched.pop()
            unused[index] = list(VARIANTS)
            request = _request(hot[index][1], hot[index][0])
        elif kind == "variant":
            index = rng.choice(sorted(unused))
            endpoint, num_ans = unused[index].pop(rng.randrange(len(unused[index])))
            if not unused[index]:
                del unused[index]
            request = _request(hot[index][1], hot[index][0], endpoint, num_ans)
        else:
            request = dict(rng.choice(issued))
        request["cls"] = {"first": "cold", "variant": "memo_hit", "repeat": "lru_hit"}[kind]
        issued.append(request)
    return issued


# ----------------------------------------------------------------------
def build_plan(workload: str, seed: int, seconds: float = REF_SECONDS, smoke: bool = False) -> dict:
    """Everything one run does, as data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seconds = float(seconds)
    scale = scaled(SMOKE if smoke else FULL, seconds)
    sharded = workload == "repeat_mixed"
    if workload == "ingest_build":
        docs = corpus(scale.preload_docs + scale.timed_docs, sharded)
        preload, bulk, live = docs[: scale.preload_docs], docs[scale.preload_docs :], []
        base = docs[: scale.base_docs]
    else:
        ready = scale.mixed_docs if sharded else scale.base_docs
        docs = corpus(ready + (scale.epochs if sharded else 0), sharded)
        preload, bulk, live = [], docs[:ready], docs[ready:]
        base = bulk
    lines = _lines(base)
    if workload == "index_auto":
        warmup, reads = anchored_schedule(seed, lines, scale.auto_reads, scale.warmup)
        epochs = [{"ingest": None, "reads": reads}]
    elif workload == "repeat_mixed":
        rng = random.Random(stable_seed("e2e", "repeat", seed))
        seen: set[str] = set()
        hot = scan_patterns(rng, lines, scale.hot, seen)
        warmup = scan_warmup(rng, lines, scale.warmup, seen)
        epochs = [
            {"ingest": doc, "reads": epoch_reads(rng, hot, scale)} for doc in live
        ]
    else:
        warmup, reads = scan_schedule(seed, lines, scale.scan_reads, scale.warmup)
        if workload == "ingest_build":
            # The head of scan_cold's schedule for this seed: the read
            # cost of whatever the write path stored.
            reads = reads[: scale.build_reads]
        epochs = [{"ingest": None, "reads": reads}]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "m": scale.m,
        "k": scale.k,
        "shards": 2 if sharded else 0,
        "ocr_seed": seed,
        "measured": "ingest" if workload == "ingest_build" else "reads",
        "dictionary": dictionary(docs),
        "preload": preload,
        "bulk": bulk,
        "warmup": warmup,
        "epochs": epochs,
        "classes": latency_classes(workload, scale),
        "text_bytes": sum(len(line) for doc in docs for line in doc["lines"]),
    }


def plan_bytes(plan: dict) -> bytes:
    """The canonical serialisation two equal plans share byte for byte."""
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()


def timed_reads(plan: dict) -> list[dict]:
    return [request for epoch in plan["epochs"] for request in epoch["reads"]]
