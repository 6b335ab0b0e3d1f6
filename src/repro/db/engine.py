"""StaccatoDB: the RDBMS-integrated query engine.

This is the system a user of the paper's prototype touches: ingest scanned
documents (through the OCR channel) into SQLite, then ask ``LIKE`` /
regex queries against any of the storage approaches:

* ``"map"``      -- rank-0 string only (what Google Books keeps);
* ``"kmap"``     -- the k best strings per line: Staccato at m = 1;
* ``"fullsfa"``  -- the complete automaton;
* ``"staccato"`` -- the chunked approximation (the contribution).

Every approach is evaluated as a compiled kernel: a line stores one per
approach its ingest named -- ``kmap`` and ``staccato`` unless it asked
for ``fullsfa`` too -- and ``map`` derives its kernel from the rank-0
string of the ``kmap`` one as it reads it, so it has no copy of its own.
A query over an approach no line of a non-empty file stores is an
:class:`ApproachNotStored` error, never an empty relation.  ``search``
is the filescan plan (read every line's kernel); ``indexed_search`` is the
index plan of Section 4 (anchor lookup in the inverted index, then
evaluate only candidate lines, optionally on the projected window).
Both return the ranked probabilistic relation of
:class:`repro.query.Answer` rows.

The index is a fact of the file, not of a handle: ``build_index``
stores the postings (computed from the stored kernels), the dictionary
(``IndexTerms``), its digest, the approach and a coverage mark in one
transaction; ``ingest`` indexes new lines under the stored dictionary
in the transaction that stores them; and the index plan scans whatever
lines the mark does not cover, so it answers over every ingested line.
Every decision that uses the index reads it from the file
(:meth:`StaccatoDB.stored_index`); no handle keeps a copy.
"""

from __future__ import annotations

import os
import re
import sqlite3
import time
from typing import Iterable

from .. import counters
from ..automata.trie import DictionaryTrie
from ..indexing.anchors import anchor_for_query
from ..indexing.inverted import build_kernel_postings
from ..indexing.postings import Posting
from ..ocr.corpus import Dataset
from ..ocr.engine import SimulatedOcrEngine
from ..query.answers import Answer, rank_answers
from ..query.eval_kernel import KernelBatch, KernelEvaluator, LineResult
from ..query.like import compile_like
from ..query.memo import KernelMemo, ScanImage, query_fingerprint
from ..tracing import span
from . import storage, upgrade
from .schema import create_schema

__all__ = [
    "StaccatoDB",
    "APPROACHES",
    "ApproachNotStored",
    "shard_path",
    "shard_paths",
]

APPROACHES = storage.APPROACHES

#: File-name pattern of one shard inside a shard directory.
SHARD_FILE_FORMAT = "shard-{index:04d}.db"
_ALIAS_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def shard_path(shard_dir: str, index: int) -> str:
    """The canonical file path of shard ``index`` under ``shard_dir``."""
    if index < 0:
        raise ValueError("shard index must be >= 0")
    return os.path.join(shard_dir, SHARD_FILE_FORMAT.format(index=index))


def shard_paths(shard_dir: str, num_shards: int) -> list[str]:
    """Canonical paths of an N-shard layout (files need not exist yet)."""
    if num_shards < 1:
        raise ValueError("a sharded layout needs at least one shard")
    return [shard_path(shard_dir, i) for i in range(num_shards)]


#: Default BFS depth for projected evaluation: matches can span at most a
#: few chunks beyond the anchor in the workloads we reproduce.
DEFAULT_WINDOW = 24

#: The result of a line the character-pair filter rules out: probability
#: 0, no DP work; memoized as this one object.
_PRUNED = LineResult(0.0, 0, 0)


def _check_approach(approach: str) -> None:
    """Where a read enters the engine: an unknown approach is an error
    on every file, empty or not."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")


class ApproachNotStored(ValueError):
    """A query over an approach no line of a non-empty file stores: it
    was ingested without it (``fullsfa`` is stored only on request)."""

    def __init__(self, approach: str) -> None:
        super().__init__(
            f"no line of this file stores approach {approach!r}; ingest "
            f"with it in 'approaches' to query it"
        )


class StaccatoDB:
    """Probabilistic OCR data management on top of SQLite."""

    def __init__(
        self,
        path: str = ":memory:",
        k: int = 25,
        m: int = 40,
        *,
        check_same_thread: bool = True,
        timeout: float = 30.0,
        kernel_memo: KernelMemo | None = None,
    ) -> None:
        self.path = path
        self.conn = sqlite3.connect(
            path, check_same_thread=check_same_thread, timeout=timeout
        )
        self.k = k
        self.m = m
        #: Cross-request memo and scan images.  A memo passed in is shared
        #: (a pool's readers, a shard's replicas) and outlives a query, so
        #: an index query may build its image (:meth:`_ruled_out`);
        #: ``None`` gives the handle a private one.
        self._shared_memo = True
        if kernel_memo is None:
            kernel_memo = KernelMemo()
            self._shared_memo = False
        self.kernel_memo = kernel_memo
        try:
            create_schema(self.conn)
            upgrade.upgrade(self.conn)
        except BaseException:
            self.conn.close()
            raise

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self.conn.close()

    def __enter__(self) -> "StaccatoDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def attach(self, path: str, alias: str) -> None:
        """ATTACH another StaccatoDB file (e.g. a sibling shard) as ``alias``.

        Cross-shard inspection can then address its tables as
        ``alias.MasterData`` etc. from this connection.
        """
        if not _ALIAS_RE.match(alias):
            raise ValueError(f"bad attach alias {alias!r}")
        self.conn.execute(f"ATTACH DATABASE ? AS {alias}", (path,))

    def detach(self, alias: str) -> None:
        """Undo :meth:`attach`."""
        if not _ALIAS_RE.match(alias):
            raise ValueError(f"bad attach alias {alias!r}")
        self.conn.execute(f"DETACH DATABASE {alias}")

    # ------------------------------------------------------------------
    def ingest(
        self,
        dataset: Dataset,
        ocr: SimulatedOcrEngine | None = None,
        approaches: tuple[str, ...] = storage.DEFAULT_APPROACHES,
        workers: int | None = None,
    ) -> int:
        """OCR and store ``dataset`` as ``approaches``; returns the
        number of lines."""
        return self.write_batch(
            storage.build_dataset(
                dataset,
                ocr or SimulatedOcrEngine(),
                k=self.k,
                m=self.m,
                approaches=approaches,
                workers=workers,
                index=self.stored_index(),
            )
        )

    def write_batch(self, built: storage.BuiltBatch) -> int:
        """Store a batch :func:`~repro.db.storage.build_dataset` built
        (once, for every replica of a shard); returns its line count."""
        return storage.write_batch(self.conn, built)

    @property
    def num_lines(self) -> int:
        """Number of ingested lines (SFAs)."""
        row = self.conn.execute("SELECT COUNT(*) FROM MasterData").fetchone()
        return row[0]

    def storage_bytes(self, approach: str) -> int:
        """Bytes the file holds for the approach."""
        return storage.approach_storage_bytes(self.conn, approach)

    # ------------------------------------------------------------------
    def _kernel_scan(
        self,
        pattern: str,
        query,
        approach: str,
        keys: list[int],
        keyed: bool = False,
        scan=None,
    ) -> dict[int, float]:
        """Per-line match probabilities for a filescan over ``keys``: the
        batched DP over their compiled kernels.  Lines deleted
        concurrently are absent from the result.  ``query`` is
        ``pattern`` compiled, or ``None`` to compile it only when a line
        needs evaluating: a scan the memo answers whole compiles nothing.

        The scan reads the table's ``(DataKey, Fingerprint)`` listing
        first and probes the handle's :class:`~repro.query.memo.KernelMemo`
        per (kernel fingerprint, query fingerprint); only if lines are
        left does it need kernels, and then it takes the *scan image* --
        every stored kernel decoded and laid out once -- if the listing
        just read is the one the image was built from, else rebuilds it
        from one bulk blob read.  A ``keyed`` scan (an index plan's few
        candidates) probes the memo too but reads its blobs in one keyed
        read and decodes them per query.

        A line without a row of the approach is not in the relation; a
        blob the codec rejects fails the scan (``SfaError``); no row of
        it in a non-empty file is :class:`ApproachNotStored`.  ``map``
        reads the ``kmap`` rows and derives each line's rank-0 kernel
        (``storage.decode_kernel``): its image and memo entries are its own.

        Before the DP, every pending line is checked against the
        pattern's required character pairs (``KernelBatch.spells``): a
        line that cannot spell one has probability exactly 0, is
        memoized as ``(0.0, 0, 0)`` and counted in ``lines_pruned``.
        The DP runs over the batch seeded at the other pending lines
        only, so their probabilities are unchanged.

        Counters stay exact: ``dp_cells``/``dp_transitions`` are summed
        from the per-line results of the DP actually executed (memo hits
        did no DP work and add nothing beyond ``memo_hits``), and the
        batched totals equal the sum of per-line evaluations bit for
        bit.  ``scan`` is the enclosing ``engine_scan`` span, if traced.
        """
        memo = self.kernel_memo
        if keyed:
            stored = storage.load_kernel_blobs(self.conn, approach, keys)
            fingerprints = {key: row[0] for key, row in stored.items()}
        else:
            listing = storage.kernel_listing(self.conn, approach)
            fingerprints = dict(listing)
        if keys and not fingerprints:
            self._require_stored(approach)
        query_fp = query_fingerprint(pattern)
        probs: dict[int, float] = {}
        pending: list[tuple[int, str]] = []  # (DataKey, fingerprint)
        hits = misses = 0
        for data_key in keys:
            fingerprint = fingerprints.get(data_key)
            if fingerprint is None:
                continue  # no row of the approach: not in the relation
            value = memo.get(fingerprint, query_fp)
            if value is not None:
                hits += 1
                probs[data_key] = value[0]
                continue
            misses += 1
            pending.append((data_key, fingerprint))
        if pending and keyed:
            batch = KernelBatch(
                [storage.decode_kernel(approach, k, stored[k][1]) for k, _ in pending]
            )
            lines = range(len(pending))
        elif pending:
            image = self._scan_image(approach, listing, scan)
            # With the image's own fingerprints: it may have been rebuilt
            # from a later snapshot, without a line deleted since.
            pending = [
                (key, image.fingerprints[image.lines[key]])
                for key, _ in pending
                if key in image.lines
            ]
            batch = image.batch
            lines = [image.lines[key] for key, _ in pending]
        cells = transitions = pruned = 0
        if pending:
            if query is None:
                query = compile_like(pattern)
            # A line that cannot spell a pair every match contains has
            # probability exactly 0: it skips the DP.
            spelled = batch.spells(query.required_pairs, lines)
            results = iter(
                KernelEvaluator(query).evaluate_batch(
                    batch, lines=[ln for ln, ok in zip(lines, spelled) if ok]
                )
            )
            for (data_key, fingerprint), ok in zip(pending, spelled):
                result = next(results) if ok else _PRUNED
                pruned += not ok
                probs[data_key] = result.probability
                cells += result.dp_cells
                transitions += result.dp_transitions
                # Pruned lines share one value: most misses are pruned.
                value = tuple(result) if ok else _PRUNED
                memo.put(fingerprint, query_fp, value)
        counters.add(
            dp_cells=cells,
            dp_transitions=transitions,
            lines_pruned=pruned,
            memo_hits=hits,
            memo_misses=misses,
        )
        if scan is not None:
            scan.annotate(pruned=pruned)
        return probs

    def _scan_image(self, approach: str, listing, scan, build=True):
        """The memo's scan image for ``approach`` if ``listing`` (just
        read) is what it was built from, else a fresh one -- or None,
        unless ``build``."""
        image = self.kernel_memo.scan_image(approach, listing)
        state = "hit" if image else "none"
        if image is None and build:
            image = self._build_scan_image(approach)
            state = "built"
        if scan is not None:
            lines = len(image.lines) if image else 0
            scan.annotate(image=state, image_lines=lines)
        return image

    def _build_scan_image(self, approach: str) -> ScanImage:
        """Fetch, decode and lay out every stored kernel of ``approach``
        and install the result on the memo.  The listing is taken from
        the statement that returned the blobs, so image and listing are
        one snapshot.
        """
        with span("scan_image_build", approach=approach) as build:
            started = time.perf_counter()
            stored = storage.load_kernel_blobs(self.conn, approach)
            listing = sorted((key, row[0]) for key, row in stored.items())
            fetched = time.perf_counter()
            kernels = []
            lines: dict[int, int] = {}
            fingerprints: list[str] = []
            blob_bytes = 0
            for data_key, fingerprint in listing:
                blob = stored[data_key][1]
                kernel = storage.decode_kernel(approach, data_key, blob)
                lines[data_key] = len(kernels)
                kernels.append(kernel)
                fingerprints.append(fingerprint)
                blob_bytes += len(blob)
            decoded = time.perf_counter()
            batch = KernelBatch(kernels)
            laid_out = time.perf_counter()
            # Without numpy the image is the decoded kernels; their
            # blobs' size stands in for the bytes they hold.
            nbytes = batch.nbytes if batch.laid_out else blob_bytes
            image = ScanImage(listing, lines, fingerprints, batch, nbytes)
            retained = self.kernel_memo.install_scan_image(approach, image)
            if build is not None:
                build.annotate(
                    lines=len(kernels),
                    bytes=nbytes,
                    retained=retained,
                    fetch_ms=round((fetched - started) * 1000.0, 3),
                    decode_ms=round((decoded - fetched) * 1000.0, 3),
                    layout_ms=round((laid_out - decoded) * 1000.0, 3),
                )
        return image

    def _projected_probabilities(
        self, query, candidates: dict[int, set[Posting]], ev=None
    ) -> dict[int, float]:
        """The index plan's projection (paper Section 4): each candidate's
        kernel replayed on the windows of its postings only.

        Candidates are first judged against the pattern's required
        character pairs on the scan image (:meth:`_ruled_out`): one that
        cannot spell them has probability exactly 0 -- a projected match
        spells a substring of a path of the full kernel -- is counted in
        ``lines_pruned`` and is never fetched, decoded or replayed.  The
        rest are fetched in one keyed read of their ``CompiledKernel``
        rows and replayed by one
        :class:`~repro.query.eval_kernel.KernelEvaluator` -- so the DFA
        transition rows are computed once per query, not per candidate.
        Rows are read as in the scan.  ``ev`` is the enclosing
        ``engine_eval`` span, if traced.
        """
        pruned = self._ruled_out(query, candidates, ev)
        fetched = [key for key in candidates if key not in pruned]
        stored = storage.load_kernel_blobs(self.conn, "staccato", fetched)
        evaluator = KernelEvaluator(query)
        probs = dict.fromkeys(pruned, 0.0)
        cells = transitions = 0
        # A candidate deleted concurrently has no row: not in the relation.
        for data_key, (_, blob) in stored.items():
            kernel = storage.decode_kernel("staccato", data_key, blob)
            try:
                result = evaluator.evaluate_projected(
                    kernel,
                    {posting.u for posting in candidates[data_key]},
                    DEFAULT_WINDOW,
                )
            except KeyError:
                continue  # postings of a graph this line no longer has
            probs[data_key] = result.probability
            cells += result.dp_cells
            transitions += result.dp_transitions
        counters.add(
            dp_cells=cells, dp_transitions=transitions, lines_pruned=len(pruned)
        )
        return probs

    def _ruled_out(self, query, candidates, ev) -> set[int]:
        """The candidates the scan image's pair bits say cannot spell
        ``query``'s required pairs.

        Only a line the image holds at the fingerprint the table lists
        now is judged; the image is a hit if current, else built
        (annotating ``ev``) on a shared memo only.  A build costs a
        whole-file read, worth more than the keyed fetches it saves only
        if later queries reuse it: not on a private memo (a CLI query)
        nor once the approach's image has not fit the memo's budget.
        """
        pairs = query.required_pairs
        held = not self._shared_memo  # a private memo builds none here
        if not pairs or not self.kernel_memo.image_fits("staccato", held):
            return set()
        listing = storage.kernel_listing(self.conn, "staccato")
        image = self._scan_image("staccato", listing, ev, self._shared_memo)
        if image is None:
            return set()
        listed = dict(listing)
        judged, lines = [], []
        for data_key in candidates:
            line = image.lines.get(data_key)
            if line is None or listed.get(data_key) != image.fingerprints[line]:
                continue  # not in the image as the table lists it now
            judged.append(data_key)
            lines.append(line)
        spelled = image.batch.spells(pairs, lines)
        return {key for key, ok in zip(judged, spelled) if not ok}

    def _require_stored(self, approach: str) -> None:
        """Raise :class:`ApproachNotStored` if the file has lines but
        none can be read as ``approach`` (``storage.approach_stored``):
        the check a read makes when it found no row of the approach."""
        if not storage.approach_stored(self.conn, approach) and self.num_lines:
            raise ApproachNotStored(approach)

    def _answers(
        self, keys: Iterable[int], probs: dict[int, float]
    ) -> list[Answer]:
        """The unranked relation: one row per key of positive probability."""
        answers = []
        for data_key in keys:
            prob = probs.get(data_key)
            if prob is None or prob <= 0.0:
                continue
            try:
                doc_id, line_no = storage.line_metadata(self.conn, data_key)
            except KeyError:
                # The line vanished between the key listing and its
                # evaluation -- a concurrent delete committed (e.g. a
                # rebalance moved it to another shard after copying it
                # there).  It is no longer part of this file's relation;
                # autocommit readers see each statement's latest state.
                continue
            answers.append(
                Answer(
                    line_id=data_key,
                    doc_id=doc_id,
                    line_no=line_no,
                    probability=prob,
                )
            )
        return answers

    def search(
        self,
        like: str,
        approach: str = "staccato",
        num_ans: int | None = 100,
        data_keys: Iterable[int] | None = None,
    ) -> list[Answer]:
        """Filescan query plan: evaluate the predicate on every line (or
        on ``data_keys``).  :class:`ApproachNotStored` if no line of a
        non-empty file stores ``approach``."""
        _check_approach(approach)
        keys = (
            list(data_keys)
            if data_keys is not None
            else storage.all_data_keys(self.conn)
        )
        with span(
            "engine_scan",
            approach=approach,
            image="none",
            image_lines=0,
            pruned=0,
        ) as scan:
            # Collect the DP work done by this scan so the span can carry
            # exact per-request counters; collect() re-folds them into the
            # process aggregate on exit, so /metrics still sees everything.
            with counters.collect() as counts:
                probs = self._kernel_scan(like, None, approach, keys, scan=scan)
                answers = self._answers(keys, probs)
                counters.add(
                    lines_scanned=len(keys), lines_matched=len(answers)
                )
                if scan is not None:
                    scan.annotate(
                        lines=len(keys),
                        matches=len(answers),
                        counters=dict(counts),
                    )
        return rank_answers(answers, num_ans=num_ans)

    # ------------------------------------------------------------------
    def build_index(
        self, dictionary: Iterable[str], approach: str = "staccato"
    ) -> int:
        """Construct the dictionary inverted index (paper Section 4).

        Always a rebuild: one transaction deletes the old postings,
        streams the approach's ``CompiledKernel`` rows a line at a time
        in DataKey order (a line without one has no postings; a
        rejected blob fails the build), inserts each line's postings
        sorted, and records the dictionary, its digest, the approach
        and the coverage mark.  Returns the number of postings the
        table now holds.  :class:`ApproachNotStored` if no line of a
        non-empty file stores ``approach``: nothing is written.
        """
        if approach not in ("kmap", "staccato"):
            raise ValueError(
                "the dictionary index covers 'kmap' or 'staccato' data"
            )
        self._require_stored(approach)
        trie = DictionaryTrie(dictionary)
        count = 0
        with self.conn:
            self.conn.execute("DELETE FROM InvertedIndex")
            for data_key, postings in self._line_postings(approach, trie):
                rows = storage.posting_rows(data_key, postings)
                storage.insert_postings(self.conn, rows)
                count += len(rows)
            self.conn.execute("DELETE FROM IndexTerms")
            self.conn.executemany(
                "INSERT INTO IndexTerms (Term) VALUES (?)",
                [(term,) for term in trie.terms()],
            )
            self.conn.executemany(
                "INSERT OR REPLACE INTO IndexMeta (Key, Value) VALUES (?, ?)",
                [("approach", approach), ("dictionary", trie.digest)],
            )
            (last,) = self.conn.execute(
                "SELECT COALESCE(MAX(DataKey), -1) FROM MasterData"
            ).fetchone()
            storage.set_covered_through(self.conn, last)
        return count

    def _line_postings(self, approach: str, trie: DictionaryTrie):
        """``(DataKey, term -> postings)`` of every stored line that has
        the approach's representation, in DataKey order."""
        for data_key, blob in storage.iter_kernel_blobs(self.conn, approach):
            kernel = storage.decode_kernel(approach, data_key, blob)
            yield data_key, build_kernel_postings(kernel, trie)

    def stored_index(self) -> storage.IndexSpec | None:
        """The file's dictionary index as it is now (one read of
        ``IndexMeta``): its trie, approach and coverage mark; ``None``
        for a file without one."""
        return storage.stored_index(self.conn)

    def _anchored(self, like: str, approach: str):
        """``(index_anchor(like, approach), stored_index())``."""
        index = self.stored_index()
        if index is None or index.approach != approach:
            return None, index
        return anchor_for_query(like, index.trie), index

    def index_anchor(self, like: str, approach: str) -> str | None:
        """The dictionary term the index plan would probe for ``like``:
        its left anchor, when the file's index is over ``approach`` and
        holds it; ``None`` when the plan would fall back to the
        filescan."""
        return self._anchored(like, approach)[0]

    def index_covers(self, like: str, approach: str) -> bool:
        """True when ``indexed_search`` would really use the index plan
        (an index over this approach and a usable anchor), False when it
        would fall back to the filescan."""
        return self.index_anchor(like, approach) is not None

    def index_postings(self, term: str) -> dict[int, set[Posting]]:
        """Posting lists of one term, grouped by line (B-tree probe)."""
        rows = self.conn.execute(
            "SELECT DataKey, U, V, Rank, Offset FROM InvertedIndex "
            "WHERE Term = ?",
            (term.lower(),),
        ).fetchall()
        grouped: dict[int, set[Posting]] = {}
        for data_key, u, v, rank, offset in rows:
            grouped.setdefault(data_key, set()).add(
                Posting(u=u, v=v, rank=rank, offset=offset)
            )
        return grouped

    def uncovered_keys(
        self, index: storage.IndexSpec | None = None
    ) -> list[int]:
        """Lines the stored index does not cover, in DataKey order: the
        ones past the file's ``covered_through`` mark, as ``index``
        records it (:meth:`stored_index`, read now if not given: the
        writer that moves the mark is another connection); every line
        of a file without an index.  Empty unless lines were written by
        a writer that could not index them."""
        if index is None:
            index = self.stored_index()
        covered = index.covered_through if index is not None else -1
        rows = self.conn.execute(
            "SELECT DataKey FROM MasterData WHERE DataKey > ? "
            "ORDER BY DataKey",
            (covered,),
        )
        return [key for (key,) in rows]

    def index_probe(
        self, term: str, index: storage.IndexSpec | None = None
    ) -> tuple[dict[int, set[Posting]], list[int]]:
        """What the index plan evaluates for anchor ``term``: its posting
        lists by (covered) line, and the uncovered lines (``index`` as
        for :meth:`uncovered_keys`)."""
        return self.index_postings(term), self.uncovered_keys(index)

    def line_fraction(self, lines: int) -> float:
        """``lines`` as a fraction of the ingested lines (0 when empty)."""
        total = self.num_lines
        return lines / total if total else 0.0

    def index_selectivity(self, term: str) -> float:
        """Fraction of lines the term's postings touch (Figure 20)."""
        row = self.conn.execute(
            "SELECT COUNT(DISTINCT DataKey) FROM InvertedIndex WHERE Term = ?",
            (term.lower(),),
        ).fetchone()
        return self.line_fraction(row[0])

    def indexed_search(
        self,
        like: str,
        approach: str = "staccato",
        num_ans: int | None = 100,
        use_projection: bool = True,
        probed: tuple[str, dict[int, set[Posting]], list[int]] | None = None,
    ) -> list[Answer]:
        """Index query plan: anchor lookup, then evaluate candidates only.

        Falls back to the filescan plan when the query has no usable left
        anchor or the file has no index over ``approach`` (the paper's
        parser makes the same decision).  A caller that already took the
        anchor from the index over ``approach`` and ran
        :meth:`index_probe` -- the planner, which chose this plan from
        it -- passes ``(anchor, candidates, uncovered)`` as ``probed``.

        Staccato candidates of a match-anywhere query are evaluated on
        the windows of their postings (``use_projection``); any other
        candidate set is a filescan of the candidate lines.  Lines the
        index does not cover are always evaluated whole, by a keyed
        scan, so the plan answers over every ingested line.  Either way
        the stored kernels are what is read, in one keyed fetch -- of
        every candidate, except the projected candidates the scan image
        shows cannot spell the pattern's required character pairs
        (probability 0).  No line stores ``approach``: as for
        :meth:`search`.
        """
        _check_approach(approach)
        if probed is not None:
            anchor, candidates, uncovered = probed
        else:
            (anchor, index), candidates = self._anchored(like, approach), None
            if anchor is None:
                return self.search(like, approach=approach, num_ans=num_ans)
        with span("engine_probe", approach=approach) as probe:
            if candidates is None:
                candidates, uncovered = self.index_probe(anchor, index)
            postings_total = sum(len(p) for p in candidates.values())
            counters.add(
                postings_probed=postings_total,
                index_candidates=len(candidates) + len(uncovered),
            )
            if probe is not None:
                probe.annotate(
                    anchor=anchor,
                    candidates=len(candidates),
                    postings=postings_total,
                    uncovered=len(uncovered),
                )
        if not candidates and not uncovered:
            self._require_stored(approach)
            return []
        query = compile_like(like)
        projected = (
            approach == "staccato" and use_projection and query.match_anywhere
        )
        scanned = uncovered if projected else [*candidates, *uncovered]
        with span(
            "engine_eval",
            projected=projected,
            image="none",
            image_lines=0,
            pruned=0,
        ) as ev:
            with counters.collect() as counts:
                probs: dict[int, float] = {}
                if projected and candidates:
                    probs = self._projected_probabilities(
                        query, candidates, ev
                    )
                if scanned:
                    probs.update(
                        self._kernel_scan(
                            like, query, approach, scanned, keyed=True
                        )
                    )
                answers = self._answers([*candidates, *uncovered], probs)
                counters.add(
                    lines_scanned=len(candidates) + len(uncovered),
                    lines_matched=len(answers),
                )
                if ev is not None:
                    ev.annotate(
                        matches=len(answers),
                        pruned=counts.get("lines_pruned", 0),
                        counters=dict(counts),
                    )
        return rank_answers(answers, num_ans=num_ans)

    # ------------------------------------------------------------------
    def ground_truth_matches(self, like: str) -> set[int]:
        """Line ids whose clean text satisfies the query (for metrics)."""
        query = compile_like(like)
        rows = self.conn.execute("SELECT DataKey, Data FROM GroundTruth")
        return {key for key, text in rows if query.accepts(text)}
