"""StaccatoDB: the RDBMS-integrated query engine.

This is the system a user of the paper's prototype touches: ingest scanned
documents (through the OCR channel) into SQLite, then ask ``LIKE`` /
regex queries against any of the storage approaches:

* ``"map"``      -- rank-0 string only (what Google Books keeps);
* ``"kmap"``     -- the k best strings per line;
* ``"fullsfa"``  -- the complete automaton, BLOB per line;
* ``"staccato"`` -- the chunked approximation (the contribution).

``search`` is the filescan plan (read every line's representation);
``indexed_search`` is the index plan of Section 4 (anchor lookup in the
inverted index, then evaluate only candidate lines, optionally on the
projected window).  Both evaluate the stored compiled kernels and
return the ranked probabilistic relation of :class:`repro.query.Answer`
rows.

The index is a fact of the file, not of a handle: ``build_index``
stores the postings (computed from the stored kernels), the dictionary
(``IndexTerms``), its digest, the approach and a coverage mark in one
transaction; ``ingest`` indexes new lines under the stored dictionary
in the transaction that stores them; and the index plan scans whatever
lines the mark does not cover, so it answers over every ingested line.
"""

from __future__ import annotations

import glob
import os
import re
import sqlite3
import time
from typing import Iterable

from .. import counters
from ..automata.trie import DictionaryTrie
from ..indexing.anchors import anchor_for_query
from ..indexing.inverted import build_kernel_postings, build_kmap_postings
from ..indexing.postings import Posting
from ..ocr.corpus import Dataset
from ..ocr.engine import SimulatedOcrEngine
from ..query.answers import Answer, rank_answers
from ..query.eval_kernel import KernelBatch, KernelEvaluator
from ..query.eval_strings import match_probability_strings
from ..query.like import compile_like
from ..query.memo import KernelMemo, ScanImage, query_fingerprint
from ..sfa.kernel import compile_kernel, kernel_from_bytes
from ..sfa.model import SfaError
from . import storage
from .schema import create_schema

__all__ = [
    "StaccatoDB",
    "APPROACHES",
    "shard_path",
    "shard_paths",
    "discover_shard_paths",
]

APPROACHES = storage.APPROACHES

_trace_span = None


def _span(name: str, **attrs):
    """A service-trace span around engine work (no-op outside a trace).

    The service layer imports this module, so importing
    :mod:`repro.service.trace` at the top would be circular; the first
    traced call resolves it instead.  Outside a traced request the span
    helper is a cheap no-op, so standalone engine use (benchmarks,
    scripts) pays one ContextVar read per query.
    """
    global _trace_span
    if _trace_span is None:
        from ..service.trace import span as _service_span

        _trace_span = _service_span
    return _trace_span(name, **attrs)

#: File-name pattern of one shard inside a shard directory.
SHARD_FILE_FORMAT = "shard-{index:04d}.db"
_SHARD_FILE_RE = re.compile(r"^shard-(\d{4})\.db$")
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


def discover_shard_paths(shard_dir: str) -> list[str]:
    """Existing shard files under ``shard_dir``, in shard-index order."""
    found = []
    for path in glob.glob(os.path.join(shard_dir, "shard-*.db")):
        if _SHARD_FILE_RE.match(os.path.basename(path)):
            found.append(path)
    return sorted(found)


#: Default BFS depth for projected evaluation: matches can span at most a
#: few chunks beyond the anchor in the workloads we reproduce.
DEFAULT_WINDOW = 24

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
        self._trie: DictionaryTrie | None = None
        self._index_approach: str | None = None
        #: Cross-request memo, shared across a pool's connections so any
        #: reader benefits from any other reader's evaluations.
        self.kernel_memo = kernel_memo
        #: False until this handle's first committed write has dropped
        #: kernel rows of lines that no longer exist (files an earlier
        #: rebalance left them in; see ``storage.drop_orphan_kernels``).
        self.orphans_swept = False
        create_schema(self.conn)
        #: Tables of older builds this file has (``storage.legacy_tables``).
        self.legacy_tables = storage.legacy_tables(self.conn)

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
        approaches: tuple[str, ...] = ("kmap", "fullsfa", "staccato"),
        workers: int | None = None,
    ) -> int:
        """OCR and store ``dataset``; returns the number of lines."""
        return self.write_batch(
            storage.build_dataset(
                dataset,
                ocr or SimulatedOcrEngine(),
                k=self.k,
                m=self.m,
                approaches=approaches,
                workers=workers,
                index=self.ingest_index(),
            )
        )

    def ingest_index(self) -> storage.IndexSpec | None:
        """The dictionary a batch for this file should be indexed under:
        the stored one, when this handle can reproduce it (its trie is
        reloaded if another handle rebuilt the index); ``None`` for a
        file without an index or with one that predates the stored
        dictionary -- its new lines stay uncovered until ``build_index``.
        """
        key, _ = storage.index_meta(self.conn)
        if key[0] is None:
            return None
        if self._index_key() != key:
            self.load_index()
            if self._index_key() != key:
                return None
        return storage.IndexSpec(self._trie, self._index_approach)

    def _index_key(self) -> tuple[str | None, str | None]:
        digest = self._trie.digest if self._trie is not None else None
        return (digest, self._index_approach)

    def write_batch(self, built: storage.BuiltBatch) -> int:
        """Store a batch :func:`~repro.db.storage.build_dataset` built
        (once, for every replica of a shard); returns its line count."""
        count = storage.write_batch(
            self.conn, built, sweep_orphans=not self.orphans_swept
        )
        self.orphans_swept = True
        if self.kernel_memo is not None:
            # The shard's generation clock: entries computed against the
            # pre-batch data cannot land after this (put is fenced).
            self.kernel_memo.invalidate()
        return count

    @property
    def num_lines(self) -> int:
        """Number of ingested lines (SFAs)."""
        row = self.conn.execute("SELECT COUNT(*) FROM MasterData").fetchone()
        return row[0]

    def storage_bytes(self, approach: str) -> int:
        """Bytes the file holds for the approach."""
        return storage.approach_storage_bytes(self.conn, approach)

    # ------------------------------------------------------------------
    def _strings_probability(self, query, approach: str, data_key: int) -> float:
        """One line of a string approach (the stored k-MAP strings)."""
        if approach not in ("map", "kmap"):
            raise ValueError(f"unknown approach {approach!r}")
        strings = storage.load_kmap(
            self.conn, data_key, k=1 if approach == "map" else None
        )
        return match_probability_strings(strings, query)

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
        """Batched filescan DP over the compiled kernels of ``keys``.

        With a :class:`~repro.query.memo.KernelMemo` the scan reads the
        table's ``(DataKey, Fingerprint)`` listing first and probes the
        memo per (kernel fingerprint, query fingerprint); only if lines
        are left does it need kernels, and then it takes the shard's
        *scan image* -- every stored kernel decoded and laid out once --
        if the listing just read is the one the image was built from,
        else rebuilds it from one bulk blob read.  The DP then runs over
        the image seeded at the pending lines only.

        Without a memo (library use, the CLI, the benches) and for
        ``keyed`` scans (an index plan's few candidates) nothing is kept
        between queries: blobs come from one bulk or keyed read and are
        decoded and laid out per query -- the paper's filescan.

        Either way, a line without a current-version row (old database
        files) or whose blob the codec rejects is recompiled from its
        ``SFA1`` blob and evaluated beside the rest (a rejected blob
        that is the line's only copy fails the scan instead).

        Counters stay exact: ``dp_cells``/``dp_transitions`` are summed
        from the per-line results of the DP actually executed (memo hits
        did no DP work and add nothing beyond ``memo_hits``), and the
        batched totals equal the sum of per-line evaluations bit for
        bit.  ``scan`` is the enclosing ``engine_scan`` span, if traced.
        """
        memo = self.kernel_memo
        use_image = memo is not None and not keyed
        if use_image:
            stored = {}
            listing = storage.kernel_listing(self.conn, approach)
            fingerprints = dict(listing)
        else:
            stored = storage.load_kernel_blobs(
                self.conn, approach, keys if keyed else None
            )
            fingerprints = {key: row[0] for key, row in stored.items()}
        query_fp = query_fingerprint(pattern) if memo is not None else None
        generation = memo.generation if memo is not None else None
        probs: dict[int, float] = {}
        #: (DataKey, fingerprint, kernel if already recompiled)
        pending: list[tuple] = []
        hits = misses = 0
        for data_key in keys:
            fingerprint = fingerprints.get(data_key)
            kernel = None
            if fingerprint is None:
                kernel = self._recompile_kernel(approach, data_key)
                if kernel is None:
                    continue  # concurrent delete; not part of the relation
                fingerprint = kernel.fingerprint
            if memo is not None:
                value = memo.get(fingerprint, query_fp)
                if value is not None:
                    hits += 1
                    probs[data_key] = value[0]
                    continue
                misses += 1
            pending.append((data_key, fingerprint, kernel))
        image = None
        if use_image and any(job[2] is None for job in pending):
            image = self._scan_image(approach, listing, scan)
        in_image: list[tuple[int, str, int]] = []  # ..., line position
        beside: list[tuple] = []  # ..., kernel
        for data_key, fingerprint, kernel in pending:
            if kernel is None and image is not None:
                line = image.lines.get(data_key)
                if line is not None:
                    # The image's own fingerprint: it may have been
                    # rebuilt from a later snapshot than the listing.
                    in_image.append(
                        (data_key, image.fingerprints[line], line)
                    )
                    continue
            if kernel is None:
                kernel = self._decode_kernel(
                    approach, data_key, stored.get(data_key)
                )
                if kernel is None:
                    continue
            beside.append((data_key, fingerprint, kernel))
        cells = transitions = 0
        if in_image or beside:
            if query is None:
                query = compile_like(pattern)
            evaluator = KernelEvaluator(query)
            results = []
            if in_image:
                results += evaluator.evaluate_batch(
                    image.batch, lines=[line for _, _, line in in_image]
                )
            if beside:
                results += evaluator.evaluate_batch(
                    [kernel for _, _, kernel in beside]
                )
            for (data_key, fingerprint, _), result in zip(
                in_image + beside, results
            ):
                probs[data_key] = result.probability
                cells += result.dp_cells
                transitions += result.dp_transitions
                if memo is not None:
                    memo.put(
                        fingerprint, query_fp, tuple(result), generation
                    )
        counters.add(
            dp_cells=cells,
            dp_transitions=transitions,
            memo_hits=hits,
            memo_misses=misses,
        )
        return probs

    def _scan_image(self, approach: str, listing, scan) -> ScanImage:
        """The memo's scan image for ``approach`` if ``listing`` (just
        read) is what it was built from, else a fresh one."""
        image = self.kernel_memo.scan_image(approach, listing)
        state = "hit"
        if image is None:
            image = self._build_scan_image(approach)
            state = "built"
        if scan is not None:
            scan.annotate(image=state, image_lines=len(image.lines))
        return image

    def _build_scan_image(self, approach: str) -> ScanImage:
        """Fetch, decode and lay out every stored kernel of ``approach``
        -- a memo-less filescan's per-query work -- and install the
        result on the memo.  The listing is taken from the statement
        that returned the blobs, so image and listing are one snapshot.
        """
        with _span("scan_image_build", approach=approach) as build:
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
                try:
                    kernel = kernel_from_bytes(blob)
                except SfaError:
                    continue  # each scan recompiles this line from SFA1
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
        self, query, candidates: dict[int, set[Posting]], window: int
    ) -> dict[int, float]:
        """The index plan's projection (paper Section 4): each candidate's
        kernel replayed on the windows of its postings only.

        One keyed read of the candidates' ``CompiledKernel`` rows, one
        :class:`~repro.query.eval_kernel.KernelEvaluator` -- so the DFA
        transition rows are computed once per query, not per candidate.
        Rows missing or rejected fall back to ``SFA1`` as in the scan.
        """
        stored = storage.load_kernel_blobs(
            self.conn, "staccato", list(candidates)
        )
        evaluator = KernelEvaluator(query)
        probs: dict[int, float] = {}
        cells = transitions = 0
        for data_key, postings in candidates.items():
            kernel = self._decode_kernel(
                "staccato", data_key, stored.get(data_key)
            )
            if kernel is None:
                continue  # concurrent delete; not part of the relation
            try:
                result = evaluator.evaluate_projected(
                    kernel, {posting.u for posting in postings}, window
                )
            except KeyError:
                continue  # postings of a graph this line no longer has
            probs[data_key] = result.probability
            cells += result.dp_cells
            transitions += result.dp_transitions
        counters.add(dp_cells=cells, dp_transitions=transitions)
        return probs

    def _decode_kernel(
        self, approach: str, data_key: int, row: tuple[str, bytes] | None
    ):
        """The kernel of one ``load_kernel_blobs`` row; a line without a
        row, or with a blob the codec rejects despite its version tag,
        is recompiled from its ``SFA1`` blob."""
        if row is not None:
            try:
                return kernel_from_bytes(row[1])
            except SfaError:
                pass
        return self._recompile_kernel(approach, data_key)

    def _recompile_kernel(self, approach: str, data_key: int):
        """Kernel fallback path: lower the stored ``SFA1`` blob now (the
        chunk graph; a FullSFA has one only in files of older builds)."""
        try:
            if approach == "staccato":
                return compile_kernel(storage.load_staccato(self.conn, data_key))
            return compile_kernel(
                storage.load_fullsfa(self.conn, data_key, self.legacy_tables)
            )
        except KeyError:
            return None

    def _scan_probabilities(
        self,
        pattern: str,
        query,
        approach: str,
        keys: list[int],
        keyed: bool = False,
        scan=None,
    ) -> dict[int, float]:
        """Per-line match probabilities for a filescan over ``keys``.

        Automaton approaches go through the batched kernel scan; the
        string approaches (map/kmap) evaluate per line as before.  Lines
        deleted concurrently are absent from the result.  ``query`` is
        ``pattern`` compiled, or ``None`` to compile it only when a line
        needs evaluating: a scan the memo answers whole compiles nothing.
        """
        if approach in ("staccato", "fullsfa"):
            return self._kernel_scan(
                pattern, query, approach, keys, keyed, scan
            )
        if query is None:
            query = compile_like(pattern)
        probs: dict[int, float] = {}
        for data_key in keys:
            try:
                probs[data_key] = self._strings_probability(
                    query, approach, data_key
                )
            except KeyError:
                continue
        return probs

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
        """Filescan query plan: evaluate the predicate on every line."""
        keys = (
            list(data_keys)
            if data_keys is not None
            else storage.all_data_keys(self.conn)
        )
        with _span(
            "engine_scan", approach=approach, image="none", image_lines=0
        ) as scan:
            # Collect the DP work done by this scan so the span can carry
            # exact per-request counters; collect() re-folds them into the
            # process aggregate on exit, so /metrics still sees everything.
            with counters.collect() as counts:
                probs = self._scan_probabilities(
                    like, None, approach, keys, scan=scan
                )
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
        streams the stored representation a line at a time in DataKey
        order (``staccato``: the ``CompiledKernel`` rows, a line without
        a current row or with a rejected blob recompiled from ``SFA1``
        as in the scan; ``kmap``: the stored strings), inserts each
        line's postings sorted, and records the dictionary, its digest,
        the approach and the coverage mark.  Returns the number of
        postings the table now holds.
        """
        if approach not in ("kmap", "staccato"):
            raise ValueError(
                "the dictionary index covers 'kmap' or 'staccato' data"
            )
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
        self._trie = trie
        self._index_approach = approach
        return count

    def _line_postings(self, approach: str, trie: DictionaryTrie):
        """``(DataKey, term -> postings)`` of every stored line that has
        the approach's representation, in DataKey order."""
        if approach == "kmap":
            for data_key in storage.all_data_keys(self.conn):
                try:
                    strings = storage.load_kmap(self.conn, data_key)
                except KeyError:
                    continue
                yield data_key, build_kmap_postings(strings, trie)
            return
        for data_key, blob in storage.iter_kernel_blobs(self.conn, approach):
            kernel = self._decode_kernel(
                approach, data_key, ("", blob) if blob is not None else None
            )
            if kernel is not None:
                yield data_key, build_kernel_postings(kernel, trie)

    def stored_index_approach(self) -> str | None:
        """The approach the persisted index was built over, if recorded."""
        row = self.conn.execute(
            "SELECT Value FROM IndexMeta WHERE Key = 'approach'"
        ).fetchone()
        return row[0] if row else None

    def load_index(self, approach: str | None = None) -> bool:
        """Rebuild the in-memory anchor trie from the stored index.

        ``build_index`` persists its postings, its dictionary and which
        approach they were built over, but keeps the trie only on the
        instance that built it.  A pooled connection
        (:mod:`repro.service.pool`) opened later against the same file
        calls this to recover the trie from ``IndexTerms`` -- every term,
        with or without a posting -- so indexed plans work, and probe the
        same anchors, on every connection; a file that predates the
        stored dictionary falls back to the terms ``InvertedIndex``
        mentions.  The recorded approach always wins -- a posting's
        ``(U, V)`` coordinates only mean anything against the
        representation that produced them -- so ``approach`` is just a
        fallback for databases predating the ``IndexMeta`` record.
        Returns ``True`` when an index was found.
        """
        terms = [
            term for (term,) in self.conn.execute("SELECT Term FROM IndexTerms")
        ] or [
            term
            for (term,) in self.conn.execute(
                "SELECT DISTINCT Term FROM InvertedIndex"
            )
        ]
        if not terms:
            return False
        self._trie = DictionaryTrie(terms)
        self._index_approach = (
            self.stored_index_approach() or approach or "staccato"
        )
        return True

    def index_anchor(self, like: str, approach: str) -> str | None:
        """The dictionary term the index plan would probe for ``like``:
        its left anchor, when the trie is loaded for this approach and
        holds it; ``None`` when the plan would fall back to the filescan."""
        if self._trie is None or self._index_approach != approach:
            return None
        return anchor_for_query(like, self._trie)

    def index_covers(self, like: str, approach: str) -> bool:
        """True when ``indexed_search`` would really use the index plan
        (trie loaded for this approach and the query has a usable anchor),
        False when it would silently fall back to the filescan."""
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

    def uncovered_keys(self) -> list[int]:
        """Lines the stored index does not cover, in DataKey order: the
        ones past the file's ``covered_through`` mark (a file indexed
        before the mark was recorded is covered through the last line
        ``InvertedIndex`` mentions -- a table scan, until the next
        ``build_index``).  Read from the file on every call -- the
        writer that moves the mark is another connection -- as a key
        lookup and a rowid-range lookup; empty unless lines were written
        by a writer that could not index them."""
        _, covered = storage.index_meta(self.conn)
        if covered is None:
            (covered,) = self.conn.execute(
                "SELECT COALESCE(MAX(DataKey), -1) FROM InvertedIndex"
            ).fetchone()
        rows = self.conn.execute(
            "SELECT DataKey FROM MasterData WHERE DataKey > ? "
            "ORDER BY DataKey",
            (covered,),
        )
        return [key for (key,) in rows]

    def index_probe(
        self, term: str
    ) -> tuple[dict[int, set[Posting]], list[int]]:
        """What the index plan evaluates for anchor ``term``: its posting
        lists by (covered) line, and the uncovered lines."""
        return self.index_postings(term), self.uncovered_keys()

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
        window: int = DEFAULT_WINDOW,
        probed: tuple[str, dict[int, set[Posting]], list[int]] | None = None,
    ) -> list[Answer]:
        """Index query plan: anchor lookup, then evaluate candidates only.

        Falls back to the filescan plan when the query has no usable left
        anchor or no index has been built (the paper's parser makes the
        same decision).  A caller that already parsed the anchor and ran
        :meth:`index_probe` -- the planner, which chose this plan from
        it -- passes ``(anchor, candidates, uncovered)`` as ``probed``.

        Staccato candidates of a match-anywhere query are evaluated on
        the windows of their postings (``use_projection``); any other
        candidate set is a filescan of the candidate lines.  Lines the
        index does not cover are always evaluated whole, by a keyed
        scan, so the plan answers over every ingested line.  Either way
        the stored kernels are what is read, in one keyed fetch.
        """
        if probed is not None and self._index_approach == approach:
            anchor, candidates, uncovered = probed
        else:
            anchor, candidates = self.index_anchor(like, approach), None
            if anchor is None:
                return self.search(like, approach=approach, num_ans=num_ans)
        with _span("engine_probe", approach=approach) as probe:
            if candidates is None:
                candidates, uncovered = self.index_probe(anchor)
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
            return []
        query = compile_like(like)
        projected = (
            approach == "staccato" and use_projection and query.match_anywhere
        )
        scanned = uncovered if projected else [*candidates, *uncovered]
        with _span("engine_eval", projected=projected) as ev:
            with counters.collect() as counts:
                probs: dict[int, float] = {}
                if projected and candidates:
                    probs = self._projected_probabilities(
                        query, candidates, window
                    )
                if scanned:
                    probs.update(
                        self._scan_probabilities(
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
                        matches=len(answers), counters=dict(counts)
                    )
        return rank_answers(answers, num_ans=num_ans)

    # ------------------------------------------------------------------
    def ground_truth_matches(self, like: str) -> set[int]:
        """Line ids whose clean text satisfies the query (for metrics)."""
        query = compile_like(like)
        rows = self.conn.execute("SELECT DataKey, Data FROM GroundTruth")
        return {key for key, text in rows if query.accepts(text)}
