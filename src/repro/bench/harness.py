"""The experiment harness: the paper's sweeps, queried on the engine.

The paper's experiments hold a dataset fixed and sweep approaches and
parameters (m, k, NumAns).  ``CorpusBench`` keeps only the work the
engine does not do: each line is recognized once per corpus, and the
chunk graphs figures 19 and 20 read are cached per (m, k) -- that
cache's construction can fan out over a process pool (the paper used
Condor for the same reason -- construction is embarrassingly parallel
across SFAs).

Queries run on the engine: one ``:memory:`` :class:`StaccatoDB` per
representation point (approach, m, k), ingested once from the cached
SFAs and warmed by one untimed scan.  Its :class:`KernelMemo` has
capacity 0, so the scan image is kept but no result is.  The runtime a
query reports covers ``StaccatoDB.search`` on that warmed handle with
the result memo off (the data is already stored), matching the paper's
methodology.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

from ..core.approximate import staccato_approximate
from ..db.engine import StaccatoDB
from ..ocr.corpus import Dataset
from ..ocr.engine import SimulatedOcrEngine
from ..query.answers import Answer
from ..query.like import compile_like
from ..query.memo import KernelMemo
from ..sfa.model import Sfa
from .metrics import QualityMetrics, evaluate_answers
from .workload import Query

__all__ = ["ExperimentResult", "CorpusBench", "MAX_CHUNKS"]

#: Sentinel for the paper's ``m = Max`` setting (one chunk per edge):
#: resolved to the corpus's largest edge count, where the approximation
#: only prunes every edge to its k best emissions.
MAX_CHUNKS = "max"


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """One (query, approach, parameters) measurement."""

    query_id: str
    dataset: str
    approach: str
    m: int | str | None
    k: int | None
    num_ans: int | None
    metrics: QualityMetrics
    runtime_s: float

    @property
    def precision(self) -> float:
        """Shortcut to ``metrics.precision``."""
        return self.metrics.precision

    @property
    def recall(self) -> float:
        """Shortcut to ``metrics.recall``."""
        return self.metrics.recall

    @property
    def f1(self) -> float:
        """Shortcut to ``metrics.f1``."""
        return self.metrics.f1


class CorpusBench:
    """In-memory corpus: cached SFAs, one engine handle per point.

    ``workers`` > 1 builds the chunk-graph cache (:meth:`staccato`) over
    a process pool; the engine handles ingest serially.
    """

    def __init__(
        self,
        dataset: Dataset,
        ocr: SimulatedOcrEngine | None = None,
        workers: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.ocr = ocr or SimulatedOcrEngine()
        self.workers = workers
        self.lines = dataset.lines()
        self.truth_texts = [text for _, _, _, text in self.lines]
        self._sfas: list[Sfa] | None = None
        self._staccato_cache: dict[tuple[int, int], list[Sfa]] = {}
        self._dbs: dict[tuple[str, int | None, int | None], StaccatoDB] = {}

    # ------------------------------------------------------------------
    def sfas(self) -> list[Sfa]:
        """All line SFAs (built lazily, once)."""
        if self._sfas is None:
            self._sfas = [
                self.ocr.recognize_line(text, line_seed=(doc_id, line_no))
                for _, doc_id, line_no, text in self.lines
            ]
        return self._sfas

    def _chunks(self, m: int | str) -> int:
        """``m`` with :data:`MAX_CHUNKS` resolved to an integer."""
        if m == MAX_CHUNKS:
            return max((sfa.num_edges for sfa in self.sfas()), default=1)
        assert isinstance(m, int)
        return m

    def staccato(self, m: int | str, k: int) -> list[Sfa]:
        """Per-line Staccato chunk graphs for one (m, k) point."""
        key = (self._chunks(m), k)
        cached = self._staccato_cache.get(key)
        if cached is None:
            args = (self.sfas(), repeat(key[0]), repeat(k))
            if self.workers and self.workers > 1:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    cached = list(
                        pool.map(staccato_approximate, *args, chunksize=8)
                    )
            else:
                cached = list(map(staccato_approximate, *args))
            self._staccato_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def _db(self, approach: str, m: int | None, k: int | None) -> StaccatoDB:
        """The warmed engine handle of one representation point."""
        key = (approach, m, k)
        db = self._dbs.get(key)
        if db is None:
            # A parameter the approach does not read is None here.
            db = StaccatoDB(
                k=k or 1, m=m or 1, kernel_memo=KernelMemo(capacity=0)
            )
            # The OCR engine the ingest sees hands back each line's
            # cached SFA.  Serial: a worker would be sent every SFA.
            sfas = {
                (doc_id, line_no): sfa
                for (_, doc_id, line_no, _), sfa in zip(self.lines, self.sfas())
            }
            recognized = SimpleNamespace(
                recognize_line=lambda text, line_seed: sfas[line_seed]
            )
            db.ingest(self.dataset, recognized, approaches=(approach,))
            # Untimed: builds the scan image and, with no character pair
            # to prune on, runs the DP on every line, so the first timed
            # query finds the handle warm.
            db.search("%e%", approach)
            self._dbs[key] = db
        return db

    def truth(self, like: str) -> set[int]:
        """Ground-truth matching line ids for a LIKE/REGEX query."""
        query = compile_like(like)
        return {
            line_id
            for (line_id, _, _, _), text in zip(self.lines, self.truth_texts)
            if query.accepts(text)
        }

    def search(
        self,
        like: str,
        approach: str,
        m: int | str | None = None,
        k: int | None = None,
        num_ans: int | None = 100,
    ) -> tuple[list[Answer], float]:
        """Evaluate a query; returns (ranked answers, runtime seconds).

        The timer covers ``StaccatoDB.search`` on a warmed handle with
        the result memo off.
        """
        if approach == "map":
            db = self._db("map", None, 1)
        elif approach == "kmap":
            assert k is not None, "k-MAP needs k"
            db = self._db("kmap", None, k)
        elif approach == "fullsfa":
            db = self._db("fullsfa", None, None)
        elif approach == "staccato":
            assert m is not None and k is not None, "Staccato needs m and k"
            db = self._db("staccato", self._chunks(m), k)
        else:
            raise ValueError(f"unknown approach {approach!r}")
        started = time.perf_counter()
        ranked = db.search(like, approach, num_ans=num_ans)
        return ranked, time.perf_counter() - started

    # ------------------------------------------------------------------
    def run(
        self,
        query: Query,
        approach: str,
        m: int | str | None = None,
        k: int | None = None,
        num_ans: int | None = 100,
    ) -> ExperimentResult:
        """Run one workload query and score it against ground truth."""
        answers, elapsed = self.search(
            query.like, approach, m=m, k=k, num_ans=num_ans
        )
        metrics = evaluate_answers(
            {a.line_id for a in answers}, self.truth(query.like)
        )
        return ExperimentResult(
            query_id=query.query_id,
            dataset=query.dataset,
            approach=approach,
            m=m,
            k=k,
            num_ans=num_ans,
            metrics=metrics,
            runtime_s=elapsed,
        )
