"""The paper's running example: SQL over scanned insurance claims.

Builds a Claims database of scanned report forms (simulated OCR), then
runs the exact query of paper Figure 1(C) against each storage approach:

    SELECT DocId, Loss FROM Claims
    WHERE Year >= 2008 AND DocData LIKE '%Ford%';

MAP answers arrive instantly but miss claims whose OCR argmax garbled
'Ford'; FullSFA finds every claim; Staccato sits in between.

Run:  python examples/insurance_claims.py
"""

import random
import time

from repro.db import StaccatoDB, execute_select
from repro.ocr import SimulatedOcrEngine
from repro.ocr.corpus import Dataset, Document
from repro.ocr.engine import stable_seed


def make_claims(num_docs: int = 12, seed: int = 8) -> Dataset:
    """A corpus of short scanned claim reports, some mentioning Ford."""
    vehicles = ["Ford", "Toyota", "Honda", "Chevrolet", "Ford truck"]
    incidents = [
        "collision at the intersection of 5th and Main",
        "hail damage reported by the policy holder",
        "rear end impact on the highway ramp",
        "theft recovered two weeks later",
    ]
    dataset = Dataset(name="CLAIMS")
    for doc_id in range(num_docs):
        rng = random.Random(stable_seed("claims", seed, doc_id))
        vehicle = rng.choice(vehicles)
        lines = (
            f"claim report for a {vehicle} sedan",
            f"description: {rng.choice(incidents)}",
            f"assessed by adjuster number {rng.randint(100, 999)}",
        )
        dataset.documents.append(
            Document(
                doc_id=doc_id,
                name=f"claim-{doc_id:04d}",
                year=rng.randint(2006, 2011),
                loss=round(rng.uniform(800, 42_000), 2),
                lines=lines,
            )
        )
    return dataset


def main() -> None:
    claims = make_claims()
    ford_docs = {
        doc.doc_id for doc in claims.documents
        if any("Ford" in line for line in doc.lines) and doc.year >= 2008
    }
    print(f"Ground truth: {len(ford_docs)} claims from 2008+ mention 'Ford': "
          f"{sorted(ford_docs)}\n")

    db = StaccatoDB(k=10, m=12)
    print("Scanning and ingesting claims (OCR simulation) ...")
    # The comparison below queries every approach, so the full OCR
    # automaton is stored too (a default ingest keeps kmap and staccato).
    db.ingest(
        claims,
        SimulatedOcrEngine(seed=83),
        approaches=("kmap", "fullsfa", "staccato"),
    )

    sql = (
        "SELECT DocId, Loss FROM Claims "
        "WHERE Year >= 2008 AND DocData LIKE '%Ford%'"
    )
    print(f"\n{sql}\n")
    for approach in ("map", "kmap", "staccato", "fullsfa"):
        started = time.perf_counter()
        rows = execute_select(db, sql, approach=approach, num_ans=len(ford_docs))
        elapsed = time.perf_counter() - started
        found = {row["DocId"] for row in rows}
        missed = ford_docs - found
        print(f"{approach:9s} ({elapsed:6.3f}s): "
              f"found {len(found & ford_docs)}/{len(ford_docs)} true claims"
              + (f", missed docs {sorted(missed)}" if missed else ""))
        for row in rows[:3]:
            print(f"    DocId={row['DocId']} Loss=${row['Loss']:>9,.2f} "
                  f"P={row['Probability']:.4f}")
    db.close()


if __name__ == "__main__":
    main()
