#!/usr/bin/env python
"""Test-database extraction — the §1 enterprise use case.

    "Given large databases, enterprises often need smaller subsets that
    conform to the original schema and satisfy all of its constraints
    in order to perform realistic tests of new applications before
    deploying them to production."

A précis query *is* that extractor: pick a few anchor values, let the
result schema span the whole schema (weight threshold 0), bound the
volume with a cardinality constraint, and the answer is a small,
referentially consistent database. This script carves a test database
out of a 500-movie instance, verifies its integrity, exports it to CSV,
loads the CSVs into a SQLite file beside them (open it with the
``sqlite3`` shell) and runs SQL against the extract with stdlib
``sqlite3``.

Run::

    python examples/test_database_extraction.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    MaxTuplesPerRelation,
    PrecisEngine,
    WeightThreshold,
)
from repro.core import STRATEGY_ROUND_ROBIN
from repro.datasets import generate_movies_database, movies_graph
from repro.relational.csvio import load_database, save_database


def main():
    big = generate_movies_database(n_movies=500, seed=7)
    print("source database :", big.cardinalities())

    engine = PrecisEngine(big, graph=movies_graph())

    # anchor the extract on a handful of movie titles
    titles = [
        row["TITLE"] for row in big.relation("MOVIE").scan(["TITLE"])
    ][:4]
    query = " ".join(f'"{t}"' for t in titles)

    answer = engine.ask(
        query,
        degree=WeightThreshold(0.05),  # span everything reachable
        cardinality=MaxTuplesPerRelation(25),
        strategy=STRATEGY_ROUND_ROBIN,  # spread tuples, avoid dangles
    )
    extract = answer.database
    print("extracted subset:", extract.cardinalities())

    dangling = extract.integrity_violations()
    print(f"referential gaps: {len(dangling)}")

    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="precis_extract_"
    )
    save_database(extract, out_dir)
    print("exported to     :", out_dir)

    # the extract is a real database: load it into SQLite, one table
    # per relation, and let SQLite itself answer SQL over it
    sqlite_file = Path(out_dir) / "extract.sqlite"
    copy = load_database(
        out_dir, enforce_foreign_keys=False, backend=f"sqlite:{sqlite_file}"
    )
    try:
        rows = copy.backend.connection.execute(
            "SELECT m.TITLE, d.DNAME FROM MOVIE m, DIRECTOR d "
            "WHERE m.DID = d.DID LIMIT 5"
        ).fetchall()
    finally:
        copy.close()
    print("SQLite copy     :", sqlite_file)
    print("\nSQL over the extract (movies and their directors):")
    for row in rows:
        print("  ", row)


if __name__ == "__main__":
    main()
