"""Synthetic semistructured datasets with controlled incompleteness.

Two scenarios motivated by the paper's introduction:

* a **music catalog** (bands, records, optional ratings and founding
  years) as RDF — the domain of Example 1;
* a **company directory** (employees with optional phone / office / manager
  attributes) over a plain relational schema — exercising WDPTs beyond the
  single ternary relation.

Both generators are seeded and expose knobs for the *fraction of optional
information present*, which is exactly what OPT-style queries are for:
answers should degrade gracefully, never vanish, as data gets sparser.
"""

from __future__ import annotations

import random
from typing import List, Union

from ..core.atoms import Atom
from ..core.database import Database
from ..rdf.graph import RDFGraph

Rng = Union[int, random.Random, None]


def _rng(seed: Rng) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def music_catalog(
    n_bands: int = 10,
    records_per_band: int = 3,
    rating_fraction: float = 0.5,
    formed_in_fraction: float = 0.5,
    recent_fraction: float = 0.6,
    seed: Rng = 0,
) -> RDFGraph:
    """An RDF music catalog in the vocabulary of Example 1.

    Every record has ``recorded_by`` and ``published`` triples; NME ratings
    and founding years are present only for the given fractions of
    records/bands.
    """
    rng = _rng(seed)
    graph = RDFGraph()
    for b in range(n_bands):
        band = "band_%d" % b
        if rng.random() < formed_in_fraction:
            graph.add((band, "formed_in", str(1960 + rng.randrange(60))))
        for r in range(records_per_band):
            record = "record_%d_%d" % (b, r)
            graph.add((record, "recorded_by", band))
            era = "after_2010" if rng.random() < recent_fraction else "before_2010"
            graph.add((record, "published", era))
            if rng.random() < rating_fraction:
                graph.add((record, "NME_rating", str(1 + rng.randrange(10))))
    return graph


def social_network(
    n_people: int = 20,
    avg_degree: int = 3,
    age_fraction: float = 0.6,
    city_fraction: float = 0.5,
    employer_fraction: float = 0.4,
    seed: Rng = 0,
) -> RDFGraph:
    """An RDF social network with systematically incomplete profiles.

    ``knows`` edges are total (the graph backbone); ``age``/``city``/
    ``works_for`` triples exist only for the configured fractions of
    people — the classic OPT workload of the SPARQL literature.
    """
    rng = _rng(seed)
    graph = RDFGraph()
    people = ["person_%d" % i for i in range(n_people)]
    target_edges = max(n_people, n_people * avg_degree // 2)
    while len(list(graph.triples_with(predicate="knows"))) < target_edges:
        a, b = rng.sample(people, 2)
        graph.add((a, "knows", b))
    for person in people:
        if rng.random() < age_fraction:
            graph.add((person, "age", str(18 + rng.randrange(60))))
        if rng.random() < city_fraction:
            graph.add((person, "city", "city_%d" % rng.randrange(5)))
        if rng.random() < employer_fraction:
            graph.add((person, "works_for", "corp_%d" % rng.randrange(4)))
    return graph


def company_directory(
    n_departments: int = 4,
    employees_per_department: int = 8,
    phone_fraction: float = 0.6,
    office_fraction: float = 0.5,
    manager_fraction: float = 0.8,
    seed: Rng = 0,
) -> Database:
    """A relational company directory with optional attributes.

    ``works_in`` is total; ``phone``/``office``/``reports_to`` hold only
    for the configured fractions of employees; each department has a head.
    """
    rng = _rng(seed)
    db = Database()
    for d in range(n_departments):
        dept = "dept_%d" % d
        staff: List[str] = []
        for e in range(employees_per_department):
            emp = "emp_%d_%d" % (d, e)
            staff.append(emp)
            db.add(Atom("works_in", (emp, dept)))
            if rng.random() < phone_fraction:
                db.add(Atom("phone", (emp, "x%04d" % rng.randrange(10000))))
            if rng.random() < office_fraction:
                db.add(Atom("office", (emp, "room_%d" % rng.randrange(100))))
        head = rng.choice(staff)
        db.add(Atom("dept_head", (dept, head)))
        for emp in staff:
            if emp != head and rng.random() < manager_fraction:
                db.add(Atom("reports_to", (emp, head)))
    return db
