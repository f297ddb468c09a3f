"""The four workloads: seeded inputs, job lists and expected results.

Each builder writes its inputs under WORK and returns the jobs to run, in
order.  A job is one `cornerkit` command line; its check is computed here
from the benchmark's own constructions, never from the program's output.
Paths are relative to the checkout root, which is the working directory
of every job, so the input labels in the reports do not depend on where
the checkout lives.

Why these four: `sphere-links` is thousands of small links and small
reductions with no big matrix; `homology-scale` is a few large dense
Smith reductions; `obstruction-solve` uses the same homology layer through
full Smith forms with transforms and exact/modular solving; and
`labeled-nerves` runs no homology at all (nerve enumeration, isomorphism
search, large JSON documents), so a homology-kernel change must leave it
unchanged.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import check
import gen

WORK = "bench/work"
DATA = "src/cornerkit/data"
JOB_LIMIT_S = 20.0  # a job past this is killed and counts as failed


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], None]
    fixed: bool = False  # output does not depend on the seed: digest-checked


def write(name: str, doc: dict) -> str:
    path = f"{WORK}/{name}"
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def rng_for(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")


def corpus(name: str):
    return gen.load_corpus(f"{DATA}/{name}.json")


def face_counts(K, up_to: int) -> int:
    """Number of faces with 1..up_to vertices: the links a check visits."""
    return sum(len(gen.faces(K, size)) for size in range(1, up_to + 1))


def sphere_links(seed: int) -> list[Job]:
    p16, _ = gen.relabel(corpus("poincare16"), rng_for(seed, "p16"))
    rp2 = corpus("rp2_6")
    boct, _ = gen.relabel(gen.barycentric(gen.cross_polytope(4)),
                          rng_for(seed, "boct"))
    susp, _ = gen.relabel(gen.suspension(corpus("poincare16")),
                          rng_for(seed, "susp"))
    fan = gen.cross_polytope_fan(5)
    pair = {"lambda": fan["rays"], "n": 5,
            "nerve": gen.complex_doc(gen.cross_polytope(5))}
    p16_path = write("p16.json", gen.complex_doc(p16))
    boct_path = write("boct4.json", gen.complex_doc(boct))
    susp_path = write("susp.json", gen.complex_doc(susp))
    fan_path = write("fan5.json", fan)
    pair_path = write("pair5.json", pair)
    rp2_path = f"{DATA}/rp2_6.json"
    # the boundary of the 5-cross-polytope has h_i = C(5, i)
    h_cross = tuple(math.comb(5, i) for i in range(6))
    return [
        Job("ghs-p16", ("check-ghs", "-n", "4", "-i", p16_path), 0,
            check.sphere_report(1 + face_counts(p16, 3), 3)),
        Job("ghs-rp2", ("check-ghs", "-n", "3", "-i", rp2_path), 1,
            check.ghs_global_failure(1 + face_counts(rp2, 2), 2,
                                     {1: check.group(0, [2])}), fixed=True),
        Job("phm-boct4", ("check-phm", "-n", "3", "-i", boct_path), 0,
            check.sphere_report(face_counts(boct, 3), 3)),
        Job("phm-susp", ("check-phm", "-n", "4", "-i", susp_path), 0,
            check.sphere_report(face_counts(susp, 4), 4)),
        Job("from-fan", ("from-fan", "-i", fan_path), 0,
            check.same_document(pair), fixed=True),
        Job("charfun", ("check-charfun", "-i", pair_path), 0,
            check.charfun_ok, fixed=True),
        Job("betti", ("betti", "-i", pair_path), 0,
            check.betti(h_cross), fixed=True),
    ]


def homology_scale(seed: int) -> list[Job]:
    p16 = corpus("poincare16")
    susp, _ = gen.relabel(gen.suspension(p16), rng_for(seed, "susp"))
    b2rp, _ = gen.relabel(gen.barycentric(gen.barycentric(corpus("rp2_6"))),
                          rng_for(seed, "b2rp"))
    p16r, _ = gen.relabel(p16, rng_for(seed, "p16"))
    zero = check.group()
    return [
        Job("homology-susp",
            ("homology", "-i", write("susp.json", gen.complex_doc(susp))), 0,
            check.reduced_homology({str(k): check.group(1) if k == 4 else zero
                                    for k in range(5)})),
        Job("homology-b2rp2",
            ("homology", "-i", write("b2rp2.json", gen.complex_doc(b2rp))), 0,
            check.reduced_homology({"0": zero, "1": check.group(0, [2]),
                                    "2": zero})),
        Job("acyclicity-p16",
            ("acyclicity", "-n", "4", "-i",
             write("p16.json", gen.complex_doc(p16r))), 0, check.acyclic(4)),
    ]


def non_boundary_loop(K) -> dict:
    """A 1-cycle of an RP² triangulation that bounds over Q but not over
    Z: the first empty triangle (three edges, no 2-face) whose rational
    filling is non-integral."""
    edge_set = set(gen.edges(K))
    filled = set(gen.faces(K, 3))
    for u, v, w in itertools.combinations(range(K[0]), 3):
        if (u, v, w) in filled or not {(u, v), (v, w), (u, w)} <= edge_set:
            continue
        loop = {(u, v): 1, (v, w): 1, (u, w): -1}
        target = [loop.get(e, 0) for e in gen.edges(K)]
        x = check.rational_preimage(K, 3, 1, target)
        if x is not None and any(xi.denominator != 1 for xi in x):
            return loop
    raise RuntimeError("no non-bounding loop found")


def obstruction_solve(seed: int) -> list[Job]:
    G = gen.OBSTRUCTION_GROUP
    p16, _ = gen.relabel(corpus("poincare16"), rng_for(seed, "p16"))
    susp, _ = gen.relabel(gen.suspension(corpus("poincare16")),
                          rng_for(seed, "susp"))
    rp2, _ = gen.relabel(corpus("rp2_6"), rng_for(seed, "rp2"))
    p16_path = write("p16.json", gen.complex_doc(p16))
    susp_path = write("susp.json", gen.complex_doc(susp))
    rp2_path = write("rp2.json", gen.complex_doc(rp2))
    jobs = []

    def coboundary_case(name, K, path, n, grade):
        rng = rng_for(seed, name)
        d = gen.random_cochain(K, n, grade - 1, G, rng)
        c = gen.coboundary(K, n, grade - 1, d, G)
        cpath = write(f"{name}.json", gen.cochain_doc(grade, G, c))
        jobs.append(Job(name, ("solve-obstruction", "--complex", path, "-n",
                               str(n), "--cochain", cpath), 0,
                        check.solved(K, n, grade, c, G)))

    for grade in range(1, 5):
        coboundary_case(f"solve-p16-{grade}", p16, p16_path, 4, grade)
    # random values on every grade-2 cell: δ of it is nonzero somewhere
    c = gen.random_cochain(p16, 4, 2, G, rng_for(seed, "non-cocycle"))
    jobs.append(Job("non-cocycle",
                    ("solve-obstruction", "--complex", p16_path, "-n", "4",
                     "--cochain", write("non-cocycle.json",
                                        gen.cochain_doc(2, G, c))), 1,
                    check.not_cocycle(p16, 4, 2, c, G)))
    # a non-bounding loop of RP² plus a random coboundary: a cocycle in
    # grade 1 that no integral cochain solves
    loop = non_boundary_loop(rp2)
    d = gen.random_cochain(rp2, 3, 0, G, rng_for(seed, "rp2-unsolvable"))
    c = gen.coboundary(rp2, 3, 0, d, G)
    c = {s: G.reduce([x[0] + loop.get(s, 0)] + list(x[1:]))
         for s, x in c.items()}
    jobs.append(Job("unsolvable-rp2",
                    ("solve-obstruction", "--complex", rp2_path, "-n", "3",
                     "--cochain", write("unsolvable.json",
                                        gen.cochain_doc(1, G, c))), 1,
                    check.unsolvable))
    coboundary_case("solve-susp-2", susp, susp_path, 5, 2)
    return jobs


def labeled_nerves(seed: int) -> list[Job]:
    bary = gen.barycentric(corpus("poincare16"))
    all_two = {e: 2 for e in gen.edges(bary)}
    ba2_doc = gen.complex_doc(bary, all_two)
    labels = gen.seeded_labels(bary, rng_for(seed, "labels"))
    bal_doc = gen.complex_doc(bary, labels)
    moved, perm = gen.relabel(bary, rng_for(seed, "relabel"))
    moved_doc = gen.complex_doc(moved, {tuple(sorted((perm[u], perm[v]))): m
                                        for (u, v), m in labels.items()})
    ba2_path = write("ba2.json", ba2_doc)
    bal_path = write("labeled.json", bal_doc)
    moved_path = write("labeled-moved.json", moved_doc)
    offending = check.first_improper(bary, labels)
    return [
        Job("construct-ba2", ("construct", "barycentric-all-2", "-i",
                              f"{DATA}/poincare16.json"), 0,
            check.same_document(ba2_doc), fixed=True),
        Job("aspherical-ba2", ("check-aspherical", "-i", ba2_path), 0,
            check.verdict(True), fixed=True),
        Job("proper-labeled", ("check-proper", "-i", bal_path),
            0 if offending is None else 1, check.proper_report(offending)),
        Job("nerve-labeled", ("coxeter-nerve", "-i", bal_path), 0,
            check.nerve(check.flag_nerve(bary, labels), bary[0])),
        Job("equiv-labeled", ("equiv", bal_path, moved_path), 0,
            check.isomorphism(bal_doc, moved_doc)),
    ]


WORKLOADS = {
    "sphere-links": sphere_links,
    "homology-scale": homology_scale,
    "obstruction-solve": obstruction_solve,
    "labeled-nerves": labeled_nerves,
}


def setup(workload: str, seed: int) -> list[Job]:
    """Write the workload's inputs for `seed` and a manifest naming the
    seed and the job command lines; return the jobs."""
    os.makedirs(WORK, exist_ok=True)
    jobs = WORKLOADS[workload](seed)
    write("manifest.json", {"workload": workload, "seed": seed,
                            "jobs": [" ".join(job.argv) for job in jobs]})
    return jobs
