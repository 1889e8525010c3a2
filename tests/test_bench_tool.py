"""The ladder tool's rows repeat exactly apart from their times."""
import importlib.util
from pathlib import Path

import pytest

from lospre.dp import solve
from lospre.oracle import InstanceGenerator, generate
from lospre.treedec import decompose, make_nice

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smallest_rows(bench):
    """Each family's smallest row, measured twice."""
    return {name: [family.measure(*family.rows[0]) for _ in range(2)]
            for name, family in bench.FAMILIES.items()}


@pytest.mark.parametrize("family", ["pipeline", "extended", "chain", "banded"])
def test_counts_and_digest_repeat(smallest_rows, family):
    first, second = smallest_rows[family]
    assert first["counts"] == second["counts"]
    assert first["digest"] == second["digest"]


def test_pipeline_decomposes_once_per_run(smallest_rows):
    # one decomposition per solve, of the candidate's use region, which is
    # smaller than the program's graph (the instructions, a source and a sink)
    row = smallest_rows["pipeline"][0]
    counts = row["counts"]
    assert counts["rewrites"] > 0
    assert counts["decompositions"] == counts["solves"]
    assert counts["region_nodes"] < counts["solves"] * (row["instructions"] + 2)


def test_pipeline_builds_one_graph_per_run(smallest_rows):
    # later passes patch the first graph; generated programs have no fake edge
    counts = smallest_rows["pipeline"][0]["counts"]
    assert counts["passes"] > 1
    assert counts["graphs_built"] == 1


def test_chain_transitions_are_the_solvers(smallest_rows):
    row = smallest_rows["chain"][0]
    cfg, problem = generate(InstanceGenerator(seed=0, node_range=(row["n"], row["n"]),
                                              style="chained-diamonds"))
    assert row["counts"]["transitions"] == solve(cfg, problem,
                                                 make_nice(decompose(cfg))).transitions
    assert set(row["seconds"]) == {"decompose", "make_nice", "solve", "total"}
    assert set(row["collections"]) == {"decompose", "make_nice", "solve"}
    assert all(len(gens) == 3 for gens in row["collections"].values())
