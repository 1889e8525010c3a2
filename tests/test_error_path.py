"""Seeded token mutants of the sample inputs: the error path of both parsers, pinned.

Each mutant is a sample input with one or two token edits: a token
deleted, duplicated, replaced, swapped with its neighbour or inserted.
Three of every four are IR (``samples/*.ir`` and ``generate_program_text(3)``
in turn) through ``run``, plain, with ``--verify`` or with ``--max-width 1``;
every fourth is ``samples/diamond.graph`` through ``graph``.  A mutant may
parse or not, but its run must end in a status the CLI documents, and the
sha256 of every (status, stderr) pair must stay as it is: a change to the
parsers or the pass loop that keeps their output keeps it.
"""
import hashlib
import io
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lospre.cli import EXIT_ERROR, EXIT_OK, EXIT_PARSE, EXIT_WIDTH, main
from lospre.ir import UnreachableCodeWarning
from lospre.oracle import generate_program_text

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
MUTANTS = 600
DIGEST = "00cfc9036471aec79fde5a16259ed8fcc9278901036efa0153a407c162c8ce00"

IR_TOKENS = ("=", "+", "-", "*", "/", "<<", "%", "~", "goto", "if", "ret", "L:", ":", "end",
             "x", "*x", "2x", "0", "1", "-1", "[1,0]", "[-1,0]", "[2]", "inf",
             "!edgecost", "!nodecost", "#")
GRAPH_TOKENS = ("cfg", "node", "edge", "problem", "0", "1", "4", "9", "-1", "x",
                "c=[1,0]", "c=inf", "c=[-1,0]", "l=[0,1]", "l=inf", "l=[-2,0]", "l=[0]",
                "use=2", "use=", "use=0", "use=a", "invalidate=0,4", "invalidate=", "#")
IR_FLAGS = ((), ("--verify",), ("--max-width", "1"))


def mutate(text, rng, pool):
    """``text`` with one or two token edits, drawn by ``rng`` from ``pool`` and
    its own tokens, on lines that are not comments."""
    lines = [line.split() for line in text.splitlines()]
    own = [tok for line in lines for tok in line]
    for _ in range(rng.choice((1, 1, 2))):
        line = rng.choice([line for line in lines if line and line[0] != "#"])
        k = rng.randrange(len(line))
        edit = rng.randrange(5)
        if edit == 0:
            del line[k]
        elif edit == 1:
            line.insert(k, line[k])
        elif edit == 2:
            line[k] = rng.choice(pool if rng.random() < 0.6 else own)
        elif edit == 3 and k + 1 < len(line):
            line[k], line[k + 1] = line[k + 1], line[k]
        else:
            line.insert(k, rng.choice(pool))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def mutants():
    """(command, suffix, text, flags) per mutant, the same on every call."""
    irs = [path.read_text() for path in sorted(SAMPLES.glob("*.ir"))]
    irs.append(generate_program_text(3))
    graph = (SAMPLES / "diamond.graph").read_text()
    for k in range(MUTANTS):
        rng = random.Random(k)
        if k % 4 == 3:
            yield "graph", ".graph", mutate(graph, rng, GRAPH_TOKENS), ()
        else:
            yield ("run", ".ir", mutate(irs[k % len(irs)], rng, IR_TOKENS),
                   IR_FLAGS[k // 4 % len(IR_FLAGS)])


def outcome(command, path, flags):
    """The exit status and stderr of one in-process run."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreachableCodeWarning)
        status = main([command, str(path), *flags])
    return status, err.getvalue()


def test_mutants_end_in_a_documented_status(tmp_path):
    results = []
    for command, suffix, text, flags in mutants():
        path = tmp_path / f"m{suffix}"
        path.write_text(text)
        status, err = outcome(command, path, flags)
        assert status in (EXIT_OK, EXIT_PARSE, EXIT_WIDTH) or \
            status == EXIT_ERROR and "no feasible solution" in err, (command, text, flags, err)
        results.append((status, err))
    assert len({status for status, _ in results}) >= 3
    assert hashlib.sha256(repr(results).encode()).hexdigest() == DIGEST
