"""The public surface of b4nls is what the CLI runs, plus named oracles.

A public top-level function or class of `src/b4nls` that no module of the
package refers to (its own definition and the re-exports of `__init__.py`
do not count) is either a test oracle, listed in ORACLES with a test that
holds the run path against it, or dead code. The walk is by name, so an
attribute or method of the same name counts as a reference.

An oracle stays in `src` only while the benchmark's traced run wraps it
(bench/layers.py), or as one of the two artifact readers; any other
independent route lives in tests/oracles.py.
"""

import ast
from collections import Counter
from pathlib import Path

from test_bench_wrap_points import load_wrap_points

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "b4nls"

# the public readers of a run's artifacts, kept on purpose
ARTIFACT_READERS = {"load_ledger", "load_trace_states"}

# name -> "file::test" (or test helper) that uses it as an independent route
ORACLES = {
    "build_table": "test_resonance.py::test_table_buckets_equal_enumeration_small",
    "load_ledger": "test_dynamics.py::test_trace_persistence_roundtrip",
    "load_trace_states": "test_dynamics.py::test_trace_persistence_roundtrip",
    "first_hit_time": "test_gcc.py::test_first_hit_time_passes_the_sampling_oracle",
    "contains": "test_gcc.py::assert_first_hit",
    "lanczos_extreme": "test_observability.py::test_lanczos_matches_dense_across_bands",
    "multiplication_matrix": "test_spectral_core.py::test_kernel_blocks_match_the_dense_oracle",
    "cg_hermitian": "test_hum.py::test_block_solve_matches_the_cg_oracle",
}


def _referenced(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _package():
    return [
        ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def test_every_public_name_is_used_or_a_named_oracle():
    public = set()
    uses = Counter()
    for tree in _package():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public.add(own)
            uses.update(
                name for node in ast.walk(stmt)
                if (name := _referenced(node)) is not None and name != own
            )
    unused = {name for name in public if uses[name] == 0}
    assert sorted(unused - set(ORACLES)) == [], "public but unused: delete or list as an oracle"
    assert sorted(set(ORACLES) - unused) == [], "listed as an oracle but used or gone"


def test_each_oracle_is_called_by_its_test():
    for name, where in ORACLES.items():
        file, test = where.split("::")
        tree = ast.parse((TESTS / file).read_text())
        body = [s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == test]
        assert body, f"{where} does not exist"
        assert any(_referenced(node) == name for node in ast.walk(body[0])), (
            f"{where} does not call {name}"
        )


def test_each_oracle_in_src_is_a_wrap_point_or_an_artifact_reader(monkeypatch):
    wrapped = {point.attr for point in load_wrap_points(monkeypatch)}
    assert sorted(set(ORACLES) - wrapped - ARTIFACT_READERS) == [], (
        "an oracle that no bench wrap point names belongs in tests/oracles.py"
    )
