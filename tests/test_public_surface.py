"""The public surface of b4nls is what the CLI runs, plus named oracles.

A public top-level function or class of `src/b4nls` that no module of the
package refers to (its own definition and the re-exports of `__init__.py`
do not count) is either a test oracle, listed in ORACLES with a test that
holds the run path against it, or dead code. The walk is by name, so an
attribute or method of the same name counts as a reference.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "b4nls"

# name -> "file::test" (or test helper) that uses it as an independent route
ORACLES = {
    "enumerate_pairs": "test_resonance.py::test_table_buckets_equal_enumeration_small",
    "build_table": "test_resonance.py::test_table_buckets_equal_enumeration_small",
    "tapered_free_solution": "test_bourgain.py::test_tapered_free_solution_norm_factorizes",
    "time_sobolev_norm_quadrature": "test_bourgain.py::test_tapered_free_solution_norm_factorizes",
    "l2hs_norm": "test_bourgain.py::test_xsb_at_b_zero_is_l2hs",
    "verify_certificate": "test_hum.py::test_certificate_reverify",
    "load_ledger": "test_dynamics.py::test_trace_persistence_roundtrip",
    "load_trace_states": "test_dynamics.py::test_trace_persistence_roundtrip",
    "propagate_free": "test_dynamics.py::test_linear_limit_matches_free_flow",
    "constant_profile": "test_dynamics.py::test_damping_off_matches_undamped_with_mass_phase",
    "multiply_profile": "test_hum.py::test_multiplication_matrix_matches_grid_product",
    "coeffs_to_grid": "test_spectral_core.py::test_shift_free_products_match_the_shifted_route",
    "grid_to_coeffs": "test_spectral_core.py::test_shift_free_products_match_the_shifted_route",
    "first_hit_time": "test_gcc.py::test_first_hit_time_passes_the_sampling_oracle",
    "contains": "test_gcc.py::assert_first_hit",
    "lanczos_extreme": "test_observability.py::test_lanczos_matches_dense_across_bands",
    "multiplication_matrix": "test_spectral_core.py::test_kernel_rows_match_the_dense_oracle",
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
