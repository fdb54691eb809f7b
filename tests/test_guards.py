"""The certificate guard: ``algebra._certify``, the NaN functionals that
every guard must reject, and lints on how the guards in ``src`` are written:
none lets NaN through, none is an ``assert``, which ``python -O`` strips, no
handler swallows a failure, and only the CLI's ``main`` maps one to an exit
code.  Two more pin single sources: one seeded generic vector and one
Hermitian eigendecomposition of a left multiplication.

A guard raises unless its pass condition holds.  ``if residual > tol:
raise`` raises only when the fail condition holds, and every comparison
with NaN is false, so a NaN residual passes it; ``_certify`` and
``if not value > floor: raise`` fail it.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

import qperm
from qperm import cli
from qperm.algebra import AlgebraError, State, spectral_projection, support_projection
from qperm.cqg import kac_paljutkin
from qperm.permutation import fix_spectrum, has_integer_fixed_points, stabiliser_membership


@pytest.fixture(scope="module")
def kp():
    return kac_paljutkin()


def test_certify_passes_up_to_tol_and_fails_past_it():
    from qperm.algebra import _certify

    assert _certify("check", 0.0, 1e-9) == 0.0
    passed = _certify("check", np.float64(1e-9), 1e-9)  # equal to tol
    assert passed == 1e-9 and type(passed) is float
    for residual in (np.nan, np.inf, 1e-9 * (1 + 1e-12)):
        with pytest.raises(AlgebraError) as info:
            _certify("face is not closed", residual, 1e-9)
        assert str(info.value) == (f"face is not closed (residual {residual:.3e}, "
                                   "tolerance 1.000e-09)")


def _nan_state(G):
    return State(G.algebra, np.full(G.dim, np.nan), check=False)


NAN_PROBES = {
    "distribution": lambda kp, fs: fs.distribution(_nan_state(kp)),
    "has_integer_fixed_points": lambda kp, fs: has_integer_fixed_points(_nan_state(kp), fs),
    "matrix_to_coeffs": lambda kp, fs: kp.algebra.matrix_to_coeffs(
        np.full((kp.dim, kp.dim), np.nan)),
    "spectral_projection": lambda kp, fs: spectral_projection(
        kp.algebra.element(np.full(kp.dim, np.nan)), (0.5, 1.5)),
    "support_projection": lambda kp, fs: support_projection(_nan_state(kp)),
}


@pytest.mark.parametrize("probe", sorted(NAN_PROBES) + ["stabiliser_membership"])
def test_nan_fails_every_certificate(kp, probe):
    # NaN coefficients, built unchecked, as a failed computation upstream
    # would leave them: each call must fail its certificate, not return NaN
    # or pass it on to LAPACK
    if probe == "stabiliser_membership":
        assert stabiliser_membership(kp, _nan_state(kp), [[0], [1, 2, 3]]) is False
        return
    with pytest.raises(AlgebraError, match=r"\(residual nan, tolerance "):
        NAN_PROBES[probe](kp, fix_spectrum(kp))


def _mentions_a_tolerance(node: ast.AST) -> bool:
    """Whether a float literal or a name or attribute containing 'tol' occurs in node."""
    return any(isinstance(sub, ast.Constant) and isinstance(sub.value, float)
               or isinstance(sub, ast.Name) and "tol" in sub.id
               or isinstance(sub, ast.Attribute) and "tol" in sub.attr
               for sub in ast.walk(node))


def _unnegated_orderings(node: ast.AST):
    """The <, <=, > and >= comparisons in an expression outside every ``not``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return
    if isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _unnegated_orderings(child)


def _raises_algebra_error(body) -> bool:
    return any(isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call)
               and isinstance(stmt.exc.func, ast.Name) and stmt.exc.func.id == "AlgebraError"
               for stmt in body)


def fail_condition_guards(source: str) -> list[int]:
    """Lines of every ``if`` that raises AlgebraError when an ordering
    comparison with a float literal or a tolerance, outside every ``not``,
    holds: the guard's fail condition, which NaN never meets."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.If) and _raises_algebra_error(node.body)
            and any(_mentions_a_tolerance(c) for c in _unnegated_orderings(node.test))]


def test_guard_lint_flags_fail_conditions_only():
    flagged = fail_condition_guards(
        "if residual > tol:\n    raise AlgebraError('x')\n"
        "if gap <= 1e-6 * scale:\n    raise AlgebraError('x')\n"
        "if lo < -1e-8 or hi > alg.tol:\n    raise AlgebraError('x')\n"
        "if np.any(x > 1e-8):\n    raise AlgebraError('x')\n"
        "if not residual <= tol:\n    raise AlgebraError('x')\n"
        "if not (done and weight > 0.0):\n    raise AlgebraError('x')\n"
        "if n < 3:\n    raise AlgebraError('x')\n"
        "if residual > tol:\n    raise ValueError('x')\n")
    assert sorted(flagged) == [1, 3, 5, 7]


def test_src_guards_raise_unless_they_pass():
    # ``if value > tol: raise`` lets NaN through: write ``_certify(check,
    # value, tol)``, or ``if not value > floor: raise`` for a lower bound
    src = Path(qperm.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := fail_condition_guards(path.read_text()))}
    assert found == {}


def assert_statements(source: str) -> list[int]:
    """Lines of every ``assert`` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_src_has_no_assert_statement():
    # a check written as ``assert`` is gone under ``python -O``: raise
    # AlgebraError, or use ``_certify``, instead
    assert assert_statements("x = 1\nassert x, 'checked'\nif x:\n    assert x > 0\n") == [2, 4]
    src = Path(qperm.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := assert_statements(path.read_text()))}
    assert found == {}


EXIT_CODES = {"EXIT_FAIL", "EXIT_INPUT"}


def exit_code_reads(source: str) -> list[int]:
    """Lines where EXIT_FAIL or EXIT_INPUT is read outside the function ``main``."""
    tree = ast.parse(source)
    in_main = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "main" for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in EXIT_CODES
            and isinstance(node.ctx, ast.Load) and id(node) not in in_main]


def test_only_main_maps_a_failure_to_an_exit_code():
    # a command raises, and main's one try turns the exception into exit 1
    # or 2: a second map in a command would grow holes of its own
    assert exit_code_reads(
        "EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2\n"
        "def cmd(args):\n    return EXIT_INPUT\n"
        "def main():\n    try:\n        return cmd(1)\n"
        "    except ValueError:\n        return EXIT_FAIL\n") == [3]
    assert exit_code_reads(Path(cli.__file__).read_text()) == []


def silent_handlers(source: str) -> list[int]:
    """Lines of every ``except`` handler whose body is only ``pass``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler)
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)]


def test_src_swallows_no_exception():
    # ``except AlgebraError: pass`` drops a failed certificate and writes an
    # answer without it: let the failure reach the CLI's exit code
    assert silent_handlers("try:\n    f()\nexcept ValueError:\n    pass\n"
                           "try:\n    f()\nexcept ValueError:\n    g()\n    pass\n") == [3]
    src = Path(qperm.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := silent_handlers(path.read_text()))}
    assert found == {}


def calls_by_function(source: str, name: str) -> list[str]:
    """The innermost enclosing function, or '<module>', of every call of
    ``name``, as a bare name or as an attribute (``np.linalg.eigh``)."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return [owner.get(id(node), "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def src_calls(name: str) -> list[str]:
    """``module.function`` of every call of ``name`` in ``src``."""
    src = Path(qperm.__file__).parent
    return sorted(f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
                  for fn in calls_by_function(path.read_text(), name))


def test_call_lint_names_the_enclosing_function():
    source = ("rng = default_rng(1)\n"
              "def f():\n    np.random.default_rng(0)\n    np.linalg.eigvalsh(a)\n"
              "    def g():\n        return np.linalg.eigh(a)\n"
              "    '''default_rng(seed) in a docstring is no call'''\n")
    assert calls_by_function(source, "default_rng") == ["<module>", "f"]
    assert calls_by_function(source, "eigh") == ["g"]


def test_one_seeded_generic_vector():
    # the block frame and the characters draw one generic vector, from one
    # fixed seed: a second draw would be a copy that can drift from it
    assert src_calls("default_rng") == ["algebra._generic_coeffs"]


def test_one_hermitian_eigendecomposition():
    # every spectral projection, support, meet and the block frame decompose
    # L_f in the trace frame through _self_adjoint_eig, which certifies f;
    # the classifier decomposes its sesquilinear matrix (eigvalsh is not counted)
    assert src_calls("eigh") == ["algebra._self_adjoint_eig", "idempotent.classify_idempotent"]
