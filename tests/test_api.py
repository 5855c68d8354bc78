"""The public surface: what the package exports and what the README
shows of it."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import ringfield
import ringfield.basis
import ringfield.evolve
import ringfield.experiments
import ringfield.ioutil
import ringfield.kernels
import ringfield.observables
import ringfield.state
from ringfield import EvolutionConfig, FieldState, RunConfig, gaussian_state, make_lattice, run

README = Path(__file__).resolve().parents[1] / "README.md"


def _public_functions():
    modules = [ringfield] + [
        importlib.import_module(f"ringfield.{info.name}")
        for info in pkgutil.iter_modules(ringfield.__path__)
    ]
    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value


def test_no_kernel_table_exports():
    for name in ("KernelTable", "build_kernel_table", "momentum_expectation_spectral"):
        assert not hasattr(ringfield, name), name
    # one-step wrappers of ``advance``, a per-state ``propagate_blocks``,
    # ``propagate_blocks`` itself once ``compare`` became a closed form,
    # and procedures only the tests called
    for module, name in (
        (ringfield.evolve, "euler_step_spectral"),
        (ringfield.evolve, "even_naive_step"),
        (ringfield.evolve, "propagate"),
        (ringfield.evolve, "propagate_blocks"),
        (ringfield.experiments, "tau_degradation_run"),
        (ringfield.observables, "momentum_distribution"),
        (ringfield.observables, "m_step_increase_confined_estimate"),
        # second paths to a job other code does: direct kernel sums, the
        # inverse state transform and a constructor helper
        (ringfield.kernels, "kernel_f_spectral"),
        (ringfield.kernels, "kernel_g_spectral"),
        (ringfield.basis, "from_momentum_basis"),
        (ringfield.state, "normalize"),
        # the Euler kind takes the naive circulant on an even lattice
        (ringfield.evolve, "EVEN_NAIVE"),
        (ringfield.evolve, "LINEARISED"),
        # the dense reference step is the tests' oracle (``oracles.euler_step``)
        (ringfield.evolve, "euler_step"),
        # ``advance`` is the one step and ``snapshot`` the one measurement
        # of a single state: their n = 1 and one-column wrappers
        (ringfield.evolve, "exact_step"),
        (ringfield.evolve, "translate_spectral"),
        (ringfield.observables, "drift_velocity"),
        (ringfield.observables, "momentum_expectation"),
        (ringfield.observables, "position_mean"),
        (ringfield.observables, "position_spread"),
        (ringfield.observables, "gaussian_shape_residual"),
        # one state file format, the CSV checkpoint
        (ringfield.state, "state_to_json_obj"),
        (ringfield.state, "write_state_json"),
        (ringfield.state, "read_state_json"),
        # the site-space roll is the tests' oracle (``oracles.translate``)
        # for ``advance(state, "translate", m)``
        (ringfield.evolve, "translate"),
        # the conservation table has one entry point, ``paper_table_grid``
        (ringfield.experiments, "paper_table_run"),
        (ringfield.experiments, "_table_variations"),
        (ringfield.experiments, "_row_check"),
        # the cached dense F and G builders and the dense step are the
        # tests' oracles; ``identity_suite`` builds its own small F and G
        (ringfield.kernels, "f_site_matrix"),
        (ringfield.kernels, "g_site_matrix"),
        (ringfield.kernels, "_site_matrix_builder"),
        (ringfield.kernels, "SITE_MATRIX_CACHE_SIZE"),
        (ringfield.kernels, "SITE_MATRIX_MAX_SITES"),
        (ringfield.evolve, "_dense_euler_step"),
        # a config writer and whole-text CSV joiners only the tests called;
        # the tests join ``csv_blocks`` themselves
        (ringfield.RunConfig, "to_text"),
        (ringfield.RunConfig, "write"),
        (ringfield.ioutil, "fmt"),
        (ringfield.state, "state_to_csv_text"),
        (ringfield.TimeSeries, "to_csv_text"),
        # the row-block budget belongs to ``ioutil``, the lowest module
        # that splits rows
        (ringfield.observables, "row_blocks"),
        (ringfield.observables, "RECORD_BLOCK_BYTES"),
    ):
        assert not hasattr(ringfield, name), name
        assert not hasattr(module, name), name
    assert not hasattr(ringfield.MomentumSpectrum, "occupation")
    # the even lattice comes from ``lattice``, not re-exported by ``evolve``
    assert not hasattr(ringfield.evolve, "make_even_lattice")


@pytest.mark.parametrize("procedure, parameters", [
    ("paper_table_grid", ["n_steps", "seed"]),
    ("kernel_oracle_check", ["n_sites_list", "perturbation"]),
    ("order_of_accuracy_run", []),
    ("qualitative_shape_run", []),
    ("confined_drift_diagnostic", []),
    ("identity_suite", ["n_sites_list"]),
])
def test_experiment_procedure_parameters(procedure, parameters):
    # lattice sizes, widths and time steps that no caller varies are
    # module constants of ``experiments``
    signature = inspect.signature(getattr(ringfield.experiments, procedure))
    assert list(signature.parameters) == parameters


def _package_imports():
    """(module, module it imports, whether inside a function) for every
    ``from .`` import of every module of the package."""
    for path in sorted(Path(ringfield.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nested = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                for target in targets:
                    yield path.stem, target, id(node) in nested


def test_no_function_imports_from_the_package():
    # a module that needs another imports it at its top, where a cycle shows
    assert [(module, target) for module, target, inside in _package_imports() if inside] == []


def test_the_package_imports_form_no_cycle():
    graph = {}
    for module, target, _inside in _package_imports():
        graph.setdefault(module, set()).add(target)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_count_local_maxima_takes_only_a_distribution():
    # no caller sets the prominence, ``observables.MAXIMUM_PROMINENCE``
    assert list(inspect.signature(ringfield.count_local_maxima).parameters) == ["distribution"]


def test_no_public_function_takes_kernels():
    takes = [name for name, fn in _public_functions()
             if "kernels" in inspect.signature(fn).parameters]
    assert takes == []


@pytest.mark.parametrize("config", [RunConfig, EvolutionConfig])
def test_run_has_one_step_engine(config):
    # run always steps by powers of one multiplier: no implementation switch
    assert "euler_method" not in {spec.name for spec in dataclasses.fields(config)}


def test_one_state_type():
    # FieldState holds one state or a block of rows; no second container
    for name in ("FieldBlock", "block_from_amplitudes"):
        assert not hasattr(ringfield.state, name), name
    assert [spec.name for spec in dataclasses.fields(FieldState)] == ["lattice", "c"]


def test_a_lattice_holds_only_its_inputs():
    # the half width and the reciprocal constant follow from them
    assert [spec.name for spec in dataclasses.fields(ringfield.Lattice)] == [
        "n_sites", "lattice_constant", "parity"
    ]


def test_the_lattice_fixes_the_parity():
    assert [spec.name for spec in dataclasses.fields(EvolutionConfig)] == ["tau", "scheme"]
    assert not hasattr(ringfield.evolve, "ODD_STANDARD")


def test_the_tau_bound_is_checked_where_the_step_is_built():
    # ``propagator`` checks it, and so does ``identity_suite``, the one
    # procedure that builds its own (dense) step; no caller decides when
    # it applies, and the warning finds its caller without a stacklevel
    assert not hasattr(ringfield.evolve, "_takes_linearised_step")
    functions = inspect.getmembers(ringfield.experiments, inspect.isfunction)
    checking = [name for name, value in functions
                if value.__module__ == "ringfield.experiments"
                and "check_tau_bound" in value.__code__.co_names]
    assert checking == ["identity_suite"]
    assert list(inspect.signature(ringfield.evolve.check_tau_bound).parameters) == [
        "tau", "lattice"
    ]


def test_run_options_after_record_every_are_keyword_only():
    state = gaussian_state(make_lattice(21), 0, 2.0)
    with pytest.raises(TypeError):
        run(state, EvolutionConfig(), 2, 1, 1)


def test_readme_library_sketch_runs():
    text = README.read_text()
    sketch = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text, re.M | re.S)
    assert sketch is not None
    exec(compile(sketch.group(1), str(README), "exec"), {})
