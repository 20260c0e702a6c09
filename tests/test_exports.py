"""Every name a module lists in `__all__` exists in that module, the
package exports exactly its modules' `__all__`, every package name the bench
tracer wraps (bench/layers.py) still exists and every bench hook names a
wrapped function, and a name, parameter or CLI spelling moved out of the
package is gone from it."""

import importlib
import importlib.util
import inspect
import pkgutil
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import realroots
import realroots.cli

MODULES = ["realroots"] + [
    f"realroots.{info.name}"
    for info in pkgutil.iter_modules(realroots.__path__)
    if not info.name.startswith("_")
]
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.fixture
def layers(monkeypatch):
    """bench/layers.py, loaded from its file without running the bench."""
    monkeypatch.syspath_prepend(str(BENCH))  # for its `from tracer import Tracer`
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_the_union_of_its_modules_all():
    # derived, not hand-kept: a name a module adds to its `__all__` cannot go
    # missing from the package, as `circle_zero_locations` once did
    modules = [importlib.import_module(f"realroots.{name}")
               for name in ("convex", "groups", "montecarlo", "rootsystems", "torus")]
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert len(set(expected)) == len(expected)
    assert sorted(realroots.__all__) == sorted(expected)


def test_bench_tracer_targets_exist(layers):
    # `bench/run.py --trace 1` wraps methods through the class __dict__ and
    # exported functions by name; a missing one breaks the traced pass
    for mod_name, cls_name, attr, _ in layers.METHODS:
        cls = getattr(importlib.import_module(f"realroots.{mod_name}"), cls_name)
        assert attr in cls.__dict__, f"{cls_name}.{attr}"
    for mod_name in layers.MODULES:
        module = importlib.import_module(f"realroots.{mod_name}")
        names = layers.EXPORTS.get(mod_name) or module.__all__
        assert [n for n in names if not hasattr(module, n)] == [], mod_name


def test_every_bench_hook_names_a_wrapped_function(layers, monkeypatch):
    # a hook whose function left an `__all__` is never called, and its
    # counters (`convex.hull.*`, `montecarlo.*.samples`) silently read 0
    wrapped = []
    wrap = layers.Tracer.wrap

    def recording(self, name, fn, kind="span", around=None):
        wrapped.append(name)
        return wrap(self, name, fn, kind, around)

    monkeypatch.setattr(layers.Tracer, "wrap", recording)
    layers.install(realroots).uninstall()
    assert sorted(set(layers.HOOKS) - set(wrapped)) == []


def _present(path: str, parameter: str | None = None) -> bool:
    """Whether `path`, a module and a dotted attribute after a colon,
    resolves, or with `parameter`, whether the callable there takes it."""
    module, _, rest = path.partition(":")
    obj = importlib.import_module(module)
    *owners, last = rest.split(".")
    for name in owners:
        obj = getattr(obj, name)
    if parameter is None:
        return hasattr(obj, last)
    return parameter in inspect.signature(getattr(obj, last)).parameters


def _spelling(spectrum: str) -> bool:
    """Whether `realroots group` parses the spectrum `spectrum`."""
    argv = ["group", "--system", "A1", "--spectrum", spectrum, "--out", "/dev/null"]
    return realroots.cli.main(argv) != realroots.cli.USAGE_ERROR


@pytest.mark.parametrize("present", [
    pytest.param(partial(_present, path), id=path) for path in (
        "realroots.rootsystems:reality_type", "realroots.rootsystems:RootSystem.rho",
        "realroots.rootsystems:Metric.torus_volume", "realroots.exactalg:dot",
        "realroots.exactalg:mat_vec", "realroots.torus:beta_constant",
        "realroots.convex:Ellipsoid.support", "realroots:Polynomial", "realroots:reality_type",
        "realroots:beta_constant",
    )
] + [
    pytest.param(partial(_present, path, name), id=f"{path}({name})") for path, name in (
        ("realroots.convex:mixed_volume_ellipsoids", "samples"),
        ("realroots.torus:mean_real_count_torus", "samples"),
        ("realroots.torus:real_proportion_torus", "samples"),
        ("realroots.groups:InvariantHessianForm.radius", "metric"),
        ("realroots.groups:newton_body_volume", "body"),
    )
] + [pytest.param(partial(_spelling, "ball-spectrum:A1:1:1"), id="cli:ball-spectrum:A1:1:1")])
def test_a_removed_name_parameter_or_spelling_is_gone(present, capsys):
    # each had no caller but the tests; the pipeline reads `frobenius_schur_indicator`,
    # `_torus_volume_sq`, `_beta_sq`, `gaussian_mixed_volume` and `ball:r:m` instead
    assert not present()


def test_vec_sub_left_the_exact_layer():
    # the Fraction vector difference lost its last library caller when the
    # hull took to integer rows; the quadrature oracles that use it keep it
    import quadrature_oracles
    from realroots import exactalg

    assert "vec_sub" not in exactalg.__all__ and not hasattr(exactalg, "vec_sub")
    assert quadrature_oracles.vec_sub((1, 2), (Fraction(1, 2), 3)) == (Fraction(1, 2), -1)
