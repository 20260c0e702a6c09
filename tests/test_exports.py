"""Every name a module lists in `__all__` exists in that module, the
package exports exactly its modules' `__all__`, every package name the bench
tracer wraps (bench/layers.py) still exists, and a name moved out of the
package is gone from it."""

import importlib
import importlib.util
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import realroots

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
    expected = [name for module in modules for name in module.__all__] + ["Polynomial", "__version__"]
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


def test_vec_sub_left_the_exact_layer():
    # the Fraction vector difference lost its last library caller when the
    # hull took to integer rows; the quadrature oracles that use it keep it
    import quadrature_oracles
    from realroots import exactalg

    assert "vec_sub" not in exactalg.__all__ and not hasattr(exactalg, "vec_sub")
    assert quadrature_oracles.vec_sub((1, 2), (Fraction(1, 2), 3)) == (Fraction(1, 2), -1)
