"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vpwave"


def test_no_assert_statements():
    # ``python -O`` strips asserts; invariants must raise typed errors.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/vpwave: {found}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports in src/vpwave: {unused}"


def test_every_tolerance_is_read():
    # a tolerance that no check compares against is dead configuration.  The
    # checks live in the package, in its tests and in the benchmark: two
    # constants, FAST_VS_NAIVE and UNITARITY, are read only by the latter two
    constants = {target.id for node in ast.parse((SRC / "tol.py").read_text()).body
                 if isinstance(node, ast.Assign) for target in node.targets}
    root = SRC.parent.parent
    read = set()
    for path in [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "vpbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "tol":
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("tol"):
                read.update(alias.name for alias in node.names)
    assert constants, "no constants found in tol.py"
    assert not constants - read, f"unread tolerances in tol.py: {sorted(constants - read)}"


def test_every_raise_uses_a_package_error():
    # bad input raises a typed VpwaveError subclass, never a bare built-in
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) not in errors:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raises of classes not defined in errors.py: {found}"


def test_no_scalar_class_lookup_in_spectral_layer():
    # spectra apply class vectors by one gather over the class indices that
    # SmithDecomposition.class_index gives, or that the samples carry down
    # the chain; no class is looked up one frequency at a time
    found = [f"{name}:{node.lineno}"
             for name in ("dlvp.py", "mra.py")
             for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "index_of"]
    assert not found, f"scalar index_of calls in the spectral layer: {found}"


def test_spectral_layer_enumerates_no_generating_set():
    # the spectra, the class maps and the class powers read classes from the
    # Smith form alone: its digit representatives and SmithDecomposition.class_index
    readers = {"_class_points", "_exact_samples", "_class_sums", "complement_phases",
               "coarse_of_fine", "class_powers", "wavelet_spectrum"}
    tree = ast.parse((SRC / "dlvp.py").read_text(), filename="dlvp.py")
    seen = {qualname for qualname, _ in _functions(tree)} & readers
    found = [f"dlvp.py:{node.lineno} {qualname}" for qualname, function in _functions(tree)
             if qualname in readers for node in ast.walk(function)
             if getattr(node, "id", getattr(node, "attr", None)) == "generating_set"]
    assert seen == readers, f"functions not found: {readers - seen}"
    assert not found, f"generating sets enumerated in the spectral layer: {found}"


def _functions(tree):
    """``(qualified name, node)`` of each top-level function and method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{f.name}", f) for f in top.body
                        if isinstance(f, ast.FunctionDef))


def test_enumerations_invert_no_smith_factor():
    # the one exact inverse is SmithDecomposition.scaled_inverse: no cofactor
    # adjugate is left, and the one determinant, IntMat.det, never runs on
    # minors.  The enumerations and the wavelet shifts read U_inv/V_inv and
    # invert nothing, and the enumerations sum contiguous rows over the digit
    # grid, with no (n, d) array product
    inverses = {"scaled_inverse", "inv_apply", "inv_T_apply", "inv_T_rows"}
    wanted = {"intlat.py": {"generating_set": inverses | {"apply_rows"},
                            "pattern": inverses | {"apply_rows"},
                            "class_representatives": inverses | {"apply_rows"}},
              "dlvp.py": {"wavelet_shift_vectors": inverses}}
    found, seen, det_callers = [], set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} names {name}" for node in ast.walk(tree)
                  for name in [getattr(node, "name", getattr(node, "id", getattr(node, "attr", "")))]
                  if isinstance(name, str) and ("adjugate" in name or "cofactor" in name)]
        for qualname, function in _functions(tree):
            # every name read, called or not: scaled_inverse is a property
            used = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(function)}
            if "_bareiss_det" in used:
                det_callers.append(qualname)
            banned = wanted.get(path.name, {}).get(qualname)
            if banned is not None:
                seen.add(qualname)
                found += [f"{path.name} {qualname} reads {name}" for name in sorted(used & banned)]
    assert seen == {"generating_set", "pattern", "class_representatives", "wavelet_shift_vectors"}
    assert det_callers == ["IntMat.det"], f"Bareiss determinants outside IntMat.det: {det_callers}"
    assert not found, f"cofactors, inverses or row products where none belong: {found}"


def test_no_method_caches():
    # an lru_cache on a method is keyed by self and keeps every instance it
    # has seen alive for the life of the process; a value that depends on one
    # instance is a cached_property on it
    found = [f"{path.name}:{node.lineno} {cls.name}.{node.name}"
             for path in sorted(SRC.glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(cls, ast.ClassDef)
             for node in ast.walk(cls) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for dec in node.decorator_list
             for target in [dec.func if isinstance(dec, ast.Call) else dec]
             if getattr(target, "id", getattr(target, "attr", None)) in {"lru_cache", "cache"}]
    assert not found, f"lru_cache on methods in src/vpwave: {found}"


def test_no_scalar_periodization_in_spectral_layer():
    # spectra, two-scale vectors and the nesting check periodize whole arrays
    # exactly; the scalar periodized_sum serves only the direct profiles
    oracles = {"scaling_profile", "wavelet_profile", "periodized_product"}
    found = []
    for name in ("dlvp.py", "mra.py"):
        for top in ast.parse((SRC / name).read_text(), filename=name).body:
            if isinstance(top, ast.FunctionDef) and top.name in oracles:
                continue
            found += [f"{name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      == "periodized_sum"]
    assert not found, f"scalar periodized_sum calls in the spectral layer: {found}"


def test_filter_layer_does_not_import_the_transforms():
    # dlvp keeps class vectors and filters as plain arrays over G(M^T); the
    # pattern transforms of latfft act on them, not the other way round
    name = "dlvp.py"
    found = [f"{name}:{node.lineno}"
             for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
             if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("latfft")
             or isinstance(node, ast.Import) and any(a.name.endswith("latfft") for a in node.names)]
    assert not found, f"latfft imports in dlvp: {found}"


def test_fast_transform_runs_axis_by_axis():
    # dft_fast/idft are one dense product for m <= _DENSE_PATTERN, and above it
    # a dense or 1-D FFT step per Smith axis; neither calls an n-dimensional FFT
    name = "latfft.py"
    found = [f"{name}:{node.lineno}"
             for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
             if isinstance(node, ast.Attribute) and node.attr in ("fftn", "ifftn")]
    assert not found, f"n-dimensional FFT calls in latfft: {found}"


def test_transform_results_alone_skip_validation():
    # _IndexedValues._own wraps arrays without checks; only the fast
    # transforms of latfft, which build those arrays themselves, may call it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "latfft.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_own"]
    assert not found, f"the unchecked vector constructor used outside latfft: {found}"


def test_no_exec_or_eval():
    # the package defines its classes as written; no code is generated and
    # compiled at import or at run time
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "eval")]
    assert not found, f"exec or eval calls in src/vpwave: {found}"


def test_package_import_leaves_dataclasses_unloaded():
    # the value classes are plain classes: importing every module loads no
    # dataclasses, whose class set-up would dominate a cold import
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    code = (f"import sys; import vpwave.{', vpwave.'.join(modules)}; "
            "print('dataclasses' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                                     os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_window_and_lattice_kernels_build_no_matrices_or_fractions():
    # the batched kernels read what a matrix or window caches (the int64
    # transpose, the largest entry, the integer ramps) and build neither an
    # IntMat nor a Fraction per call; nor do they read the Fraction fields
    kernels = {"admissible.py": {"periodized_sum_exact", "eval_exact", "_axis_exact",
                                 "support_reach"},
               "intlat.py": {"apply_rows", "lattice_points"}}
    builders = {"IntMat", "Fraction", "_exact_fraction", "_exact_ints"}
    fraction_fields = {"HALF", "alpha", "support_halfwidths", "breakpoints_1d"}
    found, seen = [], set()
    for name, wanted in kernels.items():
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name)):
            if not isinstance(node, ast.FunctionDef) or node.name not in wanted:
                continue
            seen.add(node.name)
            for inner in ast.walk(node):
                target = inner.func if isinstance(inner, ast.Call) else None
                while isinstance(target, ast.Attribute):
                    target = target.value  # IntMat.identity(...) and the like
                if isinstance(target, ast.Name) and target.id in builders:
                    found.append(f"{name}:{inner.lineno} {node.name} calls {target.id}")
                if (getattr(inner, "id", None) in fraction_fields
                        or getattr(inner, "attr", None) in fraction_fields):
                    found.append(f"{name}:{inner.lineno} {node.name} reads a Fraction field")
    assert seen == set().union(*kernels.values()), f"kernels not found: {seen}"
    assert not found, f"per-call matrices or fractions in the batched kernels: {found}"


def test_declared_console_scripts_resolve():
    # an installed console script imports its module and reads the attribute
    # when it runs; a declaration whose target is missing fails at once
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    missing = []
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{name} = {target!r}: {exc!r}")
    assert not missing, f"console scripts that do not resolve: {missing}"


def test_every_box_enumeration_is_guarded():
    # a function that enumerates with np.indices, np.meshgrid, np.ix_,
    # itertools.product or np.repeat either raises TooLarge itself or goes
    # through lattice_points, which does; _dense_plan is only called for
    # m <= _DENSE_PATTERN.  The periodizations and the top-level samples walk
    # lattice points, not a bounding box, support_radii counts its keys per
    # shell, not over their bounding box, and the digit grid of the class
    # representatives, built by broadcasting, has its own guard
    exempt = {"latfft.py _dense_plan"}
    enumerating, guarded = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        products = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "itertools"
                    for alias in node.names if alias.name == "product"}
        for qualname, function in _functions(tree):
            name = f"{path.name} {qualname}"
            calls = [node.func for node in ast.walk(function) if isinstance(node, ast.Call)]
            called = {getattr(f.value, "id", None) + "." + f.attr if isinstance(f, ast.Attribute)
                      and isinstance(f.value, ast.Name) else getattr(f, "id", None) for f in calls}
            if (called & {"np.indices", "np.meshgrid", "np.ix_", "np.repeat",
                          "itertools.product"}
                    or called & products):
                enumerating.add(name)
            raised = {getattr(node.exc.func, "id", None) for node in ast.walk(function)
                      if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)}
            if "TooLarge" in raised or "lattice_points" in called:
                guarded.add(name)
    walks = {"admissible.py periodized_sum", "admissible.py periodized_sum_exact",
             "dlvp.py _exact_samples"}
    assert walks <= guarded and not walks & enumerating
    # the stacked periodization walks the rows of every item in blocks, each
    # capped by the guard on its points as well as by BLOCK_ROWS
    stacked, = [function for qualname, function in _functions(
        ast.parse((SRC / "admissible.py").read_text())) if qualname == "periodized_sum_exact"]
    read = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(stacked)}
    assert {"ENUMERATION_GUARD", "BLOCK_ROWS", "lattice_points"} <= read
    assert "intlat.py class_representatives" in guarded
    assert "mra.py support_radii" not in enumerating
    assert {"intlat.py lattice_points", "mra.py _grid_numerators"} | exempt <= enumerating
    unguarded = sorted(enumerating - guarded - exempt)
    assert not unguarded, f"box enumerations without a size guard: {unguarded}"


def test_only_intlat_names_the_integer_width():
    # intlat.exact_dtype is the one int64-or-Python-int rule: no other module
    # names its bounds or builds an object array by hand, in code or in prose
    width = re.compile(r"_INT(64|32)_SAFE|dtype\s*=\s*object\b|astype\(\s*object\s*\)")
    named = {path.name: [f"{path.name}:{n}: {line.strip()}"
                         for n, line in enumerate(path.read_text().splitlines(), 1)
                         if width.search(line)]
             for path in sorted(SRC.glob("*.py"))}
    assert named.pop("intlat.py"), "the pattern no longer finds the rule in intlat.py"
    found = [line for lines in named.values() for line in lines]
    assert not found, f"integer widths chosen outside intlat.exact_dtype: {found}"
