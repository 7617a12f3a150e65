"""Guard against test-only code.

Every public function, class or method of the package is read in the
package's code, or is listed in TEST_ONLY as a reference that only the tests
call.  A read is an AST reference, not a word in a comment or docstring: a
method is read only as ``x.name`` with x not a module from outside the
package, so neither ``np.linalg.norm`` nor a local variable reads a method
``norm``.  Every dataclass field and property is read as ``.name`` somewhere
in the package, or is listed in TEST_ONLY_FIELDS as a value that only the
tests read.  Every method the benchmark tracer wraps exists on its class.  A
run loads only the SciPy modules it uses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import magschro

SRC = Path(magschro.__file__).parent

TEST_ONLY = {
    "emit": "config serialization, the inverse of parse in the roundtrip test",
    "prepare_smooth_initial": "states in D(A^k), the inverse-iteration fixture",
    "vanishes_on": "the potential's support predicate, checked against its samples",
    "hermitian_residual": "skew-adjointness oracle for the assembled generators",
    "dissipativity_margin": "dissipativity oracle for the assembled generators",
    "flat_index": "grid multi-index to flat node index, for hand-built fixtures",
    "check_green_identity": "discrete magnetic Green formula, the oracle for the assembled stiffness",
    "poincare_constant": "the discrete Poincare constant of acceptance criterion 5",
    "observed_ratio": "one state's observed energy, the Rayleigh oracle for the Gramian",
    "resolvent_solve": "one resolvent solve with identity residuals, the resolvent oracle",
    "refinement_trend": "grid-refinement trend of resolvent norms (planned CLI home)",
    "spectral_distance_norms": "1/dist(i mu, spectrum), the normal-operator oracle (planned CLI home)",
    "derivative_consistency": "finite-difference oracle for weight gradients and Hessians",
    "step": "one Crank-Nicolson step, the forward oracle of the stepped-Gramian tests",
    "norm": "a state's norm in the generator's inner product, the contraction oracle",
}

TEST_ONLY_FIELDS = {
    "EnergyTrace.endpoint_residual": "the trapezoid endpoint law, the O(dt^2) cross-check",
    "EnergyTrace.dt": "the step taken, checked against the default h^2/4",
    "MagneticPotential.sup_norm": "sup |a|, checked against the samples and the paper's bound",
    "BoundarySplit.transition_pairs": "class changes along the boundary, checked on two 2D splits",
    "Grid.measure": "domain measure, checked against the cylinder's volume weights",
    "ResolventScan.growth_detected": "fit diagnostic, printed by the resolvent acceptance test",
    "PseudoconvexityReport.transition_nodes": "finite-difference nodes, checked on collar weights",
    "SubellipticityReport.margin": "the scale-free bracket, checked against sampled brackets",
    "SubellipticityReport.excluded_nodes": "grad phi vanishes there, checked on an inner-centred weight",
    "SubellipticityReport.per_tau_min": "per-tau minima, checked for repeated tau",
    "GreenReport.residual": "part of the check_green_identity oracle",
    "GreenReport.matrix_residual": "part of the check_green_identity oracle",
    "GreenReport.volume_term": "part of the check_green_identity oracle",
    "GreenReport.gradient_term": "part of the check_green_identity oracle",
    "ResolventSolution.u": "part of the resolvent_solve oracle",
    "ResolventSolution.residual": "part of the resolvent_solve oracle",
    "ResolventSolution.identity_residuals": "part of the resolvent_solve oracle",
    "ResolventSolution.condition_estimate": "part of the resolvent_solve oracle",
    "PoincareReport.kappa": "part of the poincare_constant oracle",
}


def _trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def _public_definitions(tree):
    """Public top-level functions and classes, and public methods of classes;
    properties are left to the field guard."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and not {"property", "cached_property"} & set(_names(item.decorator_list))):
                    yield item.name


def _root(node):
    """The name an attribute, call or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(tree):
    """The reads of a module's code that can reach a package name: ``x.name``
    unless x starts from a module imported from outside the package (so
    ``np.linalg.norm`` is no read of a method ``norm``), and a bare ``name``
    read where the module defines or imports that name (so a local variable
    is no read of a method)."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    foreign = {alias.asname or alias.name.split(".")[0] for node in imports
               if not getattr(node, "level", 0) for alias in node.names}
    own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {alias.asname or alias.name for node in imports
            if getattr(node, "level", 0) for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _root(node) not in foreign:
            yield node.attr
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
            yield node.id


def unreferenced_public_names():
    """Public names that no read in the package's code reaches."""
    trees = _trees()
    reads = Counter(name for tree in trees for name in _references(tree))
    return {name for tree in trees for name in _public_definitions(tree) if not reads[name]}


def test_public_names_are_used_or_listed():
    found = unreferenced_public_names()
    grown = sorted(found - set(TEST_ONLY))
    assert not grown, (
        f"public names that only their definitions mention: {grown}; give each a "
        "caller (a CLI kind with a verdict) or delete it")
    stale = sorted(set(TEST_ONLY) - found)
    assert not stale, f"TEST_ONLY names now used by the package: {stale}"


def _names(decorators_or_call):
    for node in decorators_or_call:
        node = node.func if isinstance(node, ast.Call) else node
        yield node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _fields(trees):
    """class name -> its dataclass fields and properties."""
    out = defaultdict(set)
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            dataclass = "dataclass" in _names(cls.decorator_list)
            for item in cls.body:
                if dataclass and isinstance(item, ast.AnnAssign):
                    out[cls.name].add(item.target.id)
                if (isinstance(item, ast.FunctionDef)
                        and {"property", "cached_property"} & set(_names(item.decorator_list))):
                    out[cls.name].add(item.name)
    return out


def unread_fields():
    """Class.field pairs that no ``.field`` read in the package reaches.

    A read ``x.field`` goes to x's class when x is ``self`` in a method, or a
    local bound to a constructor call or to a function that returns one;
    any other read goes to every class with that field.
    """
    trees = _trees()
    fields = _fields(trees)
    owners = defaultdict(set)
    for cls, names in fields.items():
        for name in names:
            owners[name].add(cls)
    makes = {cls: cls for cls in fields}
    for fn in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for ret in (n for n in ast.walk(fn) if isinstance(n, ast.Return)):
            if isinstance(ret.value, ast.Call) and next(_names([ret.value])) in fields:
                makes[fn.name] = next(_names([ret.value]))

    read = set()

    def scan(scope, bound):
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                made = makes.get(next(_names([node.value])))
                bound.update({t.id: made for t in node.targets if isinstance(t, ast.Name) and made})
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr in owners:
                known = bound.get(node.value.id) if isinstance(node.value, ast.Name) else None
                read.update((cls, node.attr) for cls in ([known] if known else owners[node.attr]))

    for tree in trees:
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in methods:
                scan(item, {"self": node.name, "cls": node.name})
            if not methods:
                scan(node, {})
    return {f"{cls}.{name}" for cls, names in fields.items() for name in names
            if (cls, name) not in read}


def test_fields_are_read_or_listed():
    found = unread_fields()
    grown = sorted(found - set(TEST_ONLY_FIELDS))
    assert not grown, (
        f"dataclass fields and properties the package never reads: {grown}; read each "
        "(a verdict or an artifact) or delete it")
    stale = sorted(set(TEST_ONLY_FIELDS) - found)
    assert not stale, f"TEST_ONLY_FIELDS entries now read by the package, or gone: {stale}"


TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_methods():
    """The (module, class, method) entries of the tracer's ``_METHODS``, read
    from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _METHODS in {TRACER}")


def test_traced_methods_exist():
    """The tracer installs each entry through ``cls.__dict__[method]``, so a
    deleted or renamed method breaks every traced benchmark pass."""
    entries = traced_methods()
    assert entries
    missing = [f"{mod}.{cls}.{meth}" for mod, cls, meth in entries
               if meth not in vars(getattr(importlib.import_module(f"magschro.{mod}"), cls))]
    assert not missing, f"methods the benchmark tracer wraps are gone: {missing}"


IMPORT_PROBE = """
import json, sys
import numpy as np
import magschro.cli as cli
from magschro import spectra

cfg = cli.ExperimentConfig.parse('''
kind = "simulate"
grid.dim = 1
grid.n = 16
generator = "A1"
damping.c_preset = "constant"
T = 0.05
dt = 0.01
''')
code = cli.run(cfg, out_dir=sys.argv[1])
heavy = ("scipy.optimize", "scipy.special", "scipy.fft", "scipy.spatial")
after_run = [m for m in heavy if m in sys.modules]
mus = -np.linspace(10, 400, 60)
fit = spectra.fit_growth(mus, 2.5 * np.exp(0.31 * np.sqrt(np.abs(mus))), envelope=False)
print(json.dumps({"code": code, "after_run": after_run, "p": fit["p"],
                  "optimize_after_fit": "scipy.optimize" in sys.modules}))
"""


def test_run_imports_no_optimizer(tmp_path):
    """A simulate run in a fresh interpreter loads none of scipy.optimize,
    special, fft or spatial; a growth-detected fit then loads the optimizer
    where it refines the exponent, and recovers p = 1/2."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    assert doc["code"] == 0
    assert doc["after_run"] == [], f"a simulate run imported {doc['after_run']}"
    assert doc["optimize_after_fit"]
    assert abs(doc["p"] - 0.5) < 1e-3
