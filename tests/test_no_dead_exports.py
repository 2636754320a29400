"""Every top-level function and class of the library is referenced
elsewhere in the package, so the library holds only what its commands
run.  The few exceptions are paper objects that tests use as oracles or
data, and names the benchmark tracer rebinds."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "betahole"

KEPT = {
    "endpoint_alpha": "alpha of beta_l, beta_* or beta_r of I^S; classifier, consistency and acceptance tests build bases from it",
    "in_E_beta": "membership in E_beta; window, gap and exceptional-point tests check their points with it",
    "theta": "the paper's map Theta_S on holes; the classifier tests check it against Phi_S",
    "farey_level": "the Farey levels F_n; tests draw their Farey words from them",
    "xi": "the slope bijection F -> Q; acceptance criterion 5 checks that it is injective",
    "farey_from_rational": "the inverse of xi; acceptance criterion 5 round-trips F_10 through it",
    "sandwich_points": "the solution set of the sandwich lemma; acceptance criterion 4 checks it",
    "spectral_radius": "rebound by name in bench/tracing.py; goes only with a benchmark change",
    "transitive_core": "rebound by name in bench/tracing.py; goes only with a benchmark change",
}


def _package_trees():
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def _definitions_and_references():
    defined, referenced = set(), set()
    for tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # an import or re-export is not a use
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name is not None and name != own:
                    referenced.add(name)
    return defined, referenced


def test_package_found():
    defined, _ = _definitions_and_references()
    assert {"classify", "plateaus", "run"} <= defined


def test_every_definition_is_referenced():
    defined, referenced = _definitions_and_references()
    assert sorted(defined - referenced - set(KEPT)) == []


def test_kept_names_are_defined_and_unreferenced():
    # a kept name that production code starts to use, or that is deleted,
    # leaves this list
    defined, referenced = _definitions_and_references()
    assert sorted(name for name in KEPT if name not in defined or name in referenced) == []


def test_every_error_is_raised():
    # an error class that nothing raises leaves a dead branch in each
    # handler that catches it
    from betahole import errors

    subclasses = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.BetaholeError) and obj is not errors.BetaholeError}
    raised = set()
    for tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node.exc)}
    assert sorted(subclasses - raised) == []


def test_every_position_is_used():
    # each member appears as Position.NAME somewhere (the enum body
    # assigns bare names)
    from betahole.classifier import Position

    used = set()
    for tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and "Position" in (getattr(node.value, "id", None), getattr(node.value, "attr", None)):
                used.add(node.attr)
    assert sorted(set(Position.__members__) - used) == []
