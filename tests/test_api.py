"""The subtraction rule: every public callable has a caller or a reason.

A callable exported from ``leosrp`` must be used by the code in ``src/``
(outside ``__init__.py``) or ``demos/``, or be listed in KEEP with the
reason it stays.  Otherwise delete it together with the tests that only
exercise it.
"""

import ast
import pathlib

import leosrp

ROOT = pathlib.Path(__file__).resolve().parent.parent

KEEP = {
    "two_body_accel": "benchmark boundary: bench/tracing.py counts its calls",
    "shadow_factor": "benchmark boundary: bench/tracing.py counts its calls",
    "interpolate": "benchmark boundary: bench/tracing.py times it",
    "elements_at": "benchmark boundary (bench/tracing.py, bench/reference.py) "
                   "and the year-series test reference",
    "format_tle": "the benchmark writes its TLE inputs with it "
                  "(bench/inputgen.py)",
    "srp_acceleration": "test reference for the radiation-pressure hook "
                        "(tests/test_equivalence.py) and acceptance 08",
}


def _names_used(paths) -> set:
    """Every name and attribute the code of these files reads or calls."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_or_a_reason():
    package = ROOT / "src" / "leosrp"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = _names_used(paths + sorted((ROOT / "demos").glob("*.py")))
    unused = sorted(name for name in leosrp.__all__
                    if callable(getattr(leosrp, name))
                    and name not in used and name not in KEEP)
    assert not unused, (
        f"exported but used nowhere in src/ or demos/: {unused}; delete "
        f"each with its tests, or list it in KEEP with the reason it stays")


def test_keep_lists_only_exports():
    assert set(KEEP) <= set(leosrp.__all__), set(KEEP) - set(leosrp.__all__)
