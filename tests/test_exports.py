"""Every name a module lists in ``__all__`` must exist in that module, and
every name the benchmark under ``perfbench/`` takes from the package must
keep working."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import hamcert
from hamcert.certifier import CertificationConfig
from hamcert.cli import _config_from_args, build_parser

# ``hamcert.__main__`` runs the CLI on import and exports nothing.
MODULES = ["hamcert"] + [
    f"hamcert.{info.name}"
    for info in pkgutil.iter_modules(hamcert.__path__)
    if info.name != "__main__"
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports)), f"{name}.__all__ repeats a name"
    missing = [export for export in exports if not hasattr(module, export)]
    assert missing == []


def _package_references(path: Path) -> set[tuple[str, ...]]:
    """``(module, name, ...)`` for each name the file takes from hamcert: the
    names of its ``from hamcert... import`` lines, the attributes it reads
    or sets on them, and its ``("hamcert.<module>", "<name>")`` pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hamcert":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
                refs.add((node.module, alias.name))
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts)
              and node.elts[0].value.split(".")[0] == "hamcert"):
            refs.add((node.elts[0].value, node.elts[1].value))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            refs.add(imported[node.value.id] + (node.attr,))
    return refs


def _resolves(module: str, *names: str) -> bool:
    obj = importlib.import_module(module)
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_name_the_benchmark_takes_from_the_package_resolves():
    refs = set().union(*(_package_references(path) for path in PERFBENCH.glob("*.py")))
    # The entry points the benchmark times, whichever way it reaches them.
    assert {("hamcert", "certifier", "run_round"), ("hamcert.certifier", "run_round"),
            ("hamcert", "CertificationConfig")} <= refs
    assert sorted(ref for ref in refs if not _resolves(*ref)) == []


@pytest.fixture(scope="module")
def specs():
    """``perfbench/specs.py``, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_specs", PERFBENCH / "specs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("table", ["CERTIFY_SPECS", "SMOKE_SPECS"])
def test_every_benchmark_spec_builds_its_config_from_its_flags(specs, table):
    for spec in getattr(specs, table).values():
        for seed in (0, specs.CHECK_PAIR):
            cfg = CertificationConfig(**spec.config_kwargs(seed))
            args = build_parser().parse_args(
                ["certify", "--h0", "h0.txt", "--h", "h.txt", *spec.cli_flags(seed)])
            assert _config_from_args(args) == cfg
            # What the benchmark reads off a config.
            for name in ("accept_threshold", "mode", "rounds", "seed", "shots_per_round",
                         "time_cap", "trotter_tolerance", "twirl_steps"):
                getattr(cfg, name)
