"""The import graph follows use.

Each check runs in a fresh interpreter, so what the test process has
already imported cannot hide a cycle or an eager import.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The built-in schemes, in the order ``available_schemes`` reports them.
BUILTIN_SCHEMES = (
    "buzz", "tdma", "cdma", "silenced",
    "buzz-e2e", "silenced-e2e", "gen2-tdma-e2e", "buzz-adaptive", "silenced-adaptive",
    "multi-reader", "multi-reader-naive", "multi-reader-capture",
    "multi-reader-interference",
)


def _run(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


_EACH_PACKAGE = """
import importlib, pkgutil, sys, traceback
sys.path.insert(0, sys.argv[1])
import repro
packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]
for name in packages:
    for module in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[module]
    try:
        importlib.import_module(name)
    except Exception:
        print("FAILED", name, traceback.format_exc().splitlines()[-1])
    else:
        print("ok", name)
"""


def test_every_package_imports_on_its_own():
    lines = _run(_EACH_PACKAGE).splitlines()
    assert len(lines) > 10
    assert [line for line in lines if not line.startswith("ok ")] == []


_LIGHT_PATH = """
import sys, tempfile
sys.path.insert(0, sys.argv[1])
import repro.__main__
from repro.engine import CampaignCache, CampaignSpec, plan_campaign
from repro.network.scenarios import scenario_by_name

spec = CampaignSpec(scenario=scenario_by_name("default", 32), root_seed=1,
                    n_locations=1, n_traces=1, schemes=("buzz",))
with tempfile.TemporaryDirectory() as cache_dir:
    plan_campaign(spec, CampaignCache(cache_dir))
heavy = ("repro.core.rateless", "repro.core.bp_decoder", "repro.sensing", "repro.sim",
         "repro.gen2", "repro.experiments", "scipy")
print(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy))))

from repro.engine import available_schemes, get_scheme, register_scheme

class Impostor:
    name = "buzz-e2e"

def register_refused():
    try:
        register_scheme(Impostor())
    except ValueError as exc:
        return "already registered" in str(exc)
    return False

print(register_refused())
print(",".join(available_schemes()))
print(all(get_scheme(name).name == name for name in available_schemes()))
print(register_refused())
try:
    get_scheme("aloha")
except ValueError as exc:
    print(exc)
"""


def test_building_and_planning_a_spec_loads_no_decoder():
    heavy, before, names, resolved, after, unknown = _run(_LIGHT_PATH).splitlines()
    assert heavy == "[]"
    assert names == ",".join(BUILTIN_SCHEMES)
    assert resolved == "True"
    assert before == after == "True"
    assert unknown == (
        "unknown scheme 'aloha'; registered: " + ", ".join(sorted(BUILTIN_SCHEMES))
    )


_SENSING_SUBMODULE = """
import sys, types
sys.path.insert(0, sys.argv[1])
import repro.sensing.basis_pursuit as bp
print(isinstance(bp, types.ModuleType), callable(bp.basis_pursuit))
from repro.sensing import basis_pursuit_complex, recover_sparse
import repro.sensing
print(repro.sensing.basis_pursuit is bp, basis_pursuit_complex is bp.basis_pursuit_complex)
"""


def test_sensing_submodule_is_not_shadowed_by_its_function():
    # The package re-exports no name of its own submodules, so the
    # submodule import binds the module, before and after lazy loads.
    assert _run(_SENSING_SUBMODULE).split() == ["True"] * 4
