"""The README CLI examples against their committed reports.

Each report in tests/golden/ was written by the command listed here, and
each CSV series there by the command listed in SERIES.  A change that is
meant to keep every number keeps these tests passing: keys, strings,
ints and bools must be equal, and floats must agree to 1e-12 absolute
plus 1e-9 relative, so a different libm does not fail them.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from dualaction.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = {
    "classify": "classify --hamiltonian saddle-quadratic --q-start 0 --q-end 1 --t1 1",
    "action": "action --hamiltonian sho --q-end 1 --t1 1.5707963 --N 2000",
    "bounds": "bounds --hamiltonian saddle-quadratic --samples 1000 --epsilon 0.2 --seed 7",
    "propagate": "propagate --hamiltonian sho --rep momentum --slices 512 "
                 "--p-start 0 --p-end 0 --t1 0.7853981633974483",
    "spin": "spin --N 4 --policy paper-unconstrained",
    "hj-check": "hj-check --hamiltonian free --which s --grid-min 0.5 --grid-max 1.5",
    "legendre-check": "legendre-check --hamiltonian sho --samples 100 --N 2000",
    "action-anharmonic": "action --potential-coeffs 0,0,-0.5,0,-0.05 --q-end 1 --t1 1",
    "bounds-anharmonic": "bounds --potential-coeffs 0,0,-0.5,0,-0.05 --q-end 1 --t1 1 "
                         "--chain R-chain --samples 200 --seed 7",
    "bounds-r-chain": "bounds --hamiltonian saddle-quadratic --chain R-chain --samples 1000 "
                      "--epsilon 0.2 --seed 7",
}

SERIES = {
    "propagate-position": "propagate --hamiltonian sho --rep position --format csv",
    "propagate-momentum": "propagate --hamiltonian sho --rep momentum --t1 0.7 --format csv",
    "bounds": "bounds --hamiltonian saddle-quadratic --samples 1000 --epsilon 0.2 --seed 7 "
              "--format csv",
    "legendre-check": "legendre-check --hamiltonian sho --samples 100 --N 2000 --format csv",
    "bounds-r-chain": "bounds --hamiltonian saddle-quadratic --chain R-chain --samples 1000 "
                      "--epsilon 0.2 --seed 7 --format csv",
}


def assert_same(got, want, where="report"):
    """got equals want, floats to 1e-12 absolute plus 1e-9 relative."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_golden_report(name, capsys):
    code = main(EXAMPLES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_same(json.loads(out), want)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_csv_series_matches_golden_series(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(SERIES[name].split() + ["--out", str(out)]) == 0
    capsys.readouterr()

    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    got, want = rows(out), rows(GOLDEN / f"{name}.csv")
    assert got[0] == want[0] and len(got) == len(want)
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert_same([float(x) for x in g], [float(x) for x in w], f"{name}.csv row {i}")


def test_comparison_tolerates_only_float_noise():
    assert_same({"x": 1.0 + 1e-13, "n": 3}, {"x": 1.0, "n": 3})
    for got, want in [({"x": 1.001}, {"x": 1.0}), ({"n": 3.0}, {"n": 3}),
                      ({"s": "a"}, {"s": "b"}), ({"x": 1.0, "y": 2}, {"x": 1.0})]:
        with pytest.raises(AssertionError):
            assert_same(got, want)
