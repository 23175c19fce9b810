"""The check runner of the verify suites, including its failing path."""

import json

from gdirac import fock
from gdirac.cli import main
from gdirac.linalg import Vec
from gdirac.scalar import Scalar
from gdirac.suites import _Report


def test_report_check_records_the_largest_absolute_residual():
    rep = _Report("unit")
    rep.check("negative", "scalar", Scalar.of(-1))
    rep.check("ints", "iterable", [0, 3, -5])
    rep.check("vectors", "max_abs", [Vec(), Vec.basis(fock.FockState.vacuum(), Scalar.of(0, -2))])
    rep.check("zero-vec", "vector", Vec())
    rep.check("not-ok", "zero residual", 0, ok=False)
    rep.check("zeros", "mixed", [Vec(), Scalar.of(0), 0, False])
    report = rep.done()
    got = {c["check"]: (c["residual"], c["pass"]) for c in report["checks"]}
    assert got == {
        "negative": ("1", False),
        "ints": ("5", False),
        "vectors": ("0+2√2", False),
        "zero-vec": ("0", True),
        "not-ok": ("0", False),
        "zeros": ("0", True),
    }
    assert report["failures"] == 4


def test_nonzero_residual_fails_verify(capsys, monkeypatch):
    # the CAR brackets compose the fields' integer images, made by the
    # images adapter of the key cores; doubling them must surface as a
    # failing relation
    key_images = fock._key_images

    def doubled(core, *args):
        images = key_images(core, *args)
        return lambda key: {s: 2 * w for s, w in images(key).items()}

    monkeypatch.setattr(fock, "_key_images", doubled)
    assert main(["verify", "car", "--max-index", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] >= 1
    (relations,) = [c for c in report["checks"] if c["check"] == "car.relations"]
    assert relations["pass"] is False and relations["residual"] != "0"
