"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; the CLI equivalent is ``poletrace verify --suite all``.

The sentinels below patch one named defect into the function a criterion
reads and require that criterion to FAIL, so a criterion that can no longer
see its defect fails the suite.  Criteria 4, 5 and 6(a) compare a value with
itself and have none yet; criterion 9's would rerun the 9 s coset sum.
"""

import numpy as np
import pytest

from poletrace import paths, verify
from poletrace.verify import CRITERIA


@pytest.mark.parametrize("ident", sorted(CRITERIA))
def test_criterion(ident):
    result = CRITERIA[ident]()
    print(result.line())
    assert result.passed, result.line()


#: criterion -> (module, name, defect built from the original function)
DEFECTS = {
    "1": (verify, "singular_line_integral", lambda f: lambda *a: f(*a) * (1.0 + 1e-6)),
    "2": (verify, "singular_line_integral", lambda f: lambda *a: f(*a) * (1.0 + 1e-6)),
    "3": (verify, "planar_singular_integral", lambda f: lambda w: np.pi / w),
    "7": (paths, "_segment_crossing", lambda f: lambda a, b, c: f(a, b, 0.25 * c)),
    "8": (verify, "eigenvalue_minparabolic_power",
          lambda f: lambda s1, s2, s3: f(s1, s2, s3) + 1e-9 * s1),
}


@pytest.mark.parametrize("ident", sorted(DEFECTS))
def test_criterion_fails_on_its_defect(ident, monkeypatch):
    module, name, defect = DEFECTS[ident]
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    result = CRITERIA[ident]()
    print(result.line())
    assert not result.passed, result.line()
