"""Acceptance gate: the thirteen verification checks, one test each.

Each test prints its PASS/FAIL line to the real terminal (bypassing
capture) and then asserts the verdict, so a full run always shows the
complete table.  Two checks measure an estimate against its own next
correction rather than against zero:

* check 4: the large-a stationary asymptote a + 1/2 - log a is leading
  order only, so its gap to the exact rate at a = 30 (-0.0640) must sit
  within 4e-3 of the next expansion term -2/a = -0.0667;
* check 9: the packed survival behaves like C e^{-tr}/t, so the packed
  rate estimate is corrected by log(t/C)/t before it is held to a quarter
  of r; the flat estimate, whose correction is only log(sqrt(t))/t, is
  held to the same bound uncorrected.

The simulating checks (8, 11, 12) take about a second each; the whole
module finishes in about ten seconds.
"""

import pytest

from bmtails import verify

_IDS = [f"{num:02d}-{name}" for num, name, _ in verify.CHECKS]


@pytest.mark.parametrize("num,name,check", verify.CHECKS, ids=_IDS)
def test_criterion(num, name, check, capsys):
    ok, detail = check()
    line = verify.format_line(num, name, ok, detail)
    with capsys.disabled():
        print(line)
    assert ok, line
