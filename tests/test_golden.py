"""Golden artifacts: identical flags give the bytes kept in tests/golden/."""

from tests import golden


def test_artifacts_match_golden(tmp_path):
    out = str(tmp_path)
    problems = golden.compare(out, golden.run_all(out))
    assert not problems, "\n".join(problems)
