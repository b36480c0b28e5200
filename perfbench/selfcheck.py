"""Fast self-check of the benchmark, at toy size.

    python3 perfbench/selfcheck.py

For every workload it runs the benchmark three times and asserts:

1. default seed, ``--trace 0``: the last line has exactly the result
   keys, every end-to-end metric of BENCHMARK.json with its unit and a
   value above 0, and every output check passes (checked against the
   recorded values in expected.json);
2. another seed, ``--trace 1``: every per-layer metric with its unit,
   and every output check passes (checked against the oracle run, or
   for curate, whose input is fixed, against expected.json);
3. default seed with an expected.json in which one value is wrong: the
   run reports correct=false and every rep failed.

It then feeds each recorded expectation, one wrong value at a time, to
the comparison against the outputs of run 1, and asserts that each one
is caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "toy", "--seconds", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"run.py {args} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def wrong(value):
    if isinstance(value, str):
        return "0" * len(value)
    if isinstance(value, list):
        return value + [-1]
    return value + 1


def check_metrics(result: dict, spec: list[dict], positive: bool) -> None:
    assert set(result) == RESULT_KEYS, result.keys()
    got = result["metrics"]
    assert list(got) == [m["name"] for m in spec], sorted(set(got) ^ {m["name"] for m in spec})
    for m in spec:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], (m["name"], v)
        assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool), v
        assert v["value"] > 0 or not positive, (m["name"], v)


def main() -> int:
    sys.path.insert(0, str(HERE))
    from checks import compare

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    for wl in [w["name"] for w in spec["workloads"]]:
        result, info = bench("--workload", wl, "--seed", "42", "--trace", "0")
        check_metrics(result, spec["end_to_end"], positive=True)
        assert result["correct"] and result["failed"] == 0, info
        observed = info["reps"][0]["observed"]

        result, info = bench("--workload", wl, "--seed", "3", "--trace", "1")
        check_metrics(result, spec["per_layer"], positive=False)
        assert result["correct"] and result["failed"] == 0, info

        exp = expected["workloads"][wl]["toy"]
        assert not compare(observed, exp), compare(observed, exp)
        for key in exp:
            assert compare(observed, {**exp, key: wrong(exp[key])}), (wl, key)
        bad = json.loads(json.dumps(expected))
        key = sorted(exp)[0]
        bad["workloads"][wl]["toy"][key] = wrong(exp[key])
        (ROOT / ".pbw").mkdir(exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=ROOT / ".pbw") as f:
            json.dump(bad, f)
            f.flush()
            result, info = bench("--workload", wl, "--seed", "42", "--trace", "0", "--expect", f.name)
        assert not result["correct"] and result["failed"] == result["attempted"], result
        print(f"{wl}: metrics, output checks and {len(exp)} wrong expectations OK", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
