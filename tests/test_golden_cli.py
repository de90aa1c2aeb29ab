"""Golden hashes of seeded CLI transcripts: stdout, stderr and written files.

Each case runs one ``fracgrey`` command in-process with a fixed seed and
hashes its exit code, stdout, stderr and every file it writes.  Benchmark
``results.json`` records are hashed without ``elapsed_ms``, the only field
that changes between runs.  The plans are small (step 0.1, one or two
repeats, and fewer agents and iterations where a config file is given), so
the whole module runs in about two seconds.

The hashes depend on the platform's floating-point library.  To see the
current values, run ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import hashlib
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from fracgrey.cli import main

# Config files: {name}.cfg holds these lines.
CONFIGS = {
    "cdc1": "CDC = 1\nSPC = false\nN = 10\nIter_max = 30\n",
    "m1": "M = 1\nN = 10\nIter_max = 30\n",
    "pso": "N = 10\nc1 = 2.0\nIter_max = 30\n",
}

SEARCH = ["--dataset", "wuhan", "--step", "0.1", "--repeats", "2", "--seed", "1"]

# name -> (argv, config or None); "{out}" is replaced by a fresh directory.
CASES = {
    "fit-lsm": (["fit", "--dataset", "zhejiang", "--r", "0.5", "--estimator", "lsm",
                 "--out", "{out}/fit.json"], None),
    "fit-adcso": (["fit", "--dataset", "wuhan", "--r", "0.25", "--estimator", "adcso",
                   "--seed", "1", "--out", "{out}/fit.json"], None),
    "fit-adcso-cdc1": (["fit", "--dataset", "wuhan", "--r", "0.25", "--estimator", "adcso",
                        "--seed", "1", "--out", "{out}/fit.json"], "cdc1"),
    "fit-adcso-m1": (["fit", "--dataset", "zhejiang", "--r", "0.75", "--estimator", "adcso",
                      "--seed", "2", "--out", "{out}/fit.json"], "m1"),
    "fit-pso": (["fit", "--dataset", "zhejiang", "--r", "0.5", "--estimator", "pso",
                 "--seed", "1", "--out", "{out}/fit.json"], None),
    "fit-pso-cfg": (["fit", "--dataset", "wuhan", "--r", "0.5", "--estimator", "pso",
                     "--seed", "1", "--out", "{out}/fit.json"], "pso"),
    "order-search-lsm": (["order-search", *SEARCH, "--estimator", "lsm"], None),
    "order-search-adcso": (["order-search", *SEARCH, "--estimator", "adcso"], None),
    "order-search-adcso-cdc1": (["order-search", *SEARCH, "--estimator", "adcso"], "cdc1"),
    "order-search-adcso-m1": (["order-search", *SEARCH, "--estimator", "adcso"], "m1"),
    "order-search-pso": (["order-search", *SEARCH, "--estimator", "pso"], None),
    "order-search-pso-cfg": (["order-search", *SEARCH, "--estimator", "pso"], "pso"),
    "forecast-lsm": (["forecast", *SEARCH, "--estimator", "lsm", "--horizon", "3"], None),
    "forecast-adcso-cdc1": (["forecast", *SEARCH, "--estimator", "adcso"], "cdc1"),
    "forecast-adcso-m1": (["forecast", *SEARCH, "--estimator", "adcso", "--horizon", "2"],
                          "m1"),
    "forecast-pso": (["forecast", *SEARCH, "--estimator", "pso"], None),
    "forecast-pso-cfg": (["forecast", *SEARCH, "--estimator", "pso", "--horizon", "2"],
                         "pso"),
    "benchmark": (["benchmark", "--dataset", "wuhan", "--repeats", "1", "--seed", "1",
                   "--out", "{out}/bench"], None),
    "benchmark-cdc1": (["benchmark", "--dataset", "zhejiang", "--repeats", "2",
                        "--seed", "3", "--out", "{out}/bench"], "cdc1"),
}


def _file_bytes(path: Path) -> bytes:
    if path.name != "results.json":
        return path.read_bytes()
    records = json.loads(path.read_text(encoding="utf-8"))
    for record in records:
        del record["elapsed_ms"]
    return json.dumps(records, indent=2).encode()


def _transcript_hash(name):
    argv, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
        if config:
            cfg = Path(tmp) / f"{config}.cfg"
            cfg.write_text(CONFIGS[config], encoding="utf-8")
            argv += ["--config", str(cfg)]
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        h = hashlib.sha256()
        for part in (str(code), stdout.getvalue(), stderr.getvalue()):
            h.update(part.encode() + b"\0")
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(_file_bytes(path) + b"\0")
    return h.hexdigest()


GOLDEN_CLI = {
    "benchmark": "0fe724d8c00d5a1e8db4417039a6f53a1e2af1a58232d5f3829a50a6b87737e9",
    "benchmark-cdc1": "d1eba71038745403f418a92e5fe823f0bbb24e3827ed2ee2794beddd5bc07651",
    "fit-adcso": "8c80e43197e53494c6b9df0bf0c79aa09d8e47121c86663e3be402a72a581a4a",
    "fit-adcso-cdc1": "6f37f061178a85458843846b48d60007ce08c7994e07b030524cd32a6d7f53a8",
    "fit-adcso-m1": "6b5d0dc7c79e4eb95f0af8c8c8730bd40822412ca11a2b7038197f0c38a549a9",
    "fit-lsm": "9298d17527be7292b4ae0c4adb99664386cc7213589c7d3e66032f0915e9d448",
    "fit-pso": "05b906aeaf92a0426e2ae7aeb14c2c96a254c70125ea9c90007427b2f147983c",
    "fit-pso-cfg": "53a28902d6f049c680425cefedd584a88c0699c1e8a9e4c01dacf6c008354f81",
    "forecast-adcso-cdc1": "a255614cdec4e7528973cb6cb990a5bd7e599be34d55a2e3c8d8fea399eb2052",
    "forecast-adcso-m1": "32b2f3a24cdc287619f1f012c10ebd603317f8bd1393fabb66634613653f37de",
    "forecast-lsm": "f930e7f13d7b60421670a639541906d73e7a268deabc78c25e9e933349c33259",
    "forecast-pso": "0fe46238171e302da1738bd5ebc62dc558106972e9ea0e47f6b92351f7246f02",
    "forecast-pso-cfg": "68076286595c8e92b547183331c03f7e2539e310943f5c39b541085a306d5389",
    "order-search-adcso": "5b9f8c0ffa504d3ab9f10bed318d2d65944afdbabc478df8e78d2e60f8a9cd5e",
    "order-search-adcso-cdc1": "2ba4aa8cbc55c92c59493b1f25ad3f74b17cab397876ec29e1c6a15e9ce98775",
    "order-search-adcso-m1": "bc0512c92e89cc9a111d1c8d3173b1fa6e44aa4e2ae11cf1ae940ce36b7c711c",
    "order-search-lsm": "640690e2ed18a6648fda3e6a6eed5158ccf43053d048dad2f76d2069a32f0f1e",
    "order-search-pso": "d1752561490413683f5d8d4023735c3f33802929f86cf2059fec12bdcabf0055",
    "order-search-pso-cfg": "744f85a2c5e915be2d615b24c18ab4872f847f25e0bfef803a763c204eaa3ab3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_golden_hash(name):
    assert _transcript_hash(name) == GOLDEN_CLI[name]


if __name__ == "__main__":
    print("GOLDEN_CLI = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{_transcript_hash(name)}",')
    print("}")
