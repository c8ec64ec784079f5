"""Pin the bytes of `pedpod count` and `pedpod list` output.

    python3 pedbench/pin_digests.py

writes pedbench/digests.json: the sha256 of the table and csv output of
every invocation the workloads can make.  Run it only on a commit whose
output is the reference; the digests in the repository were taken from
the commit that added the benchmark, and any later change to these bytes
is a change the README says must not happen.
"""

import json

import inputs
import oracle
import worker


def invocations() -> list[list[str]]:
    out = []
    for cls in oracle.CLASSES:
        for fmt in ("table", "csv"):
            out.append(["count", "--class", cls, "--to", str(inputs.TABLES_N), "--format", fmt])
            out.append(["list", "--class", cls, "--n", str(inputs.CLI_LIST_N), "--format", fmt])
    return out


def main() -> None:
    pp = worker.load_pedpod()
    digests = {}
    for argv in invocations():
        code, text = worker.run_cli(pp, argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        digests[" ".join(argv)] = worker.digest(text)
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests in {worker.DIGESTS}")


if __name__ == "__main__":
    main()
