"""Golden digests of the files every preset writes at a small size.

Each digest is the sha256 over the names and bytes of the files one
``gossip-sa run``/``clt`` invocation writes, in name order.  Reruns with the
same seed are byte-identical, so a changed digest means the program's
outputs changed: a floating-point operation, an RNG call or the file layout.
A change that alters the random streams or the layout on purpose updates
the digests here and says so in ``CHANGES.md``.  Run as a script,
``python tests/test_golden_outputs.py``, this file prints the current digest
of every pinned invocation of the checkout's ``src`` and exits 1 when any of
them changed.
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gossip_sa.cli import EXIT_OK, main  # noqa: E402

N_ITER = "run.n_iter=300"
CLT_REPLICAS = "run.replicas=100"

GOLDEN = {
    ("run", "quadratic-consensus"): (
        (N_ITER,),
        "67aa731740730d4c2179da4e99297a67fcc6d3ec42730c3f80264de4e03d8577",
    ),
    ("run", "constrained-toy"): (
        (N_ITER,),
        "552eb7759babb4c9ab9803eb2d3d765ffc4066dcd40f988ff9cf5fc129b457d1",
    ),
    ("run", "power-alloc"): (
        (N_ITER,),
        "d2ee049b7f98ef34df0324047f0a3f59b11524e837bc469c2b494bdca8e50f31",
    ),
    ("clt", "scalar-clt"): (
        (N_ITER, CLT_REPLICAS),
        "f2a3b5029effc88c412e5cd9c2e50dd3f4ed60d5b74f8dae15d6d7ca15f94c48",
    ),
    ("clt", "scalar-clt-xi1"): (
        (N_ITER, CLT_REPLICAS),
        "c5e61f2e6359aaee6d340ba850d03ab7c4e00b18cbe907a0f9f6eb16d59d35ec",
    ),
}

#: A lazy ensemble (exchange probability ``0.7 * n**-0.1``), so that the
#: branch of ``run_ensemble`` where some replicas skip mixing is pinned too.
LAZY_CLT = (
    (N_ITER, CLT_REPLICAS, "laziness.c=0.7", "laziness.eta=0.1"),
    "dbdf389a08d4d2f01b0f83cac71fae4479e91f5c7108acfdd8d4f45eacf12afe",
)

#: The same exchange probability on the sequential ``run`` path, where each
#: replica's mixing draw is lazy with probability ``1 - p``.
LAZY_RUN = (
    (N_ITER, "laziness.c=0.7", "laziness.eta=0.1"),
    "c5856eba44a4d3e8f106868f3a9eead2c7e765441c2e9d5231c7e1df6a5cba8b",
)


#: Dense power-alloc records (43 per replica): record blocks end inside the
#: run, and the last block is partial.
DENSE_POWER = (
    (N_ITER, "run.record_every=7", "run.replicas=3"),
    "d8ddc081812ebc1695c9be4e0cdd8d706bd22dbeba4bed2a99b8a7b171e453fa",
)


def digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_digest(tmp_path, command, preset, overrides) -> str:
    out = tmp_path / preset
    argv = [command, "--preset", preset, "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == EXIT_OK
    return digest(out)


@pytest.mark.parametrize("command,preset", sorted(GOLDEN))
def test_preset_outputs_match_golden_digest(tmp_path, capsys, command, preset):
    overrides, expected = GOLDEN[command, preset]
    assert run_digest(tmp_path, command, preset, overrides) == expected


def test_lazy_clt_outputs_match_golden_digest(tmp_path, capsys):
    overrides, expected = LAZY_CLT
    assert run_digest(tmp_path, "clt", "scalar-clt", overrides) == expected


def test_lazy_run_outputs_match_golden_digest(tmp_path, capsys):
    overrides, expected = LAZY_RUN
    assert run_digest(tmp_path, "run", "quadratic-consensus", overrides) == expected


def test_dense_power_records_match_golden_digest(tmp_path, capsys):
    overrides, expected = DENSE_POWER
    assert run_digest(tmp_path, "run", "power-alloc", overrides) == expected


def pinned_invocations():
    """Every pinned invocation: (label, command, preset, overrides, digest)."""
    for (command, preset), (overrides, expected) in sorted(GOLDEN.items()):
        yield f"{command} {preset}", command, preset, overrides, expected
    yield "LAZY_CLT", "clt", "scalar-clt", *LAZY_CLT
    yield "LAZY_RUN", "run", "quadratic-consensus", *LAZY_RUN
    yield "DENSE_POWER", "run", "power-alloc", *DENSE_POWER


if __name__ == "__main__":
    changed = False
    for label, command, preset, overrides, expected in pinned_invocations():
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
            current = run_digest(Path(tmp), command, preset, overrides)
        changed |= current != expected
        status = "CHANGED" if current != expected else "unchanged"
        print(f"{label}: {current} ({status})")
    sys.exit(1 if changed else 0)
