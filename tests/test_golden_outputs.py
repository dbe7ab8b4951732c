"""Golden digests of the files every preset writes at a small size.

Each digest is the sha256 over the names and bytes of the files one
``gossip-sa run``/``clt`` invocation writes, in name order.  Reruns with the
same seed are byte-identical, so a changed digest means the program's
outputs changed: a floating-point operation, an RNG call or the file layout.
A change that alters the random streams or the layout on purpose updates
the digests here and says so in ``CHANGES.md``.
"""

import hashlib

import pytest

from gossip_sa.cli import EXIT_OK, main

N_ITER = "run.n_iter=300"
CLT_REPLICAS = "run.replicas=100"

GOLDEN = {
    ("run", "quadratic-consensus"): (
        (N_ITER,),
        "bcc9f3d2830401a6ff08b828c87136db29aacc5cc2a85db24e67b6e743d96f0c",
    ),
    ("run", "constrained-toy"): (
        (N_ITER,),
        "016aecf1a8f1e32ac7d5ea71fcaf6ec7863c728a8bb9c0ce6b305d7344c5bb2c",
    ),
    ("run", "power-alloc"): (
        (N_ITER,),
        "a6622fac1cd2ffc84aa8e72b8b1bd57f9c84aa80e711beb61629d7fc51f8bf68",
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
    "55797fbff10f4634b7c80fa3ae7da03ac6ca8ea3cb9c1bba7516dd537bcaf582",
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
