"""Golden digests: each trainer's record body and final actor parameters.

For every algorithm on a v0, a v2 and an RCE experiment, a short run (seed 3,
off-policy updates from step 50) must reproduce the sha256 of its record body
and of its final actor parameter bytes. A refactor that keeps these digests
is safe; a change that moves one must say why.

The runs happen in a child process with one BLAS thread: with two threads,
OpenBLAS splits some reductions differently and the RCE REINFORCE actor moves
in its last bits (up to 9e-17), so the digests would depend on the machine.

Run this file as a script to print the digests of the working tree.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SEED = 3
LEARNING_STARTS = 50
RUNS = {"v0-homo-64L": 400, "v2-homo-64L": 400, "rce-v0-homo-64L": 500}
ALGORITHMS = ("reinforce", "dpg", "ddpg", "td3", "trpo", "ppo", "sac", "tqc")

# (experiment, algorithm) -> (sha256 of the record body, of the actor parameters)
GOLDEN = {
    "v0-homo-64L/reinforce": [
        "f581d070713ca392ff65045142b2bef460c6bd3aa4396bcddedceac28c0a85d2",
        "07115bbe5bbff36950a71646d9f7fd646d527f0ba79fa424a3813d8ed65ca064"],
    "v0-homo-64L/dpg": [
        "0603e426edf5f780bd206ce3fa0cbf6979e68467400642a190c9755c8e15fca8",
        "993ba2ce380d176013e41ace9b591a6fdb493ef41f8feeb601319fe48168bec7"],
    "v0-homo-64L/ddpg": [
        "c57528f3c8336211798c927f286ac8dd6a24d8a6c4e67e1843df7c112fd6e8a6",
        "fe03d8146f94a2cfb155a3457d1f903215678f3b096c08bdfe21841c76b1f062"],
    "v0-homo-64L/td3": [
        "3efdfb13d1398570064bbdb5c6de706abbd870edb6e71fef66b1548be29a7b68",
        "d1d3bc46ab37afd8b4516cbe57874afa68694437603ebf172b2c3119d2c68a99"],
    "v0-homo-64L/trpo": [
        "ad0995606686113647adf0343bedfb0f63e4fb406070d2a338b310c3d6248e60",
        "d1cffb89f30f2a92d437d8050430542d3c8d87978cc0e12c029bc4ddb4aabdd4"],
    "v0-homo-64L/ppo": [
        "0f32bac869fb785f9667cb49213520bb4f080fe25ef3e94f456148d449e8cd60",
        "f23505c3fea734a7082874a87b18f026e101ddfcaaaf3338960beb7fa715a6de"],
    "v0-homo-64L/sac": [
        "e70fc5dfef4b87512c9631b549abc4c2047646dd040f79b262fc3d27bf400b01",
        "712e9e87b3b3b788365193137ba3102cf0af918732562a0aace405f77d1df604"],
    "v0-homo-64L/tqc": [
        "ea2c6dfb4a868df78fdda1adf490ef89cfd7cbfea28e2c18e7b5c810b1e823fb",
        "dcea89941c8afe07d88886c7451d84d3d6d2521a1053375874c673e04f562d78"],
    "v2-homo-64L/reinforce": [
        "8a355d22e4d3d45cf64d1b127dd44282203b50465aa6ef05a04172c3258d813a",
        "3d983795138117abd5b4f46c1af720b2b3f10a5c283028d9bc20f355b86591dc"],
    "v2-homo-64L/dpg": [
        "85cd2ee7924874e695937e5fead911507b28426202ec7dd7dc586590a7be7942",
        "a505d0d9306f1b67ec5ad42646cc87d6b1ac0ae1e3546405251e41fd0c33a5cd"],
    "v2-homo-64L/ddpg": [
        "2e86a4de0a7416ee2bfd1c768f93fc16b6e53e0e7a68dbdfdb9256c17738fe75",
        "0441b239d033eadfd2e2937172551fb5a7ed588be1f4a3c380c9b6c4ece8043e"],
    "v2-homo-64L/td3": [
        "52db345d282813f49d1200c7b651d3ce1297104ffc425b77f7d7cadc5568a711",
        "273ed67b17493379a00fd2aea1403d2ab76ef9865fc9a2bf27eaa9427c534d7a"],
    "v2-homo-64L/trpo": [
        "0327d2c7019ec2a79bb59a6e717d5f90cd31e26693d0ad4cc59994cec985e80a",
        "4be74ec037dd60e3dd4e978e8460d163a20f5ac936a3105eb9f860e950989977"],
    "v2-homo-64L/ppo": [
        "0219b8010a6b1cc7c9b17756bad16699817aef587a233c62209d52d76b5fa2d6",
        "f73e52d636cd78167b7fb9df02a404ece62b39e55abd166a35b1b38feeb4fdb4"],
    "v2-homo-64L/sac": [
        "56284f2e3d759c47c02f24fd64b6cab1a3436fb1e6d2075415af429efc7c8d02",
        "646f5fbac6cebf8491ec34b05ca2044535acb23118a4e22ede4fd87f747af16a"],
    "v2-homo-64L/tqc": [
        "0120cd45e545dfba5ead62662d86ba18cb9400f9bc70594cdeb7167596fb8d76",
        "090e10e9183138c177d4a680703e9d5776b2fce9d4d237948d166b7b76ee49ba"],
    "rce-v0-homo-64L/reinforce": [
        "b42c80fa1484967479f54b80004154cfc2983a6f062b3b1062396d5b5183dd2b",
        "c5550ebd8e6764152771a35ea00e71927bc85dc2e2127f01e290fb5d07aeb380"],
    "rce-v0-homo-64L/dpg": [
        "15240b9accfc5c7183944669aa84b9c27a9f8a64d779b976c7da45af12e5bc1f",
        "82f11c262a5eb69f690a2310304483ba6ac4298075611881b34cd607587f035c"],
    "rce-v0-homo-64L/ddpg": [
        "29e2d1f7609339e0bf1d13951e2d8c8c3705af806c3f74d3e2b094be4d6cd1f9",
        "518b6f16da9479f73a25d09f8f258576ecf36d3b3d6e0e05892baaccb62e8d2a"],
    "rce-v0-homo-64L/td3": [
        "39469a9d38784823fc1ba611c1ef564952c627139f54c3b2901f9de945076682",
        "eb906362fe128f35f38ad953fed0e23d61e37587b267e1c4d3b5765f600d8d6c"],
    "rce-v0-homo-64L/trpo": [
        "743d78dff30a97f000bac4b1390615c787ef7df4c8849949665edb58c95b466f",
        "60bcd48d71521d237c92c9ee74113a3a3777ff7edba42f70668419115e0653af"],
    "rce-v0-homo-64L/ppo": [
        "8be1345b0a827d9b1a7ec6a3a49f595ffa4cb6e81dcb9456675e5ee7766eb085",
        "7a9a5f82c296eeb8aad1405ba2751d693f6f4649eb00bf6d8c4a9cfe1324a0a8"],
    "rce-v0-homo-64L/sac": [
        "40a3817c89f8f75444e77421e1f527ae3efe1bbf5d7e6245f3a1b5ec2ce597fa",
        "81d5fe8e0590549f125201c7aa0f9d69f7c1b331d2dfc2a0789219a0cb15b204"],
    "rce-v0-homo-64L/tqc": [
        "79a2f9b558eea491768579ffb4d388f76a833e3eec1b1dfc2400c8316b37e7e5",
        "908f5008ccffadbb3e6257a78198fe7cbf88a6b1d33cb75419436b884d5c9fde"],
}


def compute_digests() -> dict[str, list[str]]:
    from climbench.algos import make_trainer
    from climbench.experiments import (experiment_spec, make_experiment_env,
                                       resolve_config)

    out = {}
    for experiment_id, steps in RUNS.items():
        spec = experiment_spec(experiment_id)
        for algorithm in ALGORITHMS:
            cfg = resolve_config(spec, algorithm, steps=steps)
            if hasattr(cfg, "learning_starts"):
                cfg.learning_starts = LEARNING_STARTS
            trainer = make_trainer(algorithm, make_experiment_env(spec), cfg, SEED,
                                   experiment_id)
            record = trainer.train()
            params = trainer.actor_mlp().flat.tobytes()
            out[f"{experiment_id}/{algorithm}"] = [
                hashlib.sha256(record.body_bytes()).hexdigest(),
                hashlib.sha256(params).hexdigest()]
    return out


def test_golden_digests():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert sorted(digests) == sorted(GOLDEN)
    moved = sorted(key for key in GOLDEN if digests[key] != GOLDEN[key])
    assert moved == [], f"digests moved for {moved}"


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1, sort_keys=True))
