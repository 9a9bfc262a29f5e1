"""The benchmark's world: one fixed market, per-seed models and traffic.

The SDK, archetype catalog, training corpus and its all-API study
observations are the same for every seed.  They are the expensive part
(~8 s) and do not depend on the workload seed, so they are built once
per checkout and cached under ``.servebench/cache``, keyed by a digest
of the ``repro`` sources so a changed program never reads a stale world.

Everything a seed controls is derived here and nowhere else: the fitted
checker (forest seed), the shadow candidate, and the stream of
never-seen apps.  The program under test only ever receives the
generated apps.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.android.sdk import AndroidSdk, SdkSpec
from repro.core.checker import ApiChecker
from repro.core.engine import DynamicAnalysisEngine
from repro.corpus.families import ArchetypeCatalog
from repro.corpus.generator import CorpusGenerator
from repro.emulator.backends import GoogleEmulator

#: The ROADMAP ledger's baseline scale.
N_APIS = 1400
#: Smallest training corpus whose mined key set is stable (tests/conftest).
N_TRAIN = 800
WORLD_SEED = 1400


@dataclass
class World:
    sdk: AndroidSdk
    catalog: ArchetypeCatalog
    train: object  # AppCorpus
    observations: list

    @property
    def train_md5s(self) -> frozenset[str]:
        return frozenset(apk.md5 for apk in self.train)


def source_digest(src_dir: Path) -> str:
    """Digest of every ``repro`` source file (the cache key)."""
    h = hashlib.sha256(f"{N_APIS}:{N_TRAIN}:{WORLD_SEED}".encode())
    for path in sorted((src_dir / "repro").rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build_world() -> World:
    sdk = AndroidSdk.generate(SdkSpec(n_apis=N_APIS, seed=WORLD_SEED))
    catalog = ArchetypeCatalog(sdk, seed=WORLD_SEED + 1)
    train = CorpusGenerator(sdk, seed=WORLD_SEED + 2, catalog=catalog).generate(
        N_TRAIN
    )
    study = DynamicAnalysisEngine(
        sdk,
        tracked_api_ids=np.arange(len(sdk)),
        primary=GoogleEmulator(),
        fallback=None,
        seed=WORLD_SEED + 3,
    )
    return World(sdk, catalog, train, study.observations(train))


def cache_path(cache_dir: Path, src_dir: Path) -> Path:
    return cache_dir / f"world-{source_digest(src_dir)}.pkl"


def write_world_cache(path: Path) -> None:
    """Build the world and publish it atomically (write-tmp-then-rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_bytes(pickle.dumps(build_world(), protocol=pickle.HIGHEST_PROTOCOL))
    tmp.replace(path)


def read_world_cache(path: Path) -> World:
    # Only this benchmark writes these files (see write_world_cache).
    return pickle.loads(path.read_bytes())


def fit_checker(world: World, seed: int) -> ApiChecker:
    """The seed's production model: fixed key set, seed-dependent forest."""
    return ApiChecker(world.sdk, seed=seed).fit(
        world.train, study_observations=world.observations
    )


class AppSource:
    """Seeded stream of never-seen apps: unique md5s, none from training.

    Apps come in the market's natural mix (~8% malware, mostly updates
    of packages first seen earlier in the stream).
    """

    def __init__(self, world: World, seed: int):
        self._generator = CorpusGenerator(
            world.sdk, seed=seed, catalog=world.catalog
        )
        self._seen = set(world.train_md5s)

    def take(self, n: int) -> list:
        apps = []
        while len(apps) < n:
            for apk in self._generator.generate(n - len(apps)):
                if apk.md5 not in self._seen:
                    self._seen.add(apk.md5)
                    apps.append(apk)
        return apps
