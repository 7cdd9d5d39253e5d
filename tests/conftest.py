import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from syscage.disasm import parse_disassembly
from syscage.srcfacts import load_source_facts
from syscage.sysnum import load_syscall_table
from syscage import packaged_data

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def minilib_unit():
    return parse_disassembly((DATA / "minilib.sdis").read_text())


@pytest.fixture(scope="session")
def minilib_facts():
    return load_source_facts((DATA / "minilib.facts.json").read_text())


@pytest.fixture(scope="session")
def target_unit():
    return parse_disassembly((DATA / "target.sdis").read_text())


@pytest.fixture(scope="session")
def seed_table():
    return load_syscall_table(packaged_data("syscall_64.tbl"))
