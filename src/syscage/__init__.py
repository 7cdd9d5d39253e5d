"""Static syscall-dependency analysis with trace-driven path verification."""

from importlib import resources

__version__ = "0.1.0"


def packaged_data(name: str) -> str:
    """Read a bundled data file (seed syscall table or CVE dataset), its
    line ends as they are in the file."""
    return resources.files("syscage").joinpath("data", name).read_bytes().decode("utf-8")
