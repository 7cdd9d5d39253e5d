"""Exception hierarchy shared across the toolchain.

ParseError covers malformed input files (CLI exit code 2); AnalysisError
covers semantic failures on well-formed inputs (CLI exit code 3).
"""


class SyscageError(Exception):
    pass


class ParseError(SyscageError):
    pass


class AnalysisError(SyscageError):
    pass


# disassembly
class MalformedHeader(ParseError):
    pass


class MalformedInstruction(ParseError):
    pass


class AddressOrder(ParseError):
    pass


class OverlappingFunctions(ParseError):
    pass


# source facts
class MalformedRecord(ParseError):
    pass


class AliasCycle(ParseError):
    pass


class DuplicateSignature(ParseError):
    pass


# call graph
class UnknownCaller(AnalysisError):
    pass


class UnknownApi(AnalysisError):
    pass


# syscall table
class MalformedRow(ParseError):
    pass


class DuplicateNumber(ParseError):
    pass


class UnknownSyscallName(AnalysisError):
    pass


# profile generation
class UnresolvedSites(AnalysisError):
    pass


class MalformedDocument(ParseError):
    """A mapping or sidecar JSON document of the wrong shape."""


# verifier
class MalformedMapLine(ParseError):
    pass


class MalformedEvent(ParseError):
    pass


class RegionOverflow(AnalysisError):
    pass


# CVE dataset
class MalformedCveId(ParseError):
    pass


class UnknownSyscall(AnalysisError):
    pass
