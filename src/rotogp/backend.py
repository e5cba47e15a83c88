"""Name of the array backend, recorded in benchmark provenance."""


def backend_name() -> str:
    return "numpy"
