"""Execute every Python block of docs/service.md, in order and in one
namespace, so the documented construction of the serving stack (one
``AsyncFrontDoor`` over an engine) cannot drift from the library."""

from .test_tutorial import DOCS, python_blocks, run_blocks

SERVICE_DOC = DOCS / "service.md"


def test_service_doc_blocks_execute_in_order():
    assert python_blocks(SERVICE_DOC), "docs/service.md has no Python block"
    run_blocks(SERVICE_DOC)
