// Fixture: a waived file that no longer includes anything from core.
namespace fixture {
int UnusedTicks() { return 0; }
}  // namespace fixture
