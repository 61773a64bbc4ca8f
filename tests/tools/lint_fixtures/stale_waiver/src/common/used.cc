// Fixture: an upward edge its waiver covers.
#include "core/engine.h"

namespace fixture {
int UsedTicks() {
  CoreEngine engine;
  return engine.ticks;
}
}  // namespace fixture
