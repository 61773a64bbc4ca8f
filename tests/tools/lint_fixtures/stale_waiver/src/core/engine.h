// Fixture core-layer header.
#ifndef FIXTURE_ENGINE_H_
#define FIXTURE_ENGINE_H_

namespace fixture {
struct CoreEngine {
  int ticks = 0;
};
}  // namespace fixture

#endif  // FIXTURE_ENGINE_H_
