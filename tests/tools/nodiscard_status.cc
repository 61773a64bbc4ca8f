// Compile-only fixture for nodiscard_status_test.sh: Status and Result<T>
// are [[nodiscard]], so each line marked `expect-unused-result` below must
// draw an unused-result diagnostic and no other line may. Never built into
// any target.

#include "common/status.h"

namespace homets {

Status Flush() { return Status::OK(); }

struct Store {
  Result<int> Get() const { return 1; }
};

int Use(const Store& store) {
  Flush();      // expect-unused-result
  store.Get();  // expect-unused-result
  (void)Flush();
  const Result<int> value = store.Get();
  return Flush().ok() && value.ok() ? *value : 0;
}

}  // namespace homets
