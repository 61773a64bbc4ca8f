#include "obs/metrics.h"

#include "obs/json_encoder.h"

namespace homets::obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  return snapshot;
}

std::string MetricsRegistry::ExportJson() const {
  JsonEncoder out;
  out.BeginObject();
  for (const auto& [name, value] : Snapshot().counters) out.Member(name, value);
  out.EndObject();
  return out.str();
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
}

}  // namespace homets::obs
