#include "simgen/types.h"

namespace homets::simgen {

std::string DeviceTypeName(DeviceType type) {
  switch (type) {
    case DeviceType::kPortable:
      return "portable";
    case DeviceType::kFixed:
      return "fixed";
    case DeviceType::kNetworkEquipment:
      return "network_equipment";
    case DeviceType::kGameConsole:
      return "game_console";
    case DeviceType::kUnlabeled:
      return "unlabeled";
  }
  return "unlabeled";
}

ts::TimeSeries DeviceTrace::TotalTraffic() const {
  ts::TimeSeries total;
  TotalTraffic(&total);
  return total;
}

void DeviceTrace::TotalTraffic(ts::TimeSeries* total) const {
  // incoming/outgoing are generated on one grid; Add cannot fail here.
  if (!ts::TimeSeries::Add(incoming, outgoing, total).ok()) *total = incoming;
}

ts::TimeSeries GatewayTrace::AggregateTraffic() const {
  ts::TimeSeries total;
  for (const auto& dev : devices) ts::AddInto(&total, dev.TotalTraffic());
  return total;
}

ts::TimeSeries GatewayTrace::AggregateIncoming() const {
  ts::TimeSeries total;
  for (const auto& dev : devices) ts::AddInto(&total, dev.incoming);
  return total;
}

ts::TimeSeries GatewayTrace::AggregateOutgoing() const {
  ts::TimeSeries total;
  for (const auto& dev : devices) ts::AddInto(&total, dev.outgoing);
  return total;
}

ts::TimeSeries GatewayTrace::ConnectedDeviceCount() const {
  const ts::TimeSeries agg = AggregateTraffic();
  if (agg.empty()) return agg;
  std::vector<double> counts(agg.size(), ts::TimeSeries::Missing());
  for (const auto& dev : devices) {
    const ts::TimeSeries total = dev.TotalTraffic();
    const int64_t offset =
        (total.start_minute() - agg.start_minute()) / agg.step_minutes();
    for (size_t i = 0; i < total.size(); ++i) {
      if (ts::TimeSeries::IsMissing(total[i])) continue;
      const size_t slot = static_cast<size_t>(offset) + i;
      if (slot >= counts.size()) continue;
      counts[slot] =
          ts::TimeSeries::IsMissing(counts[slot]) ? 1.0 : counts[slot] + 1.0;
    }
  }
  return ts::TimeSeries(agg.start_minute(), agg.step_minutes(),
                        std::move(counts));
}

bool GatewayTrace::HasObservationEveryWeek(int64_t start_minute,
                                           int weeks) const {
  const ts::TimeSeries agg = AggregateTraffic();
  if (agg.empty()) return false;
  for (int w = 0; w < weeks; ++w) {
    const int64_t begin = start_minute + w * ts::kMinutesPerWeek;
    const int64_t end = begin + ts::kMinutesPerWeek;
    auto window = agg.Slice(std::max(begin, agg.start_minute()),
                            std::min(end, agg.EndMinute()));
    if (!window.ok() || window->CountObserved() == 0) return false;
  }
  return true;
}

bool GatewayTrace::HasObservationEveryDay(int64_t start_minute,
                                          int days) const {
  const ts::TimeSeries agg = AggregateTraffic();
  if (agg.empty()) return false;
  for (int d = 0; d < days; ++d) {
    const int64_t begin = start_minute + d * ts::kMinutesPerDay;
    const int64_t end = begin + ts::kMinutesPerDay;
    auto window = agg.Slice(std::max(begin, agg.start_minute()),
                            std::min(end, agg.EndMinute()));
    if (!window.ok() || window->CountObserved() == 0) return false;
  }
  return true;
}

}  // namespace homets::simgen
