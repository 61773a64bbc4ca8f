#include "simgen/types.h"

#include <algorithm>

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
  // incoming/outgoing are generated on one grid; Add cannot fail here.
  auto total = ts::TimeSeries::Add(incoming, outgoing);
  return total.ok() ? std::move(total).value() : incoming;
}

TotalTrafficView::TotalTrafficView(const DeviceTrace& device)
    : in_(&device.incoming),
      start_(device.incoming.start_minute()),
      step_(device.incoming.step_minutes()) {
  int64_t end = in_->EndMinute();
  // TotalTraffic() is Add(incoming, outgoing), or incoming where Add fails.
  if (ts::TimeSeries::CheckSameGrid(device.incoming, device.outgoing).ok()) {
    out_ = &device.outgoing;
    start_ = std::min(start_, out_->start_minute());
    end = std::max(end, out_->EndMinute());
    out_offset_ = static_cast<size_t>((out_->start_minute() - start_) / step_);
  }
  in_offset_ = static_cast<size_t>((in_->start_minute() - start_) / step_);
  size_ = static_cast<size_t>((end - start_) / step_);
}

ts::TimeSeries GatewayTrace::AggregateTraffic() const {
  ts::TimeSeries total;
  for (const auto& dev : devices) ts::AddInto(&total, TotalTrafficView(dev));
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
