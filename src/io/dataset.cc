#include "io/dataset.h"

#include <utility>

#include "common/strings.h"
#include "obs/log.h"

namespace homets::io {

namespace {

constexpr std::string_view kHometsExtension = ".homets";

bool HasHometsExtension(const std::string& path) {
  return path.size() >= kHometsExtension.size() &&
         path.compare(path.size() - kHometsExtension.size(),
                      kHometsExtension.size(), kHometsExtension) == 0;
}

size_t ObservedRows(const simgen::GatewayTrace& gateway) {
  size_t rows = 0;
  for (const simgen::DeviceTrace& dev : gateway.devices) {
    // One CSV data row per minute where either direction is observed; on
    // the normalized grid outgoing is observed only where incoming's bin
    // exists, so counting per-bin like the CSV writer does is exact.
    const std::vector<double>& in_v = dev.incoming.values();
    const std::vector<double>& out_v = dev.outgoing.values();
    for (size_t i = 0; i < in_v.size(); ++i) {
      const bool in_obs = !ts::TimeSeries::IsMissing(in_v[i]);
      const bool out_obs =
          i < out_v.size() && !ts::TimeSeries::IsMissing(out_v[i]);
      if (in_obs || out_obs) ++rows;
    }
  }
  return rows;
}

}  // namespace

Result<InputFormat> ParseInputFormat(std::string_view name) {
  if (name == "auto") return InputFormat::kAuto;
  if (name == "csv") return InputFormat::kCsv;
  if (name == "homets") return InputFormat::kHomets;
  return Status::InvalidArgument(
      StrFormat("unknown input format '%.*s' (want auto, csv or homets)",
                static_cast<int>(name.size()), name.data()));
}

std::string_view InputFormatName(InputFormat format) {
  switch (format) {
    case InputFormat::kAuto:
      return "auto";
    case InputFormat::kCsv:
      return "csv";
    case InputFormat::kHomets:
      return "homets";
  }
  return "auto";
}

InputFormat GuessFormat(const std::string& path, InputFormat format) {
  if (format != InputFormat::kAuto) return format;
  return HasHometsExtension(path) ? InputFormat::kHomets : InputFormat::kCsv;
}

Result<DatasetReader> DatasetReader::Open(const std::string& path,
                                          const DatasetOptions& options) {
  DatasetReader reader;
  reader.format_ = GuessFormat(path, options.format);
  reader.path_ = path;
  reader.read_options_ = options.read;
  if (reader.format_ == InputFormat::kHomets) {
    HOMETS_ASSIGN_OR_RETURN(storage::HometsReader homets,
                            storage::HometsReader::Open(path));
    reader.homets_.emplace(std::move(homets));
  }
  obs::LogInfo(
      "io.dataset", "opened",
      {obs::LogField::Str("path", path),
       obs::LogField::Str(
           "format",
           reader.format_ == InputFormat::kHomets ? "homets" : "csv"),
       obs::LogField::Uint("gateways", reader.gateway_count())});
  return reader;
}

size_t DatasetReader::gateway_count() const {
  return homets_.has_value() ? homets_->gateway_count() : 1;
}

Result<simgen::GatewayTrace> DatasetReader::ReadGateway(size_t index) {
  simgen::GatewayTrace trace;
  std::vector<simgen::DeviceTrace> spare_devices;
  HOMETS_RETURN_IF_ERROR(ReadGateway(index, &trace, &spare_devices));
  return trace;
}

Status DatasetReader::ReadGateway(
    size_t index, simgen::GatewayTrace* trace,
    std::vector<simgen::DeviceTrace>* spare_devices) {
  if (index >= gateway_count()) {
    return Status::OutOfRange(
        StrFormat("gateway %zu out of range in %s (%zu gateways)", index,
                  path_.c_str(), gateway_count()));
  }
  if (homets_.has_value()) {
    return homets_->ReadGateway(index, trace, spare_devices);
  }
  report_ = IngestReport{};
  HOMETS_ASSIGN_OR_RETURN(*trace,
                          ReadGatewayCsv(path_, read_options_, &report_));
  return Status::OK();
}

Status WriteGatewayFile(const std::string& path,
                        const simgen::GatewayTrace& gateway,
                        InputFormat format) {
  if (GuessFormat(path, format) == InputFormat::kHomets) {
    return storage::WriteGatewayHomets(path, gateway);
  }
  return WriteGatewayCsv(path, gateway);
}

Result<ConvertStats> CompactCsvToHomets(const std::string& csv_path,
                                        const std::string& homets_path,
                                        const ReadOptions& options,
                                        IngestReport* report) {
  HOMETS_ASSIGN_OR_RETURN(const simgen::GatewayTrace gateway,
                          ReadGatewayCsv(csv_path, options, report));
  HOMETS_RETURN_IF_ERROR(storage::WriteGatewayHomets(homets_path, gateway));
  ConvertStats stats;
  stats.gateways = 1;
  stats.devices = gateway.devices.size();
  stats.rows = ObservedRows(gateway);
  return stats;
}

}  // namespace homets::io
