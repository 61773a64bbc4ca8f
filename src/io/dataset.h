#ifndef HOMETS_IO_DATASET_H_
#define HOMETS_IO_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/csv.h"
#include "simgen/types.h"
#include "storage/homets_format.h"

// Format-agnostic dataset access (DESIGN.md §11.4).
//
// DatasetReader is the one door through which the pipeline, the CLI and the
// bench harnesses read gateway traces; only src/io and src/storage talk to
// the concrete CSV/columnar readers (homets_lint's `csv-include` rule keeps
// it that way). A path is interpreted by extension under kAuto — `.homets`
// is columnar, anything else is CSV — or forced with an explicit format.
namespace homets::io {

/// \brief On-disk trace encodings DatasetReader understands.
enum class InputFormat : uint8_t {
  kAuto = 0,  ///< decide per path: ".homets" → kHomets, else kCsv
  kCsv,
  kHomets,
};

/// \brief Parses a --input-format flag value ("auto", "csv", "homets").
Result<InputFormat> ParseInputFormat(std::string_view name);

/// \brief Canonical flag spelling of a format ("auto", "csv", "homets").
std::string_view InputFormatName(InputFormat format);

/// \brief Resolves kAuto against a path's extension; returns kCsv or
/// kHomets.
InputFormat GuessFormat(const std::string& path, InputFormat format);

/// \brief Knobs for opening a dataset.
struct DatasetOptions {
  InputFormat format = InputFormat::kAuto;
  /// Error policy for the CSV edge; columnar files are CRC-checked instead
  /// and ignore this.
  ReadOptions read;
};

/// \brief Reads gateway traces from one file, whatever its format.
///
/// CSV files hold one gateway; .homets files hold one or more. Open is
/// cheap for CSV (the parse happens in ReadGateway, so benchmarks time the
/// actual ingest) and parses only the index footer for columnar files.
class DatasetReader {
 public:
  static Result<DatasetReader> Open(const std::string& path,
                                    const DatasetOptions& options = {});

  DatasetReader(DatasetReader&&) = default;
  DatasetReader& operator=(DatasetReader&&) = default;

  /// The format the reader resolved to (never kAuto).
  InputFormat format() const { return format_; }

  size_t gateway_count() const;

  /// Decodes gateway `index`. Non-const because the CSV edge reads lazily
  /// and records its IngestReport here.
  Result<simgen::GatewayTrace> ReadGateway(size_t index);

  /// ReadGateway into `*trace`. A .homets gateway decodes into the buffers
  /// of the trace's device series, with `*spare_devices` as in
  /// HometsReader::ReadGateway; a CSV one is parsed as ReadGateway does and
  /// assigned. On error `*trace` must not be used as a gateway.
  Status ReadGateway(size_t index, simgen::GatewayTrace* trace,
                     std::vector<simgen::DeviceTrace>* spare_devices);

  /// The resilient-ingest report of the last CSV ReadGateway (empty for
  /// columnar files, which fail hard on corruption instead of skipping).
  const IngestReport& report() const { return report_; }

 private:
  DatasetReader() = default;

  InputFormat format_ = InputFormat::kCsv;
  std::string path_;
  ReadOptions read_options_;
  IngestReport report_;
  std::optional<storage::HometsReader> homets_;
};

/// \brief Writes one gateway as `format` (kAuto: by extension) — the
/// format-agnostic counterpart of WriteGatewayCsv / WriteGatewayHomets.
Status WriteGatewayFile(const std::string& path,
                        const simgen::GatewayTrace& gateway,
                        InputFormat format = InputFormat::kAuto);

/// What a conversion moved.
struct ConvertStats {
  size_t gateways = 0;
  size_t devices = 0;
  size_t rows = 0;  ///< observed device-minutes (CSV data rows)
};

/// \brief Compacts one gateway CSV into a .homets file through the resilient
/// CSV reader — the ingest-edge → columnar hot-path hand-off. `report` (may
/// be nullptr) receives what the CSV edge had to skip.
Result<ConvertStats> CompactCsvToHomets(const std::string& csv_path,
                                        const std::string& homets_path,
                                        const ReadOptions& options = {},
                                        IngestReport* report = nullptr);

}  // namespace homets::io

#endif  // HOMETS_IO_DATASET_H_
