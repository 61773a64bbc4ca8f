#ifndef HOMETS_COMMON_FLAGS_H_
#define HOMETS_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace homets {

/// \brief Result of strict command-line parsing: `--flag value` /
/// `--flag=value` pairs plus positional arguments.
struct ParsedArgs {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  bool Has(const std::string& flag) const { return flags.count(flag) > 0; }

  std::string GetString(const std::string& flag,
                        const std::string& fallback = "") const {
    const auto it = flags.find(flag);
    return it == flags.end() ? fallback : it->second;
  }

  /// The flag's value as a base-10 integer; InvalidArgument when present but
  /// not fully numeric.
  Result<int64_t> GetInt(const std::string& flag, int64_t fallback) const;
};

/// \brief Strict flag parsing: every `--name` must be in `known_flags` and
/// must be followed by a value (either `--name value` or `--name=value`).
///
/// Unknown flags and a trailing flag with no value are errors — they are
/// never silently demoted to positionals (a dangling `--seed` used to be
/// swallowed that way). A literal `--` ends flag parsing; everything after
/// it is positional, so file names starting with dashes stay usable.
///
/// Flags in `bool_flags` (must also be in `known_flags`) take no value:
/// bare `--name` records "1", and an explicit `--name=VALUE` is still
/// honored (so `--resume=0` can switch one off).
Result<ParsedArgs> ParseFlags(const std::vector<std::string>& args,
                              const std::set<std::string>& known_flags,
                              const std::set<std::string>& bool_flags = {});

}  // namespace homets

#endif  // HOMETS_COMMON_FLAGS_H_
