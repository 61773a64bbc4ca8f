#include "registry.h"

#include <algorithm>

namespace homets::lint {

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> rules = {
      // Text pass (ids frozen).
      "no-raw-random",    "float-equality",       "no-stdout-in-lib",
      "no-raw-stderr-in-lib",
      "no-cc-include",    "csv-include",          "unsafe-call",
      "metric-name-format",    "metric-name-duplicate",
      "metric-raw-literal",    "metric-dead-constant",
      "clock-discipline",
      // Hygiene pass.
      "self-include-first",    "include-guard",
      "unused-include",        "transitive-include",
      // Architecture pass.
      "layer-dag",             "include-cycle",
      // Determinism pass.
      "unordered-iteration",
      // Driver-level: a suppression comment naming an id the registry does
      // not know (a typo there would otherwise pass vacuously).
      "bad-suppression",
  };
  return rules;
}

bool IsKnownRule(const std::string& rule) {
  const auto& rules = AllRules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

}  // namespace homets::lint
