// Rule registry: the single source of truth for every rule id the framework
// knows, in reporting order. Passes consult it only through the driver;
// adding a rule means adding it here and implementing it in exactly one
// pass, and `--rules`/config validation picks it up automatically.

#ifndef HOMETS_TOOLS_LINT_REGISTRY_H_
#define HOMETS_TOOLS_LINT_REGISTRY_H_

#include <string>
#include <vector>

namespace homets::lint {

/// Every rule id, in `--list-rules` order: the 12 text-pass rules first
/// (their ids and relative order are frozen — scripts depend on them), then
/// the architecture/hygiene/determinism rules added with the multi-pass
/// framework.
const std::vector<std::string>& AllRules();

bool IsKnownRule(const std::string& rule);

}  // namespace homets::lint

#endif  // HOMETS_TOOLS_LINT_REGISTRY_H_
