// Architecture pass: checks the observed include graph against the declared
// layer DAG (rule layer-dag, which also flags edge_waivers entries that no
// include uses or whose file is not in the tree) and rejects include cycles
// (rule include-cycle). The layer contract lives in tools/lint/layers.json; when
// no layer graph is supplied (e.g. fixture trees that predate it) the
// layer-dag rule is skipped and only cycle detection runs.

#ifndef HOMETS_TOOLS_LINT_ARCH_PASS_H_
#define HOMETS_TOOLS_LINT_ARCH_PASS_H_

#include <set>
#include <string>
#include <vector>

#include "config.h"
#include "include_graph.h"
#include "lint.h"

namespace homets::lint {

/// Appends layer-dag and include-cycle violations for the scanned set.
/// `layers` may be null (no layers.json): only cycles are checked then.
void RunArchPass(const std::vector<SourceFile>& files,
                 const IncludeGraph& graph, const LayerGraph* layers,
                 const LintConfig& config,
                 const std::set<std::string>& enabled,
                 std::vector<Violation>* out);

}  // namespace homets::lint

#endif  // HOMETS_TOOLS_LINT_ARCH_PASS_H_
