// Output rendering for the lint driver beyond the one-line-per-violation
// text the driver prints itself: a Graphviz view of the observed layer
// graph (--format dot).

#ifndef HOMETS_TOOLS_LINT_REPORT_H_
#define HOMETS_TOOLS_LINT_REPORT_H_

#include <string>

#include "config.h"
#include "include_graph.h"

namespace homets::lint {

/// Graphviz digraph of the layer-level include graph: one node per layer
/// (declared or observed), one edge per observed cross-layer include.
/// Edges the contract forbids are red; edges that survive only through
/// file-level waivers are dashed. `layers` may be null (no layers.json):
/// every edge renders plain. Deterministic: nodes and edges are sorted.
std::string RenderDot(const IncludeGraph& graph, const LayerGraph* layers);

}  // namespace homets::lint

#endif  // HOMETS_TOOLS_LINT_REPORT_H_
