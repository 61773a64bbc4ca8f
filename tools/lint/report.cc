#include "report.h"

#include <map>
#include <set>

namespace homets::lint {

std::string RenderDot(const IncludeGraph& graph, const LayerGraph* layers) {
  std::set<std::string> nodes;
  // (from, to) -> true when at least one contributing file edge is neither
  // allowed nor waived.
  std::map<std::pair<std::string, std::string>, bool> edges;
  std::map<std::pair<std::string, std::string>, bool> only_waived;
  if (layers != nullptr) {
    for (const auto& [name, spec] : layers->layers) {
      (void)spec;
      nodes.insert(name);
    }
  }
  for (const auto& [file, incs] : graph.files()) {
    const std::string from = LayerOf(file);
    if (from.empty()) continue;
    nodes.insert(from);
    for (const Include& inc : incs) {
      if (inc.resolved.empty()) continue;
      const std::string to = LayerOf(inc.resolved);
      if (to.empty() || to == from) continue;
      nodes.insert(to);
      const bool allowed = layers == nullptr || layers->Allows(from, to);
      const bool waived =
          !allowed && layers != nullptr && layers->Waived(file, to);
      const auto key = std::make_pair(from, to);
      const auto it = edges.find(key);
      if (it == edges.end()) {
        edges[key] = !allowed && !waived;
        only_waived[key] = waived;
      } else {
        it->second = it->second || (!allowed && !waived);
        only_waived[key] = only_waived[key] && (allowed || waived);
      }
    }
  }
  std::string out = "digraph homets_layers {\n  rankdir=BT;\n";
  for (const std::string& node : nodes) {
    out += "  \"" + node + "\";\n";
  }
  for (const auto& [key, violating] : edges) {
    out += "  \"" + key.first + "\" -> \"" + key.second + "\"";
    if (violating) {
      out += " [color=red]";
    } else if (only_waived[key]) {
      out += " [style=dashed]";
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace homets::lint
