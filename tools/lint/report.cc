#include "report.h"

#include <map>
#include <set>

#include "obs/json_encoder.h"

namespace homets::lint {

std::string RenderText(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    out += v.file + ":" + std::to_string(v.line) + ": " + v.rule + ": " +
           v.message + "\n";
  }
  return out;
}

std::string RenderJson(const std::vector<Violation>& violations,
                       size_t files_scanned, size_t metric_names) {
  obs::JsonEncoder out;
  out.BeginObject().Member("schema_version", 1).Key("violations").BeginArray();
  for (const Violation& v : violations) {
    out.BeginObject()
        .Member("file", v.file)
        .Member("line", v.line)
        .Member("rule", v.rule)
        .Member("message", v.message)
        .EndObject();
  }
  out.EndArray()
      .Member("files_scanned", files_scanned)
      .Member("metric_names", metric_names)
      .EndObject();
  return out.str();
}

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
