#include "arch_pass.h"

#include <algorithm>

#include "text_pass.h"

#include "common/strings.h"

namespace homets::lint {

void RunArchPass(const std::vector<SourceFile>& files,
                 const IncludeGraph& graph, const LayerGraph* layers,
                 const LintConfig& config,
                 const std::set<std::string>& enabled,
                 std::vector<Violation>* out) {
  if (layers != nullptr) {
    for (const SourceFile& file : files) {
      if (!TextPass::RuleEnabled(config, enabled, "layer-dag", file.rel_path)) {
        continue;
      }
      const std::string from = LayerOf(file.rel_path);
      if (from.empty()) continue;
      // A file in a layer the contract does not declare is itself a
      // violation: the DAG must be total or it enforces nothing.
      if (layers->layers.count(from) == 0) {
        if (!IsSuppressed(file.views, 1, "layer-dag")) {
          out->push_back(
              {file.rel_path, 1, "layer-dag",
               "layer '" + from +
                   "' is not declared in layers.json — every layer must "
                   "appear in the contract"});
        }
        continue;
      }
      for (const Include& inc : graph.IncludesOf(file.rel_path)) {
        if (inc.resolved.empty()) continue;
        const std::string to = LayerOf(inc.resolved);
        if (to.empty() || layers->Allows(from, to)) continue;
        if (layers->Waived(file.rel_path, to)) continue;
        if (IsSuppressed(file.views, inc.line, "layer-dag")) continue;
        out->push_back(
            {file.rel_path, inc.line, "layer-dag",
             "upward include chain " + from + " -> " + to + " ('" +
                 inc.target + "' resolves to " + inc.resolved +
                 ") — layer '" + from + "' may only reach {" +
                 StrJoin(layers->layers.at(from).deps, ", ") +
                 "} per tools/lint/layers.json; invert the dependency or "
                 "add a waiver with a rationale"});
      }
    }
    // A waiver no include uses is stale: it would silently admit the edge
    // again if the file ever regrows it.
    for (const auto& [rel_path, targets] : layers->waivers) {
      const SourceFile* waived = nullptr;
      for (const SourceFile& file : files) {
        if (file.rel_path == rel_path) waived = &file;
      }
      const std::string anchor =
          waived != nullptr ? rel_path : "tools/lint/layers.json";
      if (!TextPass::RuleEnabled(config, enabled, "layer-dag", anchor)) {
        continue;
      }
      if (waived == nullptr) {
        out->push_back({anchor, 1, "layer-dag",
                        "edge_waivers names '" + rel_path +
                            "', which is not in the scanned tree — delete "
                            "the stale waiver"});
        continue;
      }
      const std::string from = LayerOf(rel_path);
      const std::vector<Include>& includes = graph.IncludesOf(rel_path);
      for (const std::string& to : targets) {
        const bool used =
            !layers->Allows(from, to) &&
            std::any_of(includes.begin(), includes.end(),
                        [&](const Include& inc) {
                          return LayerOf(inc.resolved) == to;
                        });
        if (used) continue;
        out->push_back({anchor, 1, "layer-dag",
                        "edge_waivers grants " + from + " -> " + to +
                            " to this file, but none of its includes needs "
                            "it — delete the stale waiver from "
                            "tools/lint/layers.json"});
      }
    }
  }

  // Cycles are reported once each, anchored at the canonical first member's
  // include of the next file on the cycle.
  for (const std::vector<std::string>& cycle : graph.FindCycles()) {
    const std::string& anchor = cycle.front();
    if (!TextPass::RuleEnabled(config, enabled, "include-cycle", anchor)) {
      continue;
    }
    const std::string& next = cycle.size() > 1 ? cycle[1] : cycle[0];
    size_t line = 1;
    const SourceFile* anchor_file = nullptr;
    for (const SourceFile& file : files) {
      if (file.rel_path == anchor) {
        anchor_file = &file;
        break;
      }
    }
    for (const Include& inc : graph.IncludesOf(anchor)) {
      if (inc.resolved == next) {
        line = inc.line;
        break;
      }
    }
    if (anchor_file != nullptr &&
        IsSuppressed(anchor_file->views, line, "include-cycle")) {
      continue;
    }
    std::string chain;
    for (const std::string& member : cycle) chain += member + " -> ";
    chain += anchor;
    out->push_back({anchor, line, "include-cycle",
                    "include cycle " + chain +
                        " — headers must form a DAG; break the loop with a "
                        "forward declaration or by splitting the header"});
  }
}

}  // namespace homets::lint
