// homets_lint: project-invariant checker for the homets tree.
//
// Enforces the invariants the compiler cannot (see DESIGN.md §7 and §14),
// organized as passes over one shared scan of the tree:
//
//   text pass         — determinism contract (no wall-clock or libc
//                       randomness outside common/random), float-comparison
//                       discipline, the CLI's byte-identical stdout
//                       contract, banned calls, the metric-name catalog
//   architecture pass — the include graph against the declared layer DAG
//                       (tools/lint/layers.json) plus include cycles
//   hygiene pass      — self-include-first, include guards, unused and
//                       transitive includes
//   determinism pass  — iteration over unordered containers
//
// A dropped Status or Result<T> is the compiler's to catch, not a rule
// here: both are [[nodiscard]] and the build adds -Werror=unused-result.
//
// Violations print `<file>:<line>: <rule-id>: <message>` and the process
// exits 1 (0 clean, 2 usage/config error). A site can opt out of one rule
// for one line with the suppression comment
//   // homets-lint: allow(unsafe-call)
// (any rule id) on the offending line or alone on the line above it; ids
// that the registry does not know are themselves flagged (bad-suppression).
//
// Usage:
//   homets_lint [--root DIR] [--rules id,...] [--list-rules]
//               [--format text|dot]
//
// --root defaults to the current directory; the walker visits src/ bench/
// tools/ tests/ and skips build*/ and lint_fixtures/ directories. The
// per-rule path exemptions come from <root>/tools/homets_lint.json (its
// "allow_paths" object maps rule ids to exempt path substrings) and the
// layer contract from <root>/tools/lint/layers.json; without the latter
// the layer-dag rule is skipped. --format dot prints the observed layer
// graph instead of violations.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch_pass.h"
#include "config.h"
#include "determinism_pass.h"
#include "hygiene_pass.h"
#include "include_graph.h"
#include "lint.h"
#include "registry.h"
#include "report.h"
#include "text_pass.h"

#include "common/flags.h"
#include "common/strings.h"

namespace homets::lint {
namespace {

namespace fs = std::filesystem;

bool ShouldSkipDir(const std::string& name) {
  return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
         (!name.empty() && name[0] == '.');
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h";
}

/// Collects .cc/.h files under root/{src,bench,tools,tests}, sorted so the
/// report order is deterministic.
std::vector<fs::path> CollectFiles(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* sub : {"src", "bench", "tools", "tests"}) {
    const fs::path dir = root / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    fs::recursive_directory_iterator it(dir, ec);
    const fs::recursive_directory_iterator end;
    while (it != end) {
      const fs::directory_entry& entry = *it;
      if (entry.is_directory(ec)) {
        if (ShouldSkipDir(entry.path().filename().string())) {
          it.disable_recursion_pending();
        }
      } else if (entry.is_regular_file(ec) && IsSourceFile(entry.path())) {
        files.push_back(entry.path());
      }
      it.increment(ec);
      if (ec) break;
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int Usage(FILE* out) {
  std::fputs(
      "usage: homets_lint [--root DIR] [--rules id,...] [--list-rules]\n"
      "                   [--format text|dot]\n"
      "Scans DIR/{src,bench,tools,tests} for project-invariant violations\n"
      "and prints 'file:line: rule-id: message' per hit; exits 1 when any\n"
      "are found, 2 on usage/config errors. Suppress one line with\n"
      // The literal is split so the scanner never reads this usage text as
      // a suppression naming the placeholder id.
      "'// homets-lint: all" "ow(<rule-id>)'. --format dot prints the\n"
      "observed layer graph.\n",
      out);
  return 2;
}

int Run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (std::find(args.begin(), args.end(), "--help") != args.end()) {
    Usage(stdout);
    return 0;
  }
  // Boolean flag, handled before the strict value-carrying parser.
  const auto list_it = std::find(args.begin(), args.end(), "--list-rules");
  if (list_it != args.end()) {
    for (const std::string& rule : AllRules()) {
      std::fprintf(stdout, "%s\n", rule.c_str());
    }
    return 0;
  }
  const Result<ParsedArgs> parsed =
      ParseFlags(args, {"root", "rules", "format"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "homets_lint: %s\n",
                 parsed.status().message().c_str());
    return Usage(stderr);
  }
  if (!parsed->positional.empty()) {
    std::fprintf(stderr, "homets_lint: unexpected positional argument '%s'\n",
                 parsed->positional.front().c_str());
    return Usage(stderr);
  }

  const fs::path root = parsed->GetString("root", ".");
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "homets_lint: --root %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  const std::string format = parsed->GetString("format", "text");
  if (format != "text" && format != "dot") {
    std::fprintf(stderr, "homets_lint: unknown --format '%s'\n",
                 format.c_str());
    return Usage(stderr);
  }

  std::set<std::string> enabled;
  if (parsed->Has("rules")) {
    for (const std::string& part :
         StrSplit(parsed->GetString("rules"), ',')) {
      const std::string rule{StrTrim(part)};
      if (rule.empty()) continue;
      if (!IsKnownRule(rule)) {
        std::fprintf(stderr, "homets_lint: unknown rule id '%s'\n",
                     rule.c_str());
        return 2;
      }
      enabled.insert(rule);
    }
  }

  LintConfig config;
  const fs::path config_path = root / "tools" / "homets_lint.json";
  if (fs::is_regular_file(config_path, ec)) {
    Result<LintConfig> loaded = LoadConfig(config_path.string());
    if (!loaded.ok()) {
      std::fprintf(stderr, "homets_lint: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    config = std::move(loaded).value();
  }

  LayerGraph layer_graph;
  bool have_layers = false;
  const fs::path layers_path = root / "tools" / "lint" / "layers.json";
  if (fs::is_regular_file(layers_path, ec)) {
    Result<LayerGraph> loaded = LoadLayers(layers_path.string());
    if (!loaded.ok()) {
      std::fprintf(stderr, "homets_lint: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    layer_graph = std::move(loaded).value();
    have_layers = true;
  }

  // Lex every file once; all passes share the views.
  std::vector<SourceFile> files;
  for (const fs::path& path : CollectFiles(root)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "homets_lint: cannot read %s\n",
                   path.string().c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string rel = fs::relative(path, root, ec).generic_string();
    SourceFile file;
    file.rel_path = ec ? path.generic_string() : rel;
    file.text = text.str();
    file.views = BuildViews(file.text);
    files.push_back(std::move(file));
  }
  const IncludeGraph graph = IncludeGraph::Build(files);

  // Text pass first: its violation order (per-file, then the cross-file
  // Finish batch) is the frozen report prefix.
  TextPass text_pass(&config, &enabled);
  for (const SourceFile& file : files) text_pass.ScanFile(file);
  text_pass.Finish();
  std::vector<Violation> violations = text_pass.violations();

  // The graph-based passes append in (file, line, rule) order.
  std::vector<Violation> extra;
  RunArchPass(files, graph, have_layers ? &layer_graph : nullptr, config,
              enabled, &extra);
  RunHygienePass(files, graph, config, enabled, &extra);
  RunDeterminismPass(files, config, enabled, &extra);
  // Driver-level rule: every suppression must name a rule the registry
  // knows, or a typo silently suppresses nothing.
  for (const SourceFile& file : files) {
    if (!TextPass::RuleEnabled(config, enabled, "bad-suppression",
                               file.rel_path)) {
      continue;
    }
    for (const auto& [line, rule] : file.views.suppression_sites) {
      if (IsKnownRule(rule)) continue;
      extra.push_back({file.rel_path, line, "bad-suppression",
                       "suppression names unknown rule id '" + rule +
                           "' — see --list-rules; a typo here suppresses "
                           "nothing"});
    }
  }
  std::stable_sort(extra.begin(), extra.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  violations.insert(violations.end(), extra.begin(), extra.end());

  if (format == "dot") {
    const std::string dot =
        RenderDot(graph, have_layers ? &layer_graph : nullptr);
    std::fwrite(dot.data(), 1, dot.size(), stdout);
    return 0;
  }

  for (const Violation& v : violations) {
    std::fprintf(stdout, "%s:%zu: %s: %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "homets_lint: %zu violation(s) in %zu file(s)\n",
                 violations.size(), files.size());
    return 1;
  }
  std::fprintf(stdout, "OK: %zu files scanned, %zu metric names conform\n",
               files.size(), text_pass.metric_names());
  return 0;
}

}  // namespace
}  // namespace homets::lint

int main(int argc, char** argv) { return homets::lint::Run(argc, argv); }
