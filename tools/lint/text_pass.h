// The original per-file lexical rules (PR 4, extended through PR 8), moved
// out of the single-file homets_lint.cc unchanged: diagnostics, messages and
// per-rule scoping are frozen — scripts and fixtures assert on them.
//
// Rules: no-raw-random, float-equality, no-stdout-in-lib,
// no-raw-stderr-in-lib, no-cc-include, csv-include, unsafe-call, the four
// metric-catalog rules and clock-discipline. A dropped Status or Result is
// not a lint rule: both types are [[nodiscard]] and the build compiles with
// -Werror=unused-result.

#ifndef HOMETS_TOOLS_LINT_TEXT_PASS_H_
#define HOMETS_TOOLS_LINT_TEXT_PASS_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config.h"
#include "lint.h"

namespace homets::lint {

class TextPass {
 public:
  TextPass(const LintConfig* config, const std::set<std::string>* enabled)
      : config_(config), enabled_(enabled) {}

  void ScanFile(const SourceFile& file);
  /// Cross-file rule (metric-dead-constant); call after every ScanFile.
  void Finish();

  const std::vector<Violation>& violations() const { return violations_; }
  size_t metric_names() const { return metric_names_; }

  /// Shared with the other passes via the driver: is `rule` active for this
  /// path under --rules and the allow_paths config?
  static bool RuleEnabled(const LintConfig& config,
                          const std::set<std::string>& enabled,
                          const std::string& rule,
                          const std::string& rel_path);

 private:
  bool Enabled(const std::string& rule, const std::string& rel_path) const {
    return RuleEnabled(*config_, *enabled_, rule, rel_path);
  }

  void Report(const FileViews& views, const std::string& rel_path, size_t line,
              const std::string& rule, std::string message);

  void CheckRandomness(const FileViews& views, const std::string& rel_path);
  void CheckFloatEquality(const FileViews& views, const std::string& rel_path);
  void CheckStdout(const FileViews& views, const std::string& rel_path);
  void CheckStderr(const FileViews& views, const std::string& rel_path);
  void CheckCcInclude(const FileViews& views, const std::string& rel_path);
  void CheckCsvInclude(const FileViews& views, const std::string& rel_path);
  void CheckClockDiscipline(const FileViews& views,
                            const std::string& rel_path);
  void CheckUnsafeCalls(const FileViews& views, const std::string& rel_path);
  void CheckMetricCatalog(const FileViews& views, const std::string& rel_path);
  void CheckMetricRawLiterals(const FileViews& views,
                              const std::string& rel_path);
  void CollectMetricReferences(const FileViews& views,
                               const std::string& rel_path);

  const LintConfig* config_;
  const std::set<std::string>* enabled_;
  std::vector<Violation> violations_;
  size_t metric_names_ = 0;

  /// metric-dead-constant state: k-constants declared in metric_names.h and
  /// the set referenced anywhere else, resolved in Finish().
  std::vector<std::pair<std::string, size_t>> metric_constants_;
  std::set<std::string> metric_references_;
  std::string metric_header_path_;
  /// The views of metric_names.h, kept so Finish() can honor suppressions.
  FileViews metric_header_views_;
};

}  // namespace homets::lint

#endif  // HOMETS_TOOLS_LINT_TEXT_PASS_H_
