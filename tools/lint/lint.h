// Shared vocabulary of the homets_lint multi-pass framework.
//
// The linter is organized as passes over a set of `SourceFile`s collected
// once by the driver (tools/lint/main.cc):
//
//   text pass         (text_pass.h)    — the original per-file lexical rules
//   architecture pass (arch_pass.h)    — include graph vs the declared layer
//                                        DAG (tools/lint/layers.json), cycles
//   hygiene pass      (hygiene_pass.h) — self-include-first, include guards,
//                                        unused and transitive includes
//   determinism pass  (determinism_pass.h) — unordered-container iteration
//
// Every pass appends to one shared violation list; the driver prints it
// one line per violation, or renders the layer graph instead (report.h).
// Scanning stays lexical, not semantic: each file is split into a `code`
// view (comments blanked) and a `pure` view (comments and string/char
// literals blanked), and each rule matches the view that cannot be fooled
// by commented-out code or string contents.

#ifndef HOMETS_TOOLS_LINT_LINT_H_
#define HOMETS_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace homets::lint {

struct Violation {
  std::string file;  ///< path relative to --root
  size_t line = 0;   ///< 1-based
  std::string rule;
  std::string message;
};

/// One scanned file: the two blanked views plus per-line suppression sets.
/// Blanking replaces characters with spaces so columns and line numbers stay
/// aligned.
struct FileViews {
  std::vector<std::string> code;  ///< comments blanked, strings kept
  std::vector<std::string> pure;  ///< comments and string/char literals blanked
  /// line (1-based) -> rule ids allowed on that line
  std::map<size_t, std::set<std::string>> allowed;
  /// every (line, rule-id) pair parsed from a suppression comment, exactly
  /// where it was written — the driver validates the ids against the
  /// registry (rule `bad-suppression`).
  std::vector<std::pair<size_t, std::string>> suppression_sites;
};

/// A file the driver collected for this run, lexed once and shared by every
/// pass.
struct SourceFile {
  std::string rel_path;  ///< '/'-separated, relative to --root
  std::string text;      ///< raw bytes
  FileViews views;
};

/// True when `rule` is suppressed on `line` of `views` by an allow() comment.
bool IsSuppressed(const FileViews& views, size_t line, const std::string& rule);

// --------------------------------------------------------------------------
// Lexer (lexer.cc)
// --------------------------------------------------------------------------

/// Lexes `text` into the two views and collects suppressions. Handles //,
/// /*…*/, "…", '…' and the common escape sequences; raw string literals are
/// treated as plain strings, so the continuation lines of a multi-line one
/// lex as code.
///
/// Suppression placement: an allow(rule-id) comment with the homets-lint
/// tag on a code line covers that line; alone on a line it covers the next
/// line that holds anything other than blanks or further suppression
/// comments (so a blank separator or a stacked suppression does not defeat
/// it).
FileViews BuildViews(const std::string& text);

bool IsWordChar(char c);

/// Finds `token` in `line` starting at `from`, requiring that the character
/// before the match is not an identifier character (so `snprintf` never
/// matches a search for `printf`). `::` and `.` prefixes count as
/// non-identifier, so qualified calls match.
size_t FindWord(const std::string& line, const std::string& token,
                size_t from = 0);

}  // namespace homets::lint

#endif  // HOMETS_TOOLS_LINT_LINT_H_
