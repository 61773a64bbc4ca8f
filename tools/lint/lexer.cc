// Lexer for the lint framework: splits a file into the `code` and `pure`
// views and records suppression comments. See lint.h for the contract.

#include <cctype>
#include <string>

#include "lint.h"

#include "common/strings.h"

namespace homets::lint {
namespace {

/// Parses one `allow(a, b)` list out of `raw` into `rules`; true when the
/// line carries a suppression comment at all.
bool ParseSuppressionLine(const std::string& raw,
                          std::vector<std::string>* rules) {
  static const std::string kTag = "homets-lint:";
  const size_t tag = raw.find(kTag);
  if (tag == std::string::npos) return false;
  const size_t open = raw.find("allow(", tag);
  if (open == std::string::npos) return false;
  const size_t close = raw.find(')', open);
  if (close == std::string::npos) return false;
  const std::string inner = raw.substr(open + 6, close - open - 6);
  for (const std::string& part : StrSplit(inner, ',')) {
    const std::string rule{StrTrim(part)};
    if (!rule.empty()) rules->push_back(rule);
  }
  return true;
}

}  // namespace

bool IsSuppressed(const FileViews& views, size_t line,
                  const std::string& rule) {
  const auto it = views.allowed.find(line);
  return it != views.allowed.end() && it->second.count(rule) > 0;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

size_t FindWord(const std::string& line, const std::string& token,
                size_t from) {
  size_t pos = line.find(token, from);
  while (pos != std::string::npos) {
    if (pos == 0 || !IsWordChar(line[pos - 1])) return pos;
    pos = line.find(token, pos + 1);
  }
  return std::string::npos;
}

FileViews BuildViews(const std::string& text) {
  FileViews views;
  std::string code_line;
  std::string pure_line;
  std::string raw_line;
  bool in_block_comment = false;
  bool in_string = false;
  bool in_char = false;
  bool line_had_code = false;
  size_t line_no = 1;
  // Rules from comment-only suppression lines, waiting for the next line
  // that holds real content (blank lines and stacked suppression comments
  // carry them forward instead of swallowing them).
  std::vector<std::string> pending;

  auto flush_line = [&]() {
    std::vector<std::string> rules;
    const bool has_suppression = ParseSuppressionLine(raw_line, &rules);
    for (const std::string& rule : rules) {
      views.allowed[line_no].insert(rule);
      views.suppression_sites.emplace_back(line_no, rule);
    }
    const bool comment_only = !line_had_code;
    const bool blank =
        raw_line.find_first_not_of(" \t\r") == std::string::npos;
    if (comment_only && has_suppression) {
      // A suppression alone on a line covers a later line; queue it.
      pending.insert(pending.end(), rules.begin(), rules.end());
    } else if (!blank) {
      // First line with real content (code, or an ordinary comment): the
      // pending suppressions attach here and stop propagating.
      for (const std::string& rule : pending) {
        views.allowed[line_no].insert(rule);
      }
      pending.clear();
    }
    views.code.push_back(code_line);
    views.pure.push_back(pure_line);
    code_line.clear();
    pure_line.clear();
    raw_line.clear();
    line_had_code = false;
    ++line_no;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      // Strings and char literals do not survive a newline in this lexer,
      // so the continuation lines of a multi-line raw string lex as code
      // (tests/common/json_test.cc has one, holding JSON no rule matches).
      in_string = in_char = false;
      flush_line();
      continue;
    }
    raw_line += c;
    if (in_block_comment) {
      code_line += ' ';
      pure_line += ' ';
      if (c == '*' && next == '/') {
        code_line += ' ';
        pure_line += ' ';
        raw_line += next;
        ++i;
        in_block_comment = false;
      }
      continue;
    }
    if (in_string || in_char) {
      code_line += c;
      pure_line += ' ';
      if (c == '\\' && next != '\0' && next != '\n') {
        code_line += next;
        pure_line += ' ';
        raw_line += next;
        ++i;
        continue;
      }
      if ((in_string && c == '"') || (in_char && c == '\'')) {
        in_string = in_char = false;
      }
      continue;
    }
    if (c == '/' && next == '/') {
      // Line comment: blank the remainder in both views.
      const size_t eol = text.find('\n', i);
      const size_t end = eol == std::string::npos ? text.size() : eol;
      for (size_t j = i; j < end; ++j) {
        code_line += ' ';
        pure_line += ' ';
        if (j > i) raw_line += text[j];
      }
      i = end - 1;
      continue;
    }
    if (c == '/' && next == '*') {
      in_block_comment = true;
      code_line += ' ';
      pure_line += ' ';
      code_line += ' ';
      pure_line += ' ';
      raw_line += next;
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      code_line += c;
      pure_line += ' ';
      line_had_code = true;
      continue;
    }
    if (c == '\'') {
      // Heuristic: a quote directly after an identifier/digit is a digit
      // separator (1'000'000), not a char literal.
      const char prev =
          raw_line.size() >= 2 ? raw_line[raw_line.size() - 2] : '\0';
      if (std::isalnum(static_cast<unsigned char>(prev))) {
        code_line += c;
        pure_line += c;
        continue;
      }
      in_char = true;
      code_line += c;
      pure_line += ' ';
      line_had_code = true;
      continue;
    }
    code_line += c;
    pure_line += c;
    if (!std::isspace(static_cast<unsigned char>(c))) line_had_code = true;
  }
  flush_line();
  return views;
}

}  // namespace homets::lint
