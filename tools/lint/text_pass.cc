#include "text_pass.h"

#include <cctype>
#include <cstdlib>

#include "common/strings.h"

namespace homets::lint {
namespace {

/// homets.<layer>.<name>, both segments lower_snake_case starting with a
/// letter.
bool MatchesNameScheme(const std::string& name) {
  const std::vector<std::string> parts = StrSplit(name, '.');
  if (parts.size() != 3 || parts[0] != "homets") return false;
  for (size_t p = 1; p < 3; ++p) {
    const std::string& seg = parts[p];
    if (seg.empty() || !std::islower(static_cast<unsigned char>(seg[0]))) {
      return false;
    }
    for (const char c : seg) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_';
      if (!ok) return false;
    }
  }
  return true;
}

}  // namespace

bool TextPass::RuleEnabled(const LintConfig& config,
                           const std::set<std::string>& enabled,
                           const std::string& rule,
                           const std::string& rel_path) {
  if (!enabled.empty() && enabled.count(rule) == 0) return false;
  const auto it = config.allow_paths.find(rule);
  if (it != config.allow_paths.end()) {
    for (const std::string& sub : it->second) {
      if (rel_path.find(sub) != std::string::npos) return false;
    }
  }
  return true;
}

void TextPass::Report(const FileViews& views, const std::string& rel_path,
                      size_t line, const std::string& rule,
                      std::string message) {
  if (IsSuppressed(views, line, rule)) return;
  violations_.push_back({rel_path, line, rule, std::move(message)});
}

void TextPass::CheckRandomness(const FileViews& views,
                               const std::string& rel_path) {
  if (!Enabled("no-raw-random", rel_path)) return;
  // common/random wraps the only sanctioned generators.
  if (rel_path.find("src/common/random") != std::string::npos) return;
  static const std::vector<std::string> kTokens = {
      "rand(", "srand(", "random_device"};
  for (size_t i = 0; i < views.pure.size(); ++i) {
    const std::string& line = views.pure[i];
    for (const std::string& token : kTokens) {
      if (FindWord(line, token) != std::string::npos) {
        Report(views, rel_path, i + 1, "no-raw-random",
               "non-deterministic source '" + token +
                   "' — use homets::Rng (common/random.h); engine results "
                   "must be bit-identical across runs and thread counts");
        break;
      }
    }
    // Wall-clock seeds: time(), time(NULL), time(nullptr), time(0).
    size_t pos = FindWord(line, "time", 0);
    while (pos != std::string::npos) {
      size_t j = pos + 4;
      while (j < line.size() &&
             std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
      if (j < line.size() && line[j] == '(') {
        size_t k = j + 1;
        while (k < line.size() &&
               std::isspace(static_cast<unsigned char>(line[k]))) {
          ++k;
        }
        std::string arg;
        while (k < line.size() && line[k] != ')' &&
               !std::isspace(static_cast<unsigned char>(line[k]))) {
          arg += line[k++];
        }
        if (k < line.size() && (arg.empty() || arg == "NULL" ||
                                arg == "nullptr" || arg == "0")) {
          Report(views, rel_path, i + 1, "no-raw-random",
                 "wall-clock seed 'time(" + arg +
                     ")' — derive seeds from --seed flags or fixed "
                     "constants, never the clock");
        }
      }
      pos = FindWord(line, "time", pos + 4);
    }
  }
}

void TextPass::CheckFloatEquality(const FileViews& views,
                                  const std::string& rel_path) {
  if (!Enabled("float-equality", rel_path)) return;
  // Parses a float literal adjacent to position `pos` in `line`, scanning
  // forward (dir=+1) or backward (dir=-1). Returns the literal text, empty
  // when the adjacent operand is not a float literal.
  const auto literal_at = [](const std::string& line, size_t pos, int dir) {
    auto is_lit_char = [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
             c == 'e' || c == 'E' || c == 'f' || c == 'F';
    };
    std::string lit;
    if (dir > 0) {
      size_t i = pos;
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (i < line.size() && line[i] == '-') lit += line[i++];
      while (i < line.size()) {
        if (is_lit_char(line[i])) {
          lit += line[i++];
        } else if ((line[i] == '+' || line[i] == '-') && !lit.empty() &&
                   (lit.back() == 'e' || lit.back() == 'E')) {
          lit += line[i++];  // exponent sign, e.g. 1e-9
        } else {
          break;
        }
      }
      if (i < line.size() && IsWordChar(line[i])) return std::string();
    } else {
      size_t i = pos;
      while (i > 0 && std::isspace(static_cast<unsigned char>(line[i - 1]))) {
        --i;
      }
      size_t end = i;
      while (i > 0) {
        if (is_lit_char(line[i - 1])) {
          --i;
        } else if ((line[i - 1] == '+' || line[i - 1] == '-') && i >= 2 &&
                   (line[i - 2] == 'e' || line[i - 2] == 'E')) {
          i -= 2;  // exponent sign, e.g. 1e-9
        } else {
          break;
        }
      }
      if (i > 0 && IsWordChar(line[i - 1])) return std::string();
      lit = line.substr(i, end - i);
    }
    // A float literal must contain a '.' or an exponent; bare integers are
    // fine to compare exactly.
    if (lit.find('.') == std::string::npos &&
        lit.find('e') == std::string::npos &&
        lit.find('E') == std::string::npos) {
      return std::string();
    }
    if (lit.empty() || lit == "." || lit == "-") return std::string();
    return lit;
  };
  const auto is_zero = [](const std::string& lit) {
    char* end = nullptr;
    const double v = std::strtod(lit.c_str(), &end);
    return end != lit.c_str() && v == 0.0;  // homets-lint: allow(float-equality)
  };
  for (size_t i = 0; i < views.pure.size(); ++i) {
    const std::string& line = views.pure[i];
    for (size_t pos = 0; (pos = line.find('=', pos)) != std::string::npos;
         ++pos) {
      // Only bare == / != count; <=, >=, =, === etc. do not.
      std::string op;
      size_t lhs_end = 0;
      size_t rhs_begin = 0;
      if (pos + 1 < line.size() && line[pos + 1] == '=' &&
          (pos == 0 || (line[pos - 1] != '=' && line[pos - 1] != '<' &&
                        line[pos - 1] != '>' && line[pos - 1] != '!')) &&
          (pos + 2 >= line.size() || line[pos + 2] != '=')) {
        op = "==";
        lhs_end = pos;
        rhs_begin = pos + 2;
      } else if (pos > 0 && line[pos - 1] == '!' &&
                 (pos + 1 >= line.size() || line[pos + 1] != '=')) {
        op = "!=";
        lhs_end = pos - 1;
        rhs_begin = pos + 1;
      } else {
        continue;
      }
      const std::string rhs = literal_at(line, rhs_begin, +1);
      const std::string lhs = literal_at(line, lhs_end, -1);
      const std::string& lit = rhs.empty() ? lhs : rhs;
      if (lit.empty()) continue;
      // Exact-zero guards (x == 0.0 before dividing) are IEEE-exact and
      // idiomatic; every other literal needs an epsilon.
      if (is_zero(lit)) continue;
      Report(views, rel_path, i + 1, "float-equality",
             "naked floating-point " + op + " against " + lit +
                 " — compare via an epsilon helper (correlation/KS "
                 "thresholds are not exact in binary floating point)");
      pos = rhs_begin;
    }
  }
}

void TextPass::CheckStdout(const FileViews& views,
                           const std::string& rel_path) {
  if (!Enabled("no-stdout-in-lib", rel_path)) return;
  // Library code only: src/. CLIs, benches, tools and tests own their stdout.
  if (rel_path.rfind("src/", 0) != 0) return;
  static const std::vector<std::string> kTokens = {"cout", "printf(", "puts("};
  for (size_t i = 0; i < views.pure.size(); ++i) {
    for (const std::string& token : kTokens) {
      if (FindWord(views.pure[i], token) != std::string::npos) {
        Report(views, rel_path, i + 1, "no-stdout-in-lib",
               "stdout write ('" + token +
                   "') in library code — stdout is a byte-exact CLI "
                   "contract (cli_usage ctest); return data or use stderr");
        break;
      }
    }
  }
}

void TextPass::CheckStderr(const FileViews& views,
                           const std::string& rel_path) {
  if (!Enabled("no-raw-stderr-in-lib", rel_path)) return;
  // Library code only: src/. The structured logger (obs/log) owns the
  // process's single human-readable stderr sink; library narration goes
  // through it so fleet runs stay machine-parseable (allow_paths exempts
  // the sink itself).
  if (rel_path.rfind("src/", 0) != 0) return;
  static const std::vector<std::string> kTokens = {"cerr", "stderr"};
  for (size_t i = 0; i < views.pure.size(); ++i) {
    const std::string& line = views.pure[i];
    for (const std::string& token : kTokens) {
      // Whole-word: `stderr_level_` must not match a search for `stderr`.
      size_t pos = FindWord(line, token);
      while (pos != std::string::npos &&
             pos + token.size() < line.size() &&
             IsWordChar(line[pos + token.size()])) {
        pos = FindWord(line, token, pos + token.size());
      }
      if (pos != std::string::npos) {
        Report(views, rel_path, i + 1, "no-raw-stderr-in-lib",
               "raw stderr write ('" + token +
                   "') in library code — narrate through the structured "
                   "logger (obs/log.h: LogWarn/LogError) so diagnostics "
                   "stay rate-limited and machine-parseable");
        break;
      }
    }
  }
}

void TextPass::CheckCcInclude(const FileViews& views,
                              const std::string& rel_path) {
  if (!Enabled("no-cc-include", rel_path)) return;
  for (size_t i = 0; i < views.code.size(); ++i) {
    const std::string& line = views.code[i];
    const size_t hash = line.find('#');
    if (hash == std::string::npos) continue;
    if (line.find("include", hash) == std::string::npos) continue;
    const size_t open = line.find_first_of("\"<", hash);
    if (open == std::string::npos) continue;
    const size_t close =
        line.find_first_of("\">", open + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(open + 1, close - open - 1);
    if (target.size() > 3 &&
        target.compare(target.size() - 3, 3, ".cc") == 0) {
      Report(views, rel_path, i + 1, "no-cc-include",
             "#include of implementation file '" + target +
                 "' — include the header and let the build system link it");
    }
  }
}

void TextPass::CheckCsvInclude(const FileViews& views,
                               const std::string& rel_path) {
  if (!Enabled("csv-include", rel_path)) return;
  // The CSV reader is the ingest edge: only the io layer itself, the
  // columnar storage layer and tests may talk to it directly — everything
  // else reads traces through io/dataset.h (DatasetReader).
  if (rel_path.rfind("src/io/", 0) == 0 ||
      rel_path.rfind("src/storage/", 0) == 0 ||
      rel_path.rfind("tests/", 0) == 0) {
    return;
  }
  for (size_t i = 0; i < views.code.size(); ++i) {
    const std::string& line = views.code[i];
    const size_t hash = line.find('#');
    if (hash == std::string::npos) continue;
    if (line.find("include", hash) == std::string::npos) continue;
    const size_t open = line.find_first_of("\"<", hash);
    if (open == std::string::npos) continue;
    const size_t close = line.find_first_of("\">", open + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(open + 1, close - open - 1);
    if (target == "io/csv.h") {
      Report(views, rel_path, i + 1, "csv-include",
             "direct #include of 'io/csv.h' outside src/io, src/storage and "
             "tests/ — read traces through io/dataset.h (DatasetReader)");
    }
  }
}

void TextPass::CheckClockDiscipline(const FileViews& views,
                                    const std::string& rel_path) {
  if (!Enabled("clock-discipline", rel_path)) return;
  // Wall-clock reads are an observability concern: timestamps flow through
  // obs (Logger::NowUs, StageTimer, CaptureRusage) and durations through
  // steady_clock. Only the src/ engine layers are in scope — src/obs owns
  // the clock, and src/common is the substrate below it.
  // bench/, tools/ and tests/ time whatever they like.
  if (rel_path.rfind("src/", 0) != 0 ||
      rel_path.rfind("src/obs/", 0) == 0 ||
      rel_path.rfind("src/common/", 0) == 0) {
    return;
  }
  for (size_t i = 0; i < views.pure.size(); ++i) {
    const std::string& line = views.pure[i];
    if (FindWord(line, "system_clock") != std::string::npos) {
      Report(views, rel_path, i + 1, "clock-discipline",
             "std::chrono::system_clock use outside src/obs and src/common "
             "— wall-clock timestamps belong to the obs layer (Logger::NowUs"
             " / StageTimer); use steady_clock for durations");
    }
    if (FindWord(line, "clock_gettime") != std::string::npos) {
      Report(views, rel_path, i + 1, "clock-discipline",
             "raw clock_gettime call outside src/obs and src/common — "
             "wall-clock timestamps belong to the obs layer (Logger::NowUs "
             "/ StageTimer); use steady_clock for durations");
    }
  }
}

void TextPass::CheckUnsafeCalls(const FileViews& views,
                                const std::string& rel_path) {
  if (!Enabled("unsafe-call", rel_path)) return;
  static const std::vector<std::pair<std::string, std::string>> kBanned = {
      {"sprintf(", "use snprintf with an explicit size"},
      {"strtok(", "not reentrant; use homets::StrSplit"},
      {"gets(", "unbounded read; removed from the language"},
  };
  for (size_t i = 0; i < views.pure.size(); ++i) {
    for (const auto& [token, why] : kBanned) {
      if (FindWord(views.pure[i], token) != std::string::npos) {
        Report(views, rel_path, i + 1, "unsafe-call",
               "banned call '" + token + "' — " + why);
      }
    }
  }
}

void TextPass::CheckMetricCatalog(const FileViews& views,
                                  const std::string& rel_path) {
  // Only the canonical catalog header is subject to name-format rules.
  if (rel_path.find("metric_names.h") == std::string::npos) return;
  metric_header_path_ = rel_path;
  metric_header_views_.allowed = views.allowed;
  const bool check_format = Enabled("metric-name-format", rel_path);
  const bool check_dupes = Enabled("metric-name-duplicate", rel_path);
  std::map<std::string, size_t> first_seen;
  for (size_t i = 0; i < views.code.size(); ++i) {
    const std::string& line = views.code[i];
    // Collect "homets.…" string literals from the code view (strings kept).
    size_t open = line.find('"');
    while (open != std::string::npos) {
      const size_t close = line.find('"', open + 1);
      if (close == std::string::npos) break;
      const std::string name = line.substr(open + 1, close - open - 1);
      if (name.rfind("homets.", 0) == 0) {
        ++metric_names_;
        if (check_format && !MatchesNameScheme(name)) {
          Report(views, rel_path, i + 1, "metric-name-format",
                 "'" + name +
                     "' does not match homets.<layer>.<name> with "
                     "lower_snake_case segments");
        }
        if (check_dupes) {
          const auto [it, inserted] = first_seen.emplace(name, i + 1);
          if (!inserted) {
            Report(views, rel_path, i + 1, "metric-name-duplicate",
                   "'" + name + "' already declared at line " +
                       std::to_string(it->second));
          }
        }
      }
      open = line.find('"', close + 1);
    }
    // Collect declared k-constants for the dead-constant rule.
    const size_t kpos = line.find("constexpr std::string_view k");
    if (kpos != std::string::npos) {
      size_t start = line.find(" k", kpos);
      if (start != std::string::npos) {
        ++start;  // at 'k'
        std::string constant;
        while (start < line.size() && IsWordChar(line[start])) {
          constant += line[start++];
        }
        if (constant.size() > 1) {
          metric_constants_.emplace_back(constant, i + 1);
        }
      }
    }
  }
}

void TextPass::CheckMetricRawLiterals(const FileViews& views,
                                      const std::string& rel_path) {
  if (!Enabled("metric-raw-literal", rel_path)) return;
  // Tests are exempt: they exercise private registries with throwaway names.
  if (rel_path.rfind("tests/", 0) == 0) return;
  if (rel_path.find("metric_names.h") != std::string::npos) return;
  // Split so this very file never matches its own rule.
  static const std::string kRegistrar = std::string("GetCounter") + "(";
  for (size_t i = 0; i < views.code.size(); ++i) {
    const std::string& line = views.code[i];
    if (FindWord(line, kRegistrar) == std::string::npos) continue;
    if (line.find(std::string("\"") + "homets.") != std::string::npos) {
      Report(views, rel_path, i + 1, "metric-raw-literal",
             "raw metric-name literal at a registration site — use the "
             "constants in obs/metric_names.h");
    }
  }
}

void TextPass::CollectMetricReferences(const FileViews& views,
                                       const std::string& rel_path) {
  if (rel_path.find("metric_names.h") != std::string::npos) return;
  for (const std::string& line : views.code) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] != 'k') continue;
      if (i > 0 && IsWordChar(line[i - 1])) continue;
      std::string word;
      size_t j = i;
      while (j < line.size() && IsWordChar(line[j])) word += line[j++];
      if (word.size() > 1 &&
          std::isupper(static_cast<unsigned char>(word[1]))) {
        metric_references_.insert(word);
      }
      i = j;
    }
  }
}

void TextPass::Finish() {
  const bool enabled =
      !metric_header_path_.empty() &&
      Enabled("metric-dead-constant", metric_header_path_);
  if (enabled) {
    for (const auto& [constant, line] : metric_constants_) {
      if (metric_references_.count(constant) > 0) continue;
      Report(metric_header_views_, metric_header_path_, line,
             "metric-dead-constant",
             constant +
                 " is declared in metric_names.h but referenced nowhere in "
                 "src/, tools/, bench/ or tests/");
    }
  }
}

void TextPass::ScanFile(const SourceFile& file) {
  const FileViews& views = file.views;
  const std::string& rel_path = file.rel_path;
  CheckRandomness(views, rel_path);
  CheckFloatEquality(views, rel_path);
  CheckStdout(views, rel_path);
  CheckStderr(views, rel_path);
  CheckCcInclude(views, rel_path);
  CheckCsvInclude(views, rel_path);
  CheckClockDiscipline(views, rel_path);
  CheckUnsafeCalls(views, rel_path);
  CheckMetricCatalog(views, rel_path);
  CheckMetricRawLiterals(views, rel_path);
  CollectMetricReferences(views, rel_path);
}

}  // namespace homets::lint
