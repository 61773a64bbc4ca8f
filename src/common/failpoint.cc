#include "common/failpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "common/strings.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace homets {

namespace {

/// FNV-1a 64-bit — mixes the site name into the per-rule seed so two sites
/// under the same global seed draw independent probability streams.
uint64_t HashSite(std::string_view site) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Uniform double in [0, 1) from one 64-bit draw.
double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Result<FailpointAction> ParseAction(std::string_view word,
                                    std::string_view entry) {
  if (word == "off") return FailpointAction::kNone;
  if (word == "error") return FailpointAction::kError;
  if (word == "corrupt") return FailpointAction::kCorrupt;
  if (word == "truncate") return FailpointAction::kTruncate;
  if (word == "fail") return FailpointAction::kFail;
  return Status::InvalidArgument("failpoints: unknown action '" +
                                 std::string(word) + "' in '" +
                                 std::string(entry) + "'");
}

Result<uint64_t> ParseCount(std::string_view text, std::string_view entry) {
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || value == 0) {
    return Status::InvalidArgument("failpoints: expected positive integer in '" +
                                   std::string(entry) + "'");
  }
  return value;
}

}  // namespace

Failpoints& Failpoints::Global() {
  static Failpoints* const instance = new Failpoints();
  return *instance;
}

Status Failpoints::Configure(std::string_view spec, uint64_t seed) {
  std::map<std::string, Rule, std::less<>> parsed;
  for (const std::string& raw : StrSplit(spec, ';')) {
    const std::string_view entry = StrTrim(raw);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument(
          "failpoints: expected 'site=action' in '" + std::string(entry) +
          "'");
    }
    const std::string site{StrTrim(entry.substr(0, eq))};
    if (std::find(kFailpointSites.begin(), kFailpointSites.end(), site) ==
        kFailpointSites.end()) {
      return Status::InvalidArgument("failpoints: unknown site '" + site +
                                     "' in '" + std::string(entry) + "'");
    }
    std::string_view mode = StrTrim(entry.substr(eq + 1));
    Rule rule;
    // The action word runs up to the first modifier character.
    const size_t mod = mode.find_first_of("*@~");
    const std::string_view action_word =
        StrTrim(mode.substr(0, mod == std::string_view::npos ? mode.size()
                                                             : mod));
    HOMETS_ASSIGN_OR_RETURN(rule.action, ParseAction(action_word, entry));
    std::string_view rest =
        mod == std::string_view::npos ? std::string_view() : mode.substr(mod);
    while (!rest.empty()) {
      const char kind = rest.front();
      rest.remove_prefix(1);
      size_t next = rest.find_first_of("*@~");
      const std::string_view value =
          StrTrim(rest.substr(0, next == std::string_view::npos ? rest.size()
                                                                : next));
      rest = next == std::string_view::npos ? std::string_view()
                                            : rest.substr(next);
      if (kind == '*') {
        HOMETS_ASSIGN_OR_RETURN(rule.max_fires, ParseCount(value, entry));
      } else if (kind == '@') {
        HOMETS_ASSIGN_OR_RETURN(rule.start, ParseCount(value, entry));
      } else {  // '~'
        char* end = nullptr;
        const std::string text(value);
        const double p = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || !(p >= 0.0) || p > 1.0) {
          return Status::InvalidArgument(
              "failpoints: probability must be in [0, 1] in '" +
              std::string(entry) + "'");
        }
        rule.probability = p;
      }
    }
    rule.seed = seed ^ HashSite(site);
    rule.rng = SplitMix64(rule.seed);
    parsed.insert_or_assign(site, rule);
  }
  MutexLock lock(&mu_);
  rules_ = std::move(parsed);
  armed_.store(!rules_.empty(), std::memory_order_release);
  return Status::OK();
}

Status Failpoints::ConfigureFromEnv() {
  const char* spec = std::getenv("HOMETS_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') {
    Reset();
    return Status::OK();
  }
  uint64_t seed = 0;
  if (const char* seed_text = std::getenv("HOMETS_FAILPOINTS_SEED")) {
    const std::string_view sv = seed_text;
    const auto [ptr, ec] =
        std::from_chars(sv.data(), sv.data() + sv.size(), seed);
    if (ec != std::errc() || ptr != sv.data() + sv.size()) {
      return Status::InvalidArgument(
          "HOMETS_FAILPOINTS_SEED: expected an unsigned integer, got '" +
          std::string(sv) + "'");
    }
  }
  return Configure(spec, seed);
}

void Failpoints::Reset() {
  MutexLock lock(&mu_);
  rules_.clear();
  armed_.store(false, std::memory_order_release);
}

FailpointAction Failpoints::Evaluate(std::string_view site) {
  if (!armed()) return FailpointAction::kNone;
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const evaluations =
      registry.GetCounter(obs::kFailpointEvaluations);
  static obs::Counter* const triggers =
      registry.GetCounter(obs::kFailpointTriggers);
  MutexLock lock(&mu_);
  const auto it = rules_.find(site);
  if (it == rules_.end()) return FailpointAction::kNone;
  Rule& rule = it->second;
  ++rule.hits;
  evaluations->Increment();
  if (rule.action == FailpointAction::kNone) return FailpointAction::kNone;
  if (rule.hits < rule.start) return FailpointAction::kNone;
  if (rule.fires >= rule.max_fires) return FailpointAction::kNone;
  if (rule.probability < 1.0 && ToUnit(rule.rng.Next()) >= rule.probability) {
    return FailpointAction::kNone;
  }
  ++rule.fires;
  triggers->Increment();
  // Injected faults are intentionally rare and load-bearing for the run's
  // outcome — a structured record of each fire makes a chaos run's log
  // self-explanatory (and the manifest's failed_stage attributable).
  obs::LogWarn("failpoint", "failpoint fired",
               {obs::LogField::Str("site", std::string(site)),
                obs::LogField::Uint("fire", rule.fires),
                obs::LogField::Uint("hit", rule.hits)});
  return rule.action;
}

FailpointAction Failpoints::EvaluateAt(std::string_view site, uint64_t index,
                                       uint64_t attempt) {
  if (!armed()) return FailpointAction::kNone;
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const evaluations =
      registry.GetCounter(obs::kFailpointEvaluations);
  static obs::Counter* const triggers =
      registry.GetCounter(obs::kFailpointTriggers);
  MutexLock lock(&mu_);
  const auto it = rules_.find(site);
  if (it == rules_.end()) return FailpointAction::kNone;
  Rule& rule = it->second;
  ++rule.hits;
  evaluations->Increment();
  if (rule.action == FailpointAction::kNone) return FailpointAction::kNone;
  // Every predicate below is a pure function of the rule and the caller's
  // (index, attempt), so the decision cannot depend on which thread's hit
  // reached the registry first.
  if (index < rule.start) return FailpointAction::kNone;
  if (attempt > rule.max_fires) return FailpointAction::kNone;
  if (rule.probability < 1.0) {
    SplitMix64 draw(rule.seed ^ (index * 0x9E3779B97F4A7C15ull) ^
                    (attempt * 0xBF58476D1CE4E5B9ull));
    if (ToUnit(draw.Next()) >= rule.probability) {
      return FailpointAction::kNone;
    }
  }
  ++rule.fires;
  triggers->Increment();
  obs::LogWarn("failpoint", "failpoint fired",
               {obs::LogField::Str("site", std::string(site)),
                obs::LogField::Uint("index", index),
                obs::LogField::Uint("attempt", attempt)});
  return rule.action;
}

Status Failpoints::InjectedError(std::string_view site) {
  switch (Evaluate(site)) {
    case FailpointAction::kError:
      return Status::IoError("injected by failpoint '" + std::string(site) +
                             "'");
    case FailpointAction::kFail:
      return Status::ComputeError("injected by failpoint '" +
                                  std::string(site) + "'");
    default:
      return Status::OK();
  }
}

Status Failpoints::InjectedErrorAt(std::string_view site, uint64_t index,
                                   uint64_t attempt) {
  switch (EvaluateAt(site, index, attempt)) {
    case FailpointAction::kError:
      return Status::IoError("injected by failpoint '" + std::string(site) +
                             "'");
    case FailpointAction::kFail:
      return Status::ComputeError("injected by failpoint '" +
                                  std::string(site) + "'");
    default:
      return Status::OK();
  }
}

FailpointStats Failpoints::stats(std::string_view site) const {
  MutexLock lock(&mu_);
  const auto it = rules_.find(site);
  if (it == rules_.end()) return FailpointStats{};
  return FailpointStats{it->second.hits, it->second.fires};
}

}  // namespace homets
