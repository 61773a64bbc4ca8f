// Shared setup for the figure-reproduction benches: the default synthetic
// fleet (the stand-in for the paper's 196-gateway dataset) and common
// eligibility/formatting helpers.
#ifndef HOMETS_BENCH_BENCH_UTIL_H_
#define HOMETS_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/background.h"
#include "core/motif.h"
#include "simgen/fleet.h"
#include "ts/time_series.h"

namespace homets::bench {

/// Shrinks a fleet config for the `bench-smoke` ctest label: the
/// HOMETS_SMOKE_GATEWAYS / HOMETS_SMOKE_WEEKS environment variables clamp
/// (never grow) the requested fleet so every bench binary executes in
/// seconds. Unset variables leave the config untouched, so interactive runs
/// keep the paper-scale workloads.
inline void ApplySmokeClamps(simgen::SimConfig* config) {
  const auto clamp = [](const char* env, int* field) {
    const char* raw = std::getenv(env);
    if (raw == nullptr) return;
    const int value = std::atoi(raw);
    if (value > 0) *field = std::min(*field, value);
  };
  clamp("HOMETS_SMOKE_GATEWAYS", &config->n_gateways);
  clamp("HOMETS_SMOKE_WEEKS", &config->weeks);
  config->surveyed_gateways =
      std::min(config->surveyed_gateways, config->n_gateways);
}

/// The paper's deployment: 196 gateways, six analysis weeks starting Monday
/// 2014-03-17 (our epoch minute 0).
inline simgen::SimConfig PaperConfig() {
  simgen::SimConfig config;
  config.n_gateways = 196;
  config.weeks = 6;
  config.seed = 20140317;
  ApplySmokeClamps(&config);
  return config;
}

/// A reduced fleet for the quick exploratory benches (Figures 1–3 analyze a
/// handful of representative gateways).
inline simgen::SimConfig SmallConfig(int gateways, int weeks) {
  simgen::SimConfig config = PaperConfig();
  config.n_gateways = gateways;
  config.weeks = weeks;
  ApplySmokeClamps(&config);
  return config;
}

/// Hardware concurrency for bench reporting: hardware_concurrency() with a
/// sysconf fallback for libstdc++/container combinations where it reports 0,
/// and 1 only as the last resort.
inline int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) return static_cast<int>(hw);
#ifdef _SC_NPROCESSORS_ONLN
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0) return static_cast<int>(online);
#endif
  return 1;
}

/// Lazily generates and caches gateway traces.
class FleetCache {
 public:
  explicit FleetCache(const simgen::SimConfig& config) : generator_(config) {}

  const simgen::GatewayTrace& Get(int id) {
    auto it = cache_.find(id);
    if (it == cache_.end()) {
      it = cache_.emplace(id, generator_.Generate(id)).first;
    }
    return it->second;
  }

  void Evict(int id) { cache_.erase(id); }
  void Clear() { cache_.clear(); }

  const simgen::SimConfig& config() const { return generator_.config(); }
  const simgen::FleetGenerator& generator() const { return generator_; }

 private:
  simgen::FleetGenerator generator_;
  std::map<int, simgen::GatewayTrace> cache_;
};

/// Caps an analysis horizon at what the fleet actually generated, so a
/// bench asking for its usual 28 days / 6 weeks still produces non-empty
/// window sets when ApplySmokeClamps shrank the fleet underneath it. A
/// no-op whenever the requested horizon fits the configured span.
inline int ClampWeeks(const simgen::SimConfig& config, int weeks) {
  return std::min(weeks, config.weeks);
}
inline int ClampDays(const simgen::SimConfig& config, int days) {
  return std::min(days, config.weeks * 7);
}

/// Ids of gateways with at least one observation in every one of `weeks`
/// weekly windows (the paper's weekly eligibility filter).
inline std::vector<int> WeeklyEligible(const simgen::FleetGenerator& gen,
                                       int weeks) {
  weeks = ClampWeeks(gen.config(), weeks);
  std::vector<int> ids;
  for (int id = 0; id < gen.config().n_gateways; ++id) {
    if (gen.Generate(id).HasObservationEveryWeek(0, weeks)) ids.push_back(id);
  }
  return ids;
}

/// Ids of gateways with at least one observation every day for `days` days.
inline std::vector<int> DailyEligible(const simgen::FleetGenerator& gen,
                                      int days) {
  days = ClampDays(gen.config(), days);
  std::vector<int> ids;
  for (int id = 0; id < gen.config().n_gateways; ++id) {
    if (gen.Generate(id).HasObservationEveryDay(0, days)) ids.push_back(id);
  }
  return ids;
}

/// Windows + provenance for motif mining.
struct WindowSet {
  std::vector<ts::TimeSeries> windows;
  std::vector<core::WindowProvenance> provenance;
  std::vector<int> gateways;  ///< eligible gateway ids
};

/// Weekly motif input (Section 7.2.1): background-removed aggregates at 8 h
/// bins anchored at 2am, cut into weekly windows over `weeks` weeks.
inline WindowSet WeeklyMotifWindows(FleetCache* fleet, int weeks) {
  weeks = ClampWeeks(fleet->config(), weeks);
  WindowSet set;
  for (int id = 0; id < fleet->config().n_gateways; ++id) {
    const auto& gw = fleet->Get(id);
    if (!gw.HasObservationEveryWeek(0, weeks)) {
      fleet->Evict(id);
      continue;
    }
    set.gateways.push_back(id);
    auto active = core::ActiveAggregate(gw);
    auto sliced = active.Slice(0, weeks * ts::kMinutesPerWeek);
    if (sliced.ok()) active = std::move(sliced).value();
    for (auto& window :
         ts::AggregateWindows(active, 480, ts::kMinutesPerWeek, 120)) {
      set.provenance.push_back({id, window.start_minute()});
      set.windows.push_back(std::move(window));
    }
    fleet->Evict(id);
  }
  return set;
}

/// Daily motif input (Section 7.2.2): 3 h bins anchored at midnight, cut
/// into daily windows over `days` days.
inline WindowSet DailyMotifWindows(FleetCache* fleet, int days) {
  days = ClampDays(fleet->config(), days);
  WindowSet set;
  for (int id = 0; id < fleet->config().n_gateways; ++id) {
    const auto& gw = fleet->Get(id);
    if (!gw.HasObservationEveryDay(0, days)) {
      fleet->Evict(id);
      continue;
    }
    set.gateways.push_back(id);
    auto active = core::ActiveAggregate(gw);
    auto sliced = active.Slice(0, days * ts::kMinutesPerDay);
    if (sliced.ok()) active = std::move(sliced).value();
    for (auto& window :
         ts::AggregateWindows(active, 180, ts::kMinutesPerDay, 0)) {
      set.provenance.push_back({id, window.start_minute()});
      set.windows.push_back(std::move(window));
    }
    fleet->Evict(id);
  }
  return set;
}

inline std::string Fmt(double v, int decimals = 3) {
  return StrFormat("%.*f", decimals, v);
}

inline std::string FmtInt(size_t v) {
  return StrFormat("%zu", v);
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Minimal JSON object writer for the machine-readable bench artifacts
/// (BENCH_*.json). Keys print in insertion order. Nested objects and arrays
/// are composed textually: Inline() a child writer into SetRaw()/Array().
class JsonWriter {
 public:
  JsonWriter& Set(const std::string& key, const std::string& value) {
    return SetRaw(key, StrFormat("\"%s\"", JsonEscape(value).c_str()));
  }
  JsonWriter& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonWriter& Set(const std::string& key, double value) {
    return SetRaw(key, StrFormat("%.9g", value));
  }
  JsonWriter& Set(const std::string& key, int value) {
    return SetRaw(key, StrFormat("%d", value));
  }
  JsonWriter& Set(const std::string& key, size_t value) {
    return SetRaw(key, StrFormat("%zu", value));
  }
  JsonWriter& Set(const std::string& key, bool value) {
    return SetRaw(key, value ? "true" : "false");
  }
  JsonWriter& SetRaw(const std::string& key, std::string json) {
    entries_.emplace_back(key, std::move(json));
    return *this;
  }

  static std::string Array(const std::vector<std::string>& items) {
    return StrFormat("[%s]", StrJoin(items, ", ").c_str());
  }

  /// Compact single-line object, for nesting.
  std::string Inline() const {
    std::vector<std::string> parts;
    parts.reserve(entries_.size());
    for (const auto& [key, value] : entries_) {
      parts.push_back(
          StrFormat("\"%s\": %s", JsonEscape(key).c_str(), value.c_str()));
    }
    return StrFormat("{%s}", StrJoin(parts, ", ").c_str());
  }

  /// Top-level document: one key per line.
  std::string Dump() const {
    std::string out = "{\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += StrFormat("  \"%s\": %s%s\n", JsonEscape(entries_[i].first).c_str(),
                       entries_[i].second.c_str(),
                       i + 1 < entries_.size() ? "," : "");
    }
    out += "}\n";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace homets::bench

#endif  // HOMETS_BENCH_BENCH_UTIL_H_
