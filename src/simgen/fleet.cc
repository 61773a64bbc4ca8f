#include "simgen/fleet.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "simgen/behavior.h"

namespace homets::simgen {

namespace {

constexpr double kMaxPerMinuteBytes = 3.0e7;  // matches Figure 1's axis

// A resident drives sessions on its devices through a behavior profile.
struct Resident {
  BehaviorProfile profile{ProfileKind::kEvening};
  double intensity = 0.5;               ///< peak sessions/hour
  int hour_shift = 0;                   ///< personal offset of the template
  std::vector<double> week_modulation;  ///< per-week activity scaling
  std::vector<double> day_modulation;   ///< per-day activity scaling

  double WeightAt(int64_t minute) const {
    return profile.WeightAt(minute - hour_shift * ts::kMinutesPerHour);
  }
};

// Static description of a device prior to trace synthesis.
struct DevicePlan {
  DeviceType type = DeviceType::kPortable;
  int resident = -1;          ///< driving resident index; −1 = none
  double session_share = 1.0; ///< fraction of the resident's sessions
  double background_base = 150.0;
  /// Spread of per-session rates. Habitual users (regular homes) stream the
  /// same services at consistent bitrates; without this the heavy-tailed
  /// volumes dominate window sums and no home can be strongly stationary.
  double rate_sigma = 1.3;
  /// Spread of session durations; habitual users watch/play for consistent
  /// stretches.
  double duration_sigma = 0.8;
  bool is_guest = false;
  int64_t guest_begin = 0;    ///< guest visit window (minutes)
  int64_t guest_end = 0;
};

Resident MakeResident(Rng* rng, bool regular_home, const SimConfig& config,
                      int weeks_horizon_days) {
  Resident r;
  const size_t kind = rng->Categorical({0.30, 0.20, 0.15, 0.15, 0.10, 0.10});
  r.profile = BehaviorProfile(static_cast<ProfileKind>(kind));
  r.intensity = rng->LogNormal(std::log(0.25), 0.35);
  // Regular homes are not only less modulated but also more intensive: the
  // law of large numbers then makes their window sums repeat week to week.
  if (regular_home) r.intensity *= 3.5;
  // Residents of the same home do not share one clock: stagger each
  // resident's template by up to ±2 hours so their devices decorrelate.
  r.hour_shift = static_cast<int>(rng->UniformInt(5)) - 2;
  const double week_sigma = regular_home ? 0.05 : 0.55;
  const double day_sigma = regular_home ? 0.07 : 0.60;
  // Humans are bursty: outside the regular homes, a resident skips whole
  // days of online activity (travel, busy days) — the inhomogeneity the
  // paper stresses in Sections 2 and 4.
  const double skip_day_prob = regular_home ? 0.02 : 0.22;
  r.week_modulation.resize(static_cast<size_t>(config.weeks));
  for (auto& m : r.week_modulation) m = rng->LogNormal(0.0, week_sigma);
  r.day_modulation.resize(static_cast<size_t>(weeks_horizon_days));
  for (auto& m : r.day_modulation) {
    m = rng->Bernoulli(skip_day_prob) ? 0.0 : rng->LogNormal(0.0, day_sigma);
  }
  return r;
}

double BackgroundBase(Rng* rng, DeviceType type) {
  switch (type) {
    case DeviceType::kPortable:
      return rng->LogNormal(std::log(150.0), 0.7);
    case DeviceType::kFixed: {
      double base = rng->LogNormal(std::log(2500.0), 0.8);
      // A small "chatty" tail of fixed devices (many background apps) whose
      // τ lands above 40 kB/min, as in Figure 4.
      if (rng->Bernoulli(0.04)) base *= 8.0;
      return base;
    }
    case DeviceType::kNetworkEquipment:
      return rng->LogNormal(std::log(800.0), 0.6);
    case DeviceType::kGameConsole:
      return rng->LogNormal(std::log(200.0), 0.8);
    case DeviceType::kUnlabeled:
      break;
  }
  return 150.0;
}

DeviceType CorruptLabel(Rng* rng, DeviceType true_type, double unlabeled_prob) {
  return rng->Bernoulli(unlabeled_prob) ? DeviceType::kUnlabeled : true_type;
}

// Fraction of connected *hours* in which the device's radio stays mostly
// silent. Background chatter comes in hour-scale bouts (mail sync, app
// refresh, cloud backup) rather than as a continuous hum; battery-powered
// gear sleeps aggressively, wired gear chats more. Beyond realism this
// matters statistically: independent per-device bouts decorrelate each
// device's idle traffic from the gateway aggregate, which keeps
// Definition 4 from crowning every always-on device dominant.
double RadioQuietHourProbability(DeviceType type) {
  switch (type) {
    case DeviceType::kPortable:
      return 0.55;
    case DeviceType::kGameConsole:
      return 0.75;
    case DeviceType::kFixed:
      return 0.25;
    case DeviceType::kNetworkEquipment:
      return 0.10;
    case DeviceType::kUnlabeled:
      break;
  }
  return 0.5;
}

}  // namespace

Status ValidateSimConfig(const SimConfig& config) {
  if (config.n_gateways <= 0) {
    return Status::InvalidArgument("SimConfig: n_gateways must be positive");
  }
  if (config.weeks <= 0) {
    return Status::InvalidArgument("SimConfig: weeks must be positive");
  }
  const auto is_prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!is_prob(config.long_outage_prob) ||
      !is_prob(config.unreliable_daily_prob) ||
      !is_prob(config.unlabeled_prob) || !is_prob(config.regular_home_prob)) {
    return Status::InvalidArgument("SimConfig: probabilities must be in [0, 1]");
  }
  if (config.surveyed_gateways < 0 ||
      config.surveyed_gateways > config.n_gateways) {
    return Status::InvalidArgument(
        "SimConfig: surveyed_gateways must be within [0, n_gateways]");
  }
  return Status::OK();
}

FleetGenerator::FleetGenerator(SimConfig config)
    : config_(config), master_(config.seed) {}

GatewayTrace FleetGenerator::Generate(int gateway_id) const {
  Rng rng = master_.Fork(static_cast<uint64_t>(gateway_id) + 1);
  const int64_t horizon = config_.HorizonMinutes();
  const int n_days = config_.weeks * ts::kDaysPerWeek;

  GatewayTrace gw;
  gw.id = gateway_id;

  // --- Household composition --------------------------------------------
  const int n_residents =
      1 + static_cast<int>(rng.Categorical({0.35, 0.40, 0.15, 0.10}));
  if (gateway_id < config_.surveyed_gateways) {
    gw.surveyed_residents = n_residents;
  }
  const bool regular_home = rng.Bernoulli(config_.regular_home_prob);
  gw.regular_home = regular_home;

  std::vector<Resident> residents;
  residents.reserve(static_cast<size_t>(n_residents));
  for (int r = 0; r < n_residents; ++r) {
    residents.push_back(MakeResident(&rng, regular_home, config_, n_days));
  }
  // Resident 0 is the household's heaviest user; their main device becomes
  // the natural dominant device of the gateway. Other residents are lighter
  // and less regular, so their devices rarely co-dominate.
  residents[0].intensity *= 2.0;
  for (size_t r = 1; r < residents.size(); ++r) {
    residents[r].intensity *= 0.55;
    if (!regular_home) {
      for (auto& m : residents[r].day_modulation) {
        m *= rng.LogNormal(0.0, 0.35);
      }
    }
  }

  // --- Gateway reporting availability -------------------------------------
  std::vector<bool> reported(static_cast<size_t>(horizon), true);
  if (rng.Bernoulli(config_.long_outage_prob)) {
    const int outage_weeks = 1 + static_cast<int>(rng.UniformInt(2));
    const int start_week = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(config_.weeks)));
    const int64_t begin = static_cast<int64_t>(start_week) * ts::kMinutesPerWeek;
    const int64_t end =
        std::min(horizon, begin + outage_weeks * ts::kMinutesPerWeek);
    for (int64_t m = begin; m < end; ++m) reported[static_cast<size_t>(m)] = false;
  }
  if (rng.Bernoulli(config_.unreliable_daily_prob)) {
    const int missing_days = 1 + static_cast<int>(rng.UniformInt(4));
    for (int k = 0; k < missing_days; ++k) {
      const int day = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(n_days)));
      const int64_t begin = static_cast<int64_t>(day) * ts::kMinutesPerDay;
      const int64_t end = std::min(horizon, begin + ts::kMinutesPerDay);
      for (int64_t m = begin; m < end; ++m) {
        reported[static_cast<size_t>(m)] = false;
      }
    }
  }

  // --- Device plans --------------------------------------------------------
  std::vector<DevicePlan> plans;
  for (int r = 0; r < n_residents; ++r) {
    DevicePlan primary;
    primary.type = DeviceType::kPortable;
    primary.resident = r;
    primary.session_share = 1.0;
    plans.push_back(primary);
    if (rng.Bernoulli(0.6)) {
      DevicePlan secondary;
      secondary.type =
          rng.Bernoulli(0.7) ? DeviceType::kPortable : DeviceType::kFixed;
      secondary.resident = r;
      secondary.session_share = 0.35;
      plans.back().session_share = 0.65;  // split the resident's sessions
      plans.push_back(secondary);
    }
  }
  // Shared household gear scales with household size: a single person's
  // "shared" computer is just their own second device, while families
  // almost always have one.
  if (rng.Bernoulli(n_residents == 1 ? 0.45 : 0.85)) {
    // Shared household computer/TV, driven by an extra all-day/workday
    // pseudo-resident.
    DevicePlan shared;
    shared.type = DeviceType::kFixed;
    shared.resident = n_residents;  // pseudo-resident appended below
    shared.session_share = 1.0;
    plans.push_back(shared);
    Resident pseudo = MakeResident(&rng, regular_home, config_, n_days);
    pseudo.profile = BehaviorProfile(rng.Bernoulli(0.6) ? ProfileKind::kAllDay
                                                        : ProfileKind::kWorkday);
    pseudo.intensity = rng.LogNormal(std::log(0.35), 0.3);
    residents.push_back(pseudo);
  }
  if (rng.Bernoulli(0.25)) {
    DevicePlan net;
    net.type = DeviceType::kNetworkEquipment;
    plans.push_back(net);
  }
  if (rng.Bernoulli(0.10)) {
    DevicePlan console;
    console.type = DeviceType::kGameConsole;
    console.resident = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(n_residents)));
    console.session_share = 0.25;
    plans.push_back(console);
  }
  if (regular_home) {
    for (auto& plan : plans) {
      plan.rate_sigma = 0.35;
      plan.duration_sigma = 0.35;
    }
  }
  // Sporadic guest devices: single visit window, no recurring pattern.
  const int n_guests = rng.Poisson(0.8);
  for (int g = 0; g < n_guests; ++g) {
    DevicePlan guest;
    guest.type = DeviceType::kPortable;
    guest.is_guest = true;
    const int day = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(n_days)));
    const int64_t visit_start = static_cast<int64_t>(day) * ts::kMinutesPerDay +
                                (14 + static_cast<int64_t>(rng.UniformInt(5))) *
                                    ts::kMinutesPerHour;
    guest.guest_begin = visit_start;
    guest.guest_end = std::min(
        horizon, visit_start + (2 + static_cast<int64_t>(rng.UniformInt(5))) *
                                   ts::kMinutesPerHour);
    plans.push_back(guest);
  }

  // --- Trace synthesis -----------------------------------------------------
  int device_index = 0;
  for (const DevicePlan& plan : plans) {
    Rng dev_rng = rng.Fork(static_cast<uint64_t>(device_index) + 101);
    DeviceTrace dev;
    dev.name = StrFormat("gw%03d-dev%d", gateway_id, device_index);
    dev.true_type = plan.type;
    dev.reported_type =
        CorruptLabel(&dev_rng, plan.type, config_.unlabeled_prob);
    const double background_base = BackgroundBase(&dev_rng, plan.type);
    const double out_ratio = dev_rng.Uniform(0.05, 0.20);
    // Direction split of background traffic; a small class of fixed devices
    // is upload-heavy (NAS/backup gear), which produces the large-τ outgoing
    // tail of Figure 4.
    double bg_in_share = dev_rng.Uniform(0.6, 0.9);
    double uploader_boost = 1.0;
    if (plan.type == DeviceType::kFixed && dev_rng.Bernoulli(0.07)) {
      bg_in_share = dev_rng.Uniform(0.15, 0.3);
      uploader_boost = 6.0;  // sync/backup chatter dwarfs normal idle traffic
    }

    std::vector<double> incoming(static_cast<size_t>(horizon),
                                 ts::TimeSeries::Missing());
    std::vector<double> outgoing(static_cast<size_t>(horizon),
                                 ts::TimeSeries::Missing());
    std::vector<double> active(static_cast<size_t>(horizon), 0.0);

    // Connection state per hour: fixed-type gear is always on; portables are
    // on when the driving resident is plausibly home, with random flapping
    // elsewhere (this keeps the connected-count/traffic correlation low, as
    // in Section 4.2c).
    const int64_t n_hours = horizon / ts::kMinutesPerHour;
    std::vector<bool> connected_hour(static_cast<size_t>(n_hours), true);
    if (plan.is_guest) {
      for (int64_t h = 0; h < n_hours; ++h) {
        const int64_t m = h * ts::kMinutesPerHour;
        connected_hour[static_cast<size_t>(h)] =
            m >= plan.guest_begin && m < plan.guest_end;
      }
    } else if (plan.type == DeviceType::kPortable && plan.resident >= 0) {
      const Resident& res = residents[static_cast<size_t>(plan.resident)];
      for (int64_t h = 0; h < n_hours; ++h) {
        const int64_t m = h * ts::kMinutesPerHour;
        const int hour_of_day =
            static_cast<int>(ts::MinuteOfDay(m) / ts::kMinutesPerHour);
        const bool home_hours = hour_of_day >= 17 || hour_of_day < 9 ||
                                ts::IsWeekend(ts::DayOfWeekAt(m));
        const bool profile_active = res.WeightAt(m) > 0.0;
        connected_hour[static_cast<size_t>(h)] =
            home_hours || profile_active || dev_rng.Bernoulli(0.25);
      }
    }

    // Hour-scale background bouts, independent across devices.
    std::vector<bool> chatty_hour(static_cast<size_t>(n_hours), true);
    {
      const double quiet_prob = RadioQuietHourProbability(plan.type);
      for (int64_t h = 0; h < n_hours; ++h) {
        chatty_hour[static_cast<size_t>(h)] = !dev_rng.Bernoulli(quiet_prob);
      }
    }

    // Active sessions (inhomogeneous Poisson arrivals).
    if (plan.resident >= 0 &&
        static_cast<size_t>(plan.resident) < residents.size()) {
      const Resident& res = residents[static_cast<size_t>(plan.resident)];
      for (int64_t m = 0; m < horizon; ++m) {
        const size_t hour = static_cast<size_t>(m / ts::kMinutesPerHour);
        if (!connected_hour[hour]) continue;
        const size_t week = static_cast<size_t>(m / ts::kMinutesPerWeek);
        const size_t day = static_cast<size_t>(m / ts::kMinutesPerDay);
        const double weight = res.WeightAt(m);
        if (weight <= 0.0) continue;
        const double p = weight * res.intensity * res.week_modulation[week] *
                         res.day_modulation[day] * plan.session_share / 60.0;
        if (!dev_rng.Bernoulli(std::min(p, 0.5))) continue;
        // Session: heavy-tailed duration and rate.
        const int64_t duration = std::min<int64_t>(
            240, 5 + static_cast<int64_t>(dev_rng.LogNormal(
                         std::log(20.0), plan.duration_sigma)));
        double rate = dev_rng.LogNormal(std::log(4.0e5), plan.rate_sigma);
        rate = std::min(rate, 2.4e7);
        const int64_t end = std::min(horizon, m + duration);
        for (int64_t t = m; t < end; ++t) {
          active[static_cast<size_t>(t)] +=
              rate * dev_rng.LogNormal(0.0, 0.35);
        }
      }
    } else if (plan.is_guest) {
      for (int64_t m = plan.guest_begin; m < plan.guest_end; ++m) {
        if (m < 0 || m >= horizon) continue;
        if (!dev_rng.Bernoulli(0.006)) continue;
        const int64_t duration = 3 + static_cast<int64_t>(dev_rng.UniformInt(12));
        const double rate = dev_rng.LogNormal(std::log(5.0e4), 1.0);
        const int64_t end = std::min(plan.guest_end, m + duration);
        for (int64_t t = m; t < end; ++t) {
          active[static_cast<size_t>(t)] +=
              rate * dev_rng.LogNormal(0.0, 0.35);
        }
      }
    }

    // Fill counters: background + active while connected and reported.
    for (int64_t m = 0; m < horizon; ++m) {
      if (!reported[static_cast<size_t>(m)]) continue;
      const size_t hour = static_cast<size_t>(m / ts::kMinutesPerHour);
      if (!connected_hour[hour]) continue;
      double background = 0.0;
      if (chatty_hour[hour] && !dev_rng.Bernoulli(0.2)) {
        background = background_base * dev_rng.LogNormal(0.0, 0.9);
      } else if (dev_rng.Bernoulli(0.05)) {
        // Keep-alive beacons even in quiet hours.
        background = 0.1 * background_base * dev_rng.LogNormal(0.0, 0.5);
      }
      if (dev_rng.Bernoulli(0.0008)) {  // occasional OS/app update burst
        background += dev_rng.LogNormal(std::log(3.0e5), 0.8);
      }
      const double act = active[static_cast<size_t>(m)];
      background *= uploader_boost;
      double in_bytes = background * bg_in_share + act;
      double out_bytes = background * (1.0 - bg_in_share) +
                         act * out_ratio * dev_rng.LogNormal(0.0, 0.25);
      in_bytes = std::min(in_bytes, kMaxPerMinuteBytes);
      out_bytes = std::min(out_bytes, kMaxPerMinuteBytes);
      incoming[static_cast<size_t>(m)] = in_bytes;
      outgoing[static_cast<size_t>(m)] = out_bytes;
    }

    dev.incoming = ts::TimeSeries(0, 1, std::move(incoming));
    dev.outgoing = ts::TimeSeries(0, 1, std::move(outgoing));
    gw.devices.push_back(std::move(dev));
    ++device_index;
  }
  return gw;
}

}  // namespace homets::simgen
