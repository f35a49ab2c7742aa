#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "core/qos.h"
#include "core/scheme.h"
#include "net/topology.h"
#include "phy/geometry.h"
#include "spectrum/spectrum_manager.h"
#include "util/rng.h"
#include "util/timer.h"
#include "video/mgs_model.h"
#include "video/session.h"

namespace perfbench {

namespace core = femtocr::core;
namespace net = femtocr::net;
namespace phy = femtocr::phy;
namespace sim = femtocr::sim;
namespace util = femtocr::util;
namespace video = femtocr::video;

namespace {

/// In-memory span recorder. Spans nest strictly (the replay is serial), so
/// the open span is the parent of the next one.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer)
        : tracer_(tracer.on_ ? &tracer : nullptr) {
      if (tracer_ == nullptr) return;
      index_ = static_cast<std::int32_t>(tracer_->spans_.size());
      tracer_->spans_.push_back({layer, tracer_->open_, tracer_->slot_,
                                 util::monotonic_now_ns(), 0});
      tracer_->open_ = index_;
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
      s.end_ns = util::monotonic_now_ns();
      tracer_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  void set_slot(std::size_t t) { slot_ = static_cast<std::uint32_t>(t); }
  void reserve(std::size_t n) {
    if (on_) spans_.reserve(n);
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  std::int32_t open_ = -1;
  std::uint32_t slot_ = 0;
  std::vector<Span> spans_;
};

struct Session {
  video::VideoSession video;
  std::size_t depart_slot;
};

constexpr std::size_t kNeverDeparts = static_cast<std::size_t>(-1);

// The two samplers below are the engine's (sim/engine.cpp), draw for draw.
std::size_t sample_poisson(double mean, util::Rng& rng) {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

std::size_t sample_lifetime(double mean_slots, util::Rng& rng) {
  const double draw = rng.exponential(std::max(mean_slots, 1e-9));
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(draw)));
}

/// The replayed engine state: one instance per replay() call.
class Replay {
 public:
  Replay(const sim::Scenario& scenario, const sim::EngineConfig& config,
         bool traced)
      : s_(scenario),
        config_(config),
        tracer_(traced),
        topology_(s_.mbs, s_.fbss, s_.users, s_.radio, s_.graph),
        scheme_(core::make_scheme(core::SchemeKind::kProposed, s_.dual,
                                  s_.use_distributed_solver)),
        rng_(util::Rng(s_.seed).split(0x5151).seed()),
        clock_(s_.gop_deadline) {
    tracer_.reserve(config_.slots * 8);
    for (const auto& u : topology_.users()) {
      sessions_.push_back(
          {video::VideoSession(video::sequence(u.video_name), clock_),
           kNeverDeparts});
    }
  }

  ReplayResult run();

 private:
  /// Runs one topology mutation inside a net span, counting the event and
  /// whether it moved the active graph's structural version.
  template <typename Fn>
  auto mutate(Fn&& fn) {
    const std::uint64_t before = topology_.active_graph().version();
    const Tracer::Scope span(tracer_, Layer::kNet);
    ++out_.net_events;
    auto result = fn();
    if (topology_.active_graph().version() != before) ++out_.graph_changes;
    return result;
  }

  void move_sessions(util::Rng& rng);
  bool admit(std::size_t t, phy::Point position, const std::string& name,
             double expected_channels);
  void process_departures(std::size_t t);
  void run_arrivals(std::size_t t, double expected_channels,
                    util::Rng& churn_rng);
  core::SlotContext make_context(const femtocr::spectrum::SlotObservation& obs,
                                 util::Rng& fading_rng) const;

  const sim::Scenario& s_;
  const sim::EngineConfig& config_;
  Tracer tracer_;
  net::Topology topology_;
  std::unique_ptr<core::Scheme> scheme_;
  util::Rng rng_;
  video::GopClock clock_;
  std::vector<Session> sessions_;
  std::size_t next_video_ = 0;
  ReplayResult out_;
};

void Replay::move_sessions(util::Rng& rng) {
  double min_x = s_.mbs.position.x, max_x = min_x;
  double min_y = s_.mbs.position.y, max_y = min_y;
  for (const auto& f : s_.fbss) {
    min_x = std::min(min_x, f.position.x - f.coverage_radius);
    max_x = std::max(max_x, f.position.x + f.coverage_radius);
    min_y = std::min(min_y, f.position.y - f.coverage_radius);
    max_y = std::max(max_y, f.position.y + f.coverage_radius);
  }
  const double m = s_.mobility.margin;
  for (std::size_t j = 0; j < topology_.num_users(); ++j) {
    phy::Point p = topology_.user(j).position;
    p.x = std::clamp(p.x + rng.normal(0.0, s_.mobility.step_stddev),
                     min_x - m, max_x + m);
    p.y = std::clamp(p.y + rng.normal(0.0, s_.mobility.step_stddev),
                     min_y - m, max_y + m);
    if (mutate([&] { return topology_.move_user(j, p); })) {
      ++out_.report.handoffs;
    }
  }
}

bool Replay::admit(std::size_t t, phy::Point position, const std::string& name,
                   double expected_channels) {
  const std::size_t cell = topology_.nearest_fbs(position);
  if (topology_.users_of(cell).size() >= config_.churn.max_sessions_per_fbs) {
    ++out_.report.rejected_capacity;
    return false;
  }
  if (config_.churn.admission_min_psnr <= 0.0) return true;

  const Tracer::Scope span(tracer_, Layer::kAdmission);
  ++out_.probes;
  core::SlotContext probe;
  const net::InterferenceGraph probe_graph(1);
  probe.num_fbs = 1;
  probe.graph = &probe_graph;
  probe.sinr_threshold = s_.radio.sinr_threshold;
  const auto push_user = [&](double psnr, const phy::Link& mbs_link,
                             const phy::Link& fbs_link, double rate_common,
                             double rate_licensed) {
    core::UserState u;
    u.psnr = psnr;
    u.set_link_success(mbs_link.success_probability(),
                       fbs_link.success_probability());
    u.rate_mbs = rate_common;
    u.rate_fbs = rate_licensed;
    u.fbs = 0;
    probe.users.push_back(u);
  };
  for (const std::size_t j : topology_.users_of(cell)) {
    push_user(sessions_[j].video.current_psnr(), topology_.mbs_link(j),
              topology_.fbs_link(j),
              sessions_[j].video.rate_constant(s_.common_bandwidth),
              sessions_[j].video.rate_constant(s_.licensed_bandwidth));
  }
  const video::VideoSession candidate(video::sequence(name), clock_);
  const phy::Link cand_mbs(s_.mbs.position, position, s_.radio.mbs_pathloss,
                           s_.radio.sinr_threshold);
  const phy::Link cand_fbs(topology_.fbs(cell).position, position,
                           s_.radio.fbs_pathloss, s_.radio.sinr_threshold);
  push_user(candidate.current_psnr(), cand_mbs, cand_fbs,
            candidate.rate_constant(s_.common_bandwidth),
            candidate.rate_constant(s_.licensed_bandwidth));

  const std::vector<double> gt{expected_channels};
  const std::vector<double> floors(probe.users.size(),
                                   config_.churn.admission_min_psnr);
  const std::size_t slots_remaining =
      s_.gop_deadline - (t % s_.gop_deadline);
  if (!core::qos_solve(probe, gt, floors, slots_remaining).floors_met) {
    ++out_.report.rejected_qos;
    return false;
  }
  return true;
}

void Replay::process_departures(std::size_t t) {
  for (std::size_t j = sessions_.size(); j-- > 0;) {
    if (sessions_[j].depart_slot > t) continue;
    mutate([&] { return topology_.remove_user(j); });
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(j));
    ++out_.report.departures;
  }
}

void Replay::run_arrivals(std::size_t t, double expected_channels,
                          util::Rng& churn_rng) {
  const auto& catalogue = video::standard_catalogue();
  const std::size_t offered =
      sample_poisson(config_.churn.arrival_rate, churn_rng);
  for (std::size_t a = 0; a < offered; ++a) {
    ++out_.report.arrivals;
    const std::size_t cell = churn_rng.index(topology_.num_fbs());
    const phy::Point position =
        phy::random_in_disk(topology_.fbs(cell).coverage(), churn_rng);
    const std::string& name = catalogue[next_video_ % catalogue.size()].name;
    ++next_video_;
    const std::size_t lifetime =
        sample_lifetime(config_.churn.mean_lifetime_slots, churn_rng);
    if (!admit(t, position, name, expected_channels)) continue;
    net::CrUser user;
    user.position = position;
    user.video_name = name;
    mutate([&] { return topology_.add_user(user); });
    sessions_.push_back(
        {video::VideoSession(video::sequence(name), clock_), t + lifetime});
    ++out_.report.admitted;
  }
}

core::SlotContext Replay::make_context(
    const femtocr::spectrum::SlotObservation& obs,
    util::Rng& fading_rng) const {
  core::SlotContext ctx;
  ctx.num_fbs = topology_.num_fbs();
  ctx.graph = &topology_.active_graph();
  ctx.sinr_threshold = s_.radio.sinr_threshold;
  for (std::size_t m : obs.available) {
    ctx.available.push_back(m);
    ctx.posterior.push_back(obs.posteriors[m]);
  }
  ctx.users.reserve(topology_.num_users());
  for (std::size_t j = 0; j < topology_.num_users(); ++j) {
    core::UserState u;
    u.psnr = sessions_[j].video.current_psnr();
    u.set_link_success(topology_.mbs_link(j).success_probability(),
                       topology_.fbs_link(j).success_probability());
    u.rate_mbs = sessions_[j].video.rate_constant(s_.common_bandwidth);
    u.rate_fbs = sessions_[j].video.rate_constant(s_.licensed_bandwidth);
    u.fbs = topology_.user(j).fbs;
    u.sinr_mbs = topology_.mbs_link(j).draw_sinr(fading_rng);
    u.sinr_fbs = topology_.fbs_link(j).draw_sinr(fading_rng);
    ctx.users.push_back(u);
  }
  return ctx;
}

ReplayResult Replay::run() {
  const std::int64_t begin_ns = util::monotonic_now_ns();
  util::Rng spectrum_rng = rng_.split(0xA1);
  util::Rng fading_rng = rng_.split(0xB2);
  util::Rng mobility_rng = rng_.split(0xC3);
  util::Rng churn_rng = rng_.split(0xD4);
  femtocr::spectrum::SpectrumManager spectrum(s_.spectrum, spectrum_rng);

  const double H = s_.radio.sinr_threshold;
  const std::size_t T = s_.gop_deadline;
  sim::EngineReport& report = out_.report;
  report.slots = config_.slots;
  double psnr_sum = 0.0;

  if (config_.churn.enabled()) {
    for (auto& s : sessions_) {
      s.depart_slot =
          sample_lifetime(config_.churn.mean_lifetime_slots, churn_rng);
    }
  }

  std::uint64_t seen_version = topology_.active_graph().version();
  std::size_t graph_components = topology_.active_graph().components().size();

  for (std::size_t t = 0; t < config_.slots; ++t) {
    tracer_.set_slot(t);
    const Tracer::Scope slot_span(tracer_, Layer::kSlot);

    if (s_.mobility.step_stddev > 0.0 && t > 0 && t % T == 0) {
      move_sessions(mobility_rng);
    }

    femtocr::spectrum::SlotObservation obs;
    {
      const Tracer::Scope span(tracer_, Layer::kSpectrum);
      obs = spectrum.observe_slot(t, spectrum_rng);
    }

    if (config_.churn.enabled()) {
      process_departures(t);
      run_arrivals(t, obs.expected_available, churn_rng);
    }

    if (topology_.active_graph().version() != seen_version) {
      seen_version = topology_.active_graph().version();
      graph_components = topology_.active_graph().components().size();
    }
    report.max_components = std::max(report.max_components, graph_components);
    report.peak_sessions = std::max(report.peak_sessions, sessions_.size());

    if (sessions_.empty()) {
      ++report.idle_slots;
      continue;
    }

    core::SlotContext ctx;
    {
      const Tracer::Scope span(tracer_, Layer::kContext);
      for (auto& s : sessions_) s.video.begin_slot(t);
      ctx = make_context(obs, fading_rng);
    }
    core::SlotAllocation alloc;
    {
      const Tracer::Scope span(tracer_, Layer::kAllocate);
      alloc = scheme_->allocate(ctx);
    }
    ++out_.decisions;
    if (!std::isfinite(alloc.objective) || !alloc.feasible(ctx)) {
      ++out_.infeasible;
    }
    report.total_dual_iterations += alloc.dual_iterations;

    const Tracer::Scope span(tracer_, Layer::kDeliver);
    for (std::size_t j = 0; j < sessions_.size(); ++j) {
      const core::UserState& u = ctx.users[j];
      double increment = 0.0;
      if (alloc.use_mbs[j]) {
        if (u.sinr_mbs > H) increment = alloc.rho_mbs[j] * u.rate_mbs;
      } else if (u.sinr_fbs > H) {
        increment =
            alloc.rho_fbs[j] * alloc.effective_channels(ctx, j) * u.rate_fbs;
      }
      sessions_[j].video.deliver(increment);
      sessions_[j].video.end_slot(t);
    }
    if ((t + 1) % T == 0) {
      for (const auto& s : sessions_) {
        psnr_sum += s.video.gop_history().back();
        ++report.completed_gops;
      }
    }
  }

  if (report.completed_gops > 0) {
    report.mean_psnr = psnr_sum / static_cast<double>(report.completed_gops);
  }
  out_.wall_s =
      static_cast<double>(util::monotonic_now_ns() - begin_ns) * 1e-9;
  out_.spans = tracer_.take();
  return std::move(out_);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSlot: return "sim.slot";
    case Layer::kSpectrum: return "spectrum.observe";
    case Layer::kNet: return "net.mutate";
    case Layer::kAdmission: return "admission.probe";
    case Layer::kContext: return "context.build";
    case Layer::kAllocate: return "core.allocate";
    case Layer::kDeliver: return "video.deliver";
  }
  return "unknown";
}

ReplayResult replay(const sim::Scenario& scenario,
                    const sim::EngineConfig& config, bool traced) {
  return Replay(scenario, config, traced).run();
}

std::vector<LayerTime> fold_layers(const std::vector<Span>& spans) {
  std::vector<LayerTime> layers(kNumLayers);
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t d = spans[i].end_ns - spans[i].begin_ns;
    if (spans[i].parent >= 0) {
      child_ns[static_cast<std::size_t>(spans[i].parent)] += d;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t d = spans[i].end_ns - spans[i].begin_ns;
    LayerTime& l = layers[static_cast<std::size_t>(spans[i].layer)];
    l.total_ns += d;
    l.self_ns += d - child_ns[i];
    ++l.count;
  }
  return layers;
}

void write_trace(std::ostream& out, const std::vector<Span>& spans) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << layer_name(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.begin_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) * 1e-3
        << ",\"args\":{\"slot\":" << s.slot << ",\"id\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
