#include "workload/demand_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsc::workload {

OnOffBurstDemand::OnOffBurstDemand(double p_on, double p_off, double burst_scale,
                                   double burst_shape, double cap)
    : p_on_(p_on), p_off_(p_off), burst_scale_(burst_scale),
      burst_shape_(burst_shape), cap_(cap) {
  MECSC_CHECK_MSG(0.0 <= p_on && p_on <= 1.0, "p_on out of [0,1]");
  MECSC_CHECK_MSG(0.0 <= p_off && p_off <= 1.0, "p_off out of [0,1]");
  MECSC_CHECK_MSG(burst_scale > 0.0 && burst_shape > 0.0, "Pareto params must be > 0");
  MECSC_CHECK_MSG(cap > 0.0, "cap must be > 0");
}

double OnOffBurstDemand::sample(std::size_t, common::Rng& rng) {
  if (on_) {
    if (rng.bernoulli(p_off_)) on_ = false;
  } else {
    if (rng.bernoulli(p_on_)) on_ = true;
  }
  if (!on_) return 0.0;
  return std::min(cap_, rng.pareto(burst_scale_, burst_shape_));
}

double OnOffBurstDemand::stationary_on() const noexcept {
  double denom = p_on_ + p_off_;
  return denom > 0.0 ? p_on_ / denom : 0.0;
}

DiurnalDemand::DiurnalDemand(double amplitude, double period_slots, double phase,
                             double noise_sigma)
    : amplitude_(amplitude), period_(period_slots), phase_(phase),
      noise_sigma_(noise_sigma) {
  MECSC_CHECK_MSG(amplitude >= 0.0, "negative amplitude");
  MECSC_CHECK_MSG(period_slots > 0.0, "period must be > 0");
  MECSC_CHECK_MSG(noise_sigma >= 0.0, "negative noise sigma");
}

double DiurnalDemand::sample(std::size_t t, common::Rng& rng) {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  double base = amplitude_ * 0.5 *
                (1.0 + std::sin(kTwoPi * static_cast<double>(t) / period_ + phase_));
  double v = base + rng.normal(0.0, noise_sigma_);
  return std::max(0.0, v);
}

EventSchedule::EventSchedule(std::size_t num_clusters, std::size_t horizon,
                             double event_prob, std::size_t duration,
                             double boost, common::Rng& rng)
    : num_clusters_(num_clusters), horizon_(horizon), boost_(boost),
      active_(num_clusters * horizon, 0) {
  MECSC_CHECK_MSG(num_clusters > 0, "need at least one cluster");
  MECSC_CHECK_MSG(0.0 <= event_prob && event_prob <= 1.0, "event prob out of [0,1]");
  MECSC_CHECK_MSG(boost >= 1.0, "boost must be >= 1");
  for (std::size_t t = 0; t < horizon; ++t) {
    if (!rng.bernoulli(event_prob)) continue;
    std::size_t cluster = rng.index(num_clusters);
    ++num_events_;
    for (std::size_t d = 0; d < duration && t + d < horizon; ++d) {
      active_[cluster * horizon + t + d] = 1;
    }
  }
}

double EventSchedule::multiplier(std::size_t cluster, std::size_t t) const {
  MECSC_CHECK(cluster < num_clusters_);
  if (horizon_ == 0) return 1.0;
  if (t >= horizon_) t = horizon_ - 1;
  return active_[cluster * horizon_ + t] != 0 ? boost_ : 1.0;
}

CompositeDemand::CompositeDemand(std::unique_ptr<DemandProcess> diurnal,
                                 std::unique_ptr<DemandProcess> burst,
                                 std::shared_ptr<const EventSchedule> events,
                                 std::size_t cluster)
    : diurnal_(std::move(diurnal)), burst_(std::move(burst)),
      events_(std::move(events)), cluster_(cluster) {
  MECSC_CHECK_MSG(diurnal_ && burst_, "null component process");
}

double CompositeDemand::sample(std::size_t t, common::Rng& rng) {
  double v = diurnal_->sample(t, rng) + burst_->sample(t, rng);
  if (events_) v *= events_->multiplier(cluster_, t);
  return v;
}

CappedDemand::CappedDemand(std::unique_ptr<DemandProcess> inner, double basic,
                           double cap)
    : inner_(std::move(inner)), max_bursty_(cap - basic) {
  MECSC_CHECK_MSG(inner_ != nullptr, "null inner process");
  MECSC_CHECK_MSG(max_bursty_ >= 0.0, "cap below the basic demand");
}

double CappedDemand::sample(std::size_t t, common::Rng& rng) {
  return std::min(max_bursty_, inner_->sample(t, rng));
}

DemandMatrix::DemandMatrix(std::size_t num_requests, std::size_t horizon)
    : n_(num_requests), horizon_(horizon), data_(num_requests * horizon, 0.0) {
  MECSC_CHECK_MSG(num_requests > 0 && horizon > 0, "empty demand matrix");
}

double DemandMatrix::at(std::size_t request, std::size_t t) const {
  MECSC_CHECK(request < n_ && t < horizon_);
  return data_[request * horizon_ + t];
}

void DemandMatrix::set(std::size_t request, std::size_t t, double value) {
  MECSC_CHECK(request < n_ && t < horizon_);
  MECSC_CHECK_MSG(value >= 0.0, "demand must be non-negative");
  data_[request * horizon_ + t] = value;
}

std::vector<double> DemandMatrix::slot(std::size_t t) const {
  MECSC_CHECK(t < horizon_);
  std::vector<double> col(n_);
  for (std::size_t l = 0; l < n_; ++l) col[l] = data_[l * horizon_ + t];
  return col;
}

std::vector<double> DemandMatrix::series(std::size_t request) const {
  MECSC_CHECK(request < n_);
  return {data_.begin() + static_cast<std::ptrdiff_t>(request * horizon_),
          data_.begin() + static_cast<std::ptrdiff_t>((request + 1) * horizon_)};
}

double DemandMatrix::max_value() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, v);
  return m;
}

std::size_t SlotTotals::worst_slot() const {
  std::size_t worst_t = 0;
  double worst = -1.0;
  for (std::size_t t = 0; t < sum.size(); ++t) {
    if (sum[t] > worst) {
      worst = sum[t];
      worst_t = t;
    }
  }
  return worst_t;
}

SlotTotals slot_totals(const DemandMatrix& m) {
  SlotTotals totals;
  totals.sum.assign(m.horizon(), 0.0);
  for (std::size_t l = 0; l < m.num_requests(); ++l) {
    for (std::size_t t = 0; t < m.horizon(); ++t) {
      const double d = m.at(l, t);
      totals.sum[t] += d;
      totals.max_single = std::max(totals.max_single, d);
    }
  }
  return totals;
}

void realize_demands_into(const std::vector<Request>& requests,
                          std::vector<std::unique_ptr<DemandProcess>>& processes,
                          common::Rng& rng, DemandMatrix* history,
                          DemandMatrix& run, SlotTotals* run_totals) {
  MECSC_CHECK_MSG(requests.size() == processes.size(),
                  "one demand process per request required");
  MECSC_CHECK_MSG(run.num_requests() == requests.size(),
                  "demand matrix / request count mismatch");
  MECSC_CHECK_MSG(history == nullptr || history->num_requests() == requests.size(),
                  "history matrix / request count mismatch");
  const std::size_t hist_len = history != nullptr ? history->horizon() : 0;
  if (run_totals != nullptr) {
    *run_totals = SlotTotals{};
    run_totals->sum.assign(run.horizon(), 0.0);
  }
  for (std::size_t l = 0; l < requests.size(); ++l) {
    for (std::size_t t = 0; t < hist_len + run.horizon(); ++t) {
      const double d =
          std::max(0.0, requests[l].basic_demand + processes[l]->sample(t, rng));
      if (t < hist_len) {
        history->set(l, t, d);
        continue;
      }
      run.set(l, t - hist_len, d);
      if (run_totals != nullptr) {
        run_totals->sum[t - hist_len] += d;
        run_totals->max_single = std::max(run_totals->max_single, d);
      }
    }
  }
}

DemandMatrix realize_demands(const std::vector<Request>& requests,
                             std::vector<std::unique_ptr<DemandProcess>>& processes,
                             std::size_t horizon, common::Rng& rng) {
  DemandMatrix m(requests.size(), horizon);
  realize_demands_into(requests, processes, rng, nullptr, m);
  return m;
}

}  // namespace mecsc::workload
