#ifndef MECSC_WORKLOAD_DEMAND_MODEL_H
#define MECSC_WORKLOAD_DEMAND_MODEL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "workload/request.h"

namespace mecsc::workload {

/// Generates the bursty component ρ_bursty(t) >= 0 of one request's
/// demand (paper §III.B: "such data volumes ... have a bursty pattern",
/// unknown in advance).
class DemandProcess {
 public:
  virtual ~DemandProcess() = default;

  /// Bursty demand for slot `t` (slots are sampled in increasing order).
  virtual double sample(std::size_t t, common::Rng& rng) = 0;
};

/// Zero bursty demand: ρ_l(t) == ρ_basic. This is the "given demands"
/// regime of §IV / Figs. 3-5.
class ConstantDemand final : public DemandProcess {
 public:
  double sample(std::size_t, common::Rng&) override { return 0.0; }
};

/// Two-state (on/off) Markov burst model: in the ON state the request
/// emits a Pareto-distributed burst on top of its basic demand; OFF emits
/// nothing. Sojourn times are geometric, giving the bursty, correlated
/// traffic of [24]/[40] cited by the paper.
class OnOffBurstDemand final : public DemandProcess {
 public:
  /// p_on: OFF->ON transition probability per slot; p_off: ON->OFF;
  /// burst_scale / burst_shape: Pareto x_m and alpha of the ON volume;
  /// cap: upper clamp keeping total demand inside station capacities.
  OnOffBurstDemand(double p_on, double p_off, double burst_scale,
                   double burst_shape, double cap);
  double sample(std::size_t t, common::Rng& rng) override;

  bool is_on() const noexcept { return on_; }
  /// Stationary ON probability of the chain.
  double stationary_on() const noexcept;

 private:
  double p_on_;
  double p_off_;
  double burst_scale_;
  double burst_shape_;
  double cap_;
  bool on_ = false;
};

/// Diurnal demand: a sinusoid over a 24-slot "day" plus Gaussian noise,
/// per-cluster phase-shifted so different hotspots peak at different
/// hours (what the NYC hotspot trace exhibits).
class DiurnalDemand final : public DemandProcess {
 public:
  DiurnalDemand(double amplitude, double period_slots, double phase,
                double noise_sigma);
  double sample(std::size_t t, common::Rng& rng) override;

 private:
  double amplitude_;
  double period_;
  double phase_;
  double noise_sigma_;
};

/// Shared schedule of cluster-level events ("a sudden event can easily
/// cause a lot of user demand", §I). All requests in an affected cluster
/// burst simultaneously while the event lasts.
class EventSchedule {
 public:
  /// Generates events over `horizon` slots for `num_clusters` clusters:
  /// each slot starts a new event with probability `event_prob` on a
  /// random cluster; events last `duration` slots and multiply demand by
  /// `boost`.
  EventSchedule(std::size_t num_clusters, std::size_t horizon,
                double event_prob, std::size_t duration, double boost,
                common::Rng& rng);

  /// Demand multiplier for a cluster at a slot: `boost` while an event
  /// covers it, 1 otherwise. Slots past the horizon read the last slot.
  double multiplier(std::size_t cluster, std::size_t t) const;

  std::size_t num_events() const noexcept { return num_events_; }

 private:
  std::size_t num_clusters_;
  std::size_t horizon_;
  double boost_;
  std::vector<std::uint8_t> active_;  // [cluster * horizon + slot]
  std::size_t num_events_ = 0;
};

/// Composite model: (diurnal + on/off burst) * event multiplier. This is
/// the default bursty workload for the unknown-demand experiments
/// (Figs. 6-7).
class CompositeDemand final : public DemandProcess {
 public:
  CompositeDemand(std::unique_ptr<DemandProcess> diurnal,
                  std::unique_ptr<DemandProcess> burst,
                  std::shared_ptr<const EventSchedule> events,
                  std::size_t cluster);
  double sample(std::size_t t, common::Rng& rng) override;

 private:
  std::unique_ptr<DemandProcess> diurnal_;
  std::unique_ptr<DemandProcess> burst_;
  std::shared_ptr<const EventSchedule> events_;
  std::size_t cluster_;
};

/// Caps the *total* demand (basic + bursty) of a request at `cap` by
/// clamping the bursty part to cap - basic. Keeps even extreme event ×
/// burst coincidences inside the largest station's capacity, preserving
/// the paper's feasibility assumption (§III.E).
class CappedDemand final : public DemandProcess {
 public:
  CappedDemand(std::unique_ptr<DemandProcess> inner, double basic, double cap);
  double sample(std::size_t t, common::Rng& rng) override;

 private:
  std::unique_ptr<DemandProcess> inner_;
  double max_bursty_;
};

/// Realised demand of every request over a horizon: demand[l][t] is the
/// *total* ρ_l(t) = ρ_basic + bursty part. Precomputing the matrix keeps
/// all algorithms compared on identical sample paths.
class DemandMatrix {
 public:
  DemandMatrix(std::size_t num_requests, std::size_t horizon);

  double at(std::size_t request, std::size_t t) const;
  void set(std::size_t request, std::size_t t, double value);

  std::size_t num_requests() const noexcept { return n_; }
  std::size_t horizon() const noexcept { return horizon_; }

  /// Column for one slot: ρ_l(t) for all l.
  std::vector<double> slot(std::size_t t) const;
  /// Row for one request: its full demand series.
  std::vector<double> series(std::size_t request) const;

  double max_value() const;

 private:
  std::size_t n_;
  std::size_t horizon_;
  std::vector<double> data_;  // row-major [request][slot]
};

/// Per-slot column sums of a demand matrix and its largest entry. Each
/// sum adds the requests in index order, so it is bit-identical however
/// the matrix was walked to build it.
struct SlotTotals {
  /// sum[t] = Σ_l ρ_l(t).
  std::vector<double> sum;
  /// max over l, t of ρ_l(t).
  double max_single = 0.0;

  /// First slot with the largest sum.
  std::size_t worst_slot() const;
};

/// Row-major scan of `m` into its SlotTotals.
SlotTotals slot_totals(const DemandMatrix& m);

/// Realises every request's total demand ρ_basic + process sample,
/// clamped to >= 0, in request-major order: request l draws its
/// `history` slots (skipped when null) and then its `run` slots before
/// request l + 1 draws any. When `run_totals` is non-null it receives the
/// SlotTotals of `run`, accumulated as the values are drawn.
void realize_demands_into(const std::vector<Request>& requests,
                          std::vector<std::unique_ptr<DemandProcess>>& processes,
                          common::Rng& rng, DemandMatrix* history,
                          DemandMatrix& run, SlotTotals* run_totals = nullptr);

/// Materialises a `horizon`-slot demand matrix (realize_demands_into
/// with no history).
DemandMatrix realize_demands(const std::vector<Request>& requests,
                             std::vector<std::unique_ptr<DemandProcess>>& processes,
                             std::size_t horizon, common::Rng& rng);

}  // namespace mecsc::workload

#endif  // MECSC_WORKLOAD_DEMAND_MODEL_H
