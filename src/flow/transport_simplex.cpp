#include "flow/transport_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"

namespace mecsc::flow {

namespace {

/// pred_ value of a node whose tree arc is its artificial root arc.
constexpr std::size_t kArtificial = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void TransportSimplex::reset(std::size_t num_sources, std::size_t num_sinks) {
  m_ = num_sources;
  n_ = num_sinks;
  root_ = m_ + n_;
  const std::size_t nodes = root_ + 1;
  cost_.assign(m_ * n_, 0.0);
  supply_.assign(nodes, 0.0);
  parent_.resize(nodes);
  pred_.resize(nodes);
  up_.resize(nodes);
  flow_.resize(nodes);
  depth_.resize(nodes);
  pi_.resize(nodes);
  stamp_.assign(nodes, 0);
  epoch_ = 0;
  stack_.reserve(nodes);
  next_arc_ = 0;
  fresh_ = true;
}

void TransportSimplex::set_supply(std::size_t u, double supply) {
  MECSC_CHECK(u < m_);
  MECSC_CHECK_MSG(std::isfinite(supply) && supply >= 0.0,
                  "supply must be finite and >= 0");
  MECSC_CHECK_MSG(fresh_, "supplies are fixed once a basis exists");
  supply_[u] = supply;
}

void TransportSimplex::set_demand(std::size_t j, double demand) {
  MECSC_CHECK(j < n_);
  MECSC_CHECK_MSG(std::isfinite(demand) && demand >= 0.0,
                  "demand must be finite and >= 0");
  MECSC_CHECK_MSG(fresh_, "demands are fixed once a basis exists");
  supply_[m_ + j] = demand;
}

double TransportSimplex::arc_cost(std::size_t node) const {
  const std::size_t a = pred_[node];
  if (a != kArtificial) return cost_[a];
  // Artificial arcs: node → root costs 0 (sources, empty sinks), and
  // root → sink costs the big-M that any real route undercuts.
  return up_[node] ? 0.0 : art_cost_;
}

void TransportSimplex::recompute_tree() {
  if (++epoch_ == 0) {  // stamp wrap-around: clear and restart
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  stamp_[root_] = epoch_;
  depth_[root_] = 0;
  pi_[root_] = 0.0;
  // Each node is finished once: walk up to the first finished ancestor,
  // then assign depth and potential back down the walked path
  // (tree arcs have zero reduced cost: c + π_tail − π_head = 0).
  for (std::size_t w = 0; w < root_; ++w) {
    if (stamp_[w] == epoch_) continue;
    stack_.clear();
    for (std::size_t x = w; stamp_[x] != epoch_; x = parent_[x]) {
      stack_.push_back(static_cast<std::uint32_t>(x));
    }
    while (!stack_.empty()) {
      const std::size_t x = stack_.back();
      stack_.pop_back();
      const std::size_t p = parent_[x];
      const double c = arc_cost(x);
      depth_[x] = depth_[p] + 1;
      pi_[x] = up_[x] ? pi_[p] - c : pi_[p] + c;
      stamp_[x] = epoch_;
    }
  }
}

bool TransportSimplex::find_entering(std::size_t& arc, std::size_t& priced) {
  // Block search: scan arcs cyclically from where the last search
  // stopped; after each block of block_ arcs, take the most negative
  // reduced cost seen so far, if any.
  const std::size_t num_arcs = m_ * n_;
  double best = -tol_;
  std::size_t best_arc = num_arcs;
  std::size_t u = next_arc_ / n_;
  std::size_t j = next_arc_ % n_;
  std::size_t left = block_;
  std::size_t scanned = 0;
  const double* pi_sink = &pi_[m_];
  while (scanned < num_arcs) {
    const double* row = &cost_[u * n_];
    const double pu = pi_[u];
    const std::size_t stop = std::min(n_, j + std::min(left, num_arcs - scanned));
    const std::size_t count = stop - j;
    for (; j < stop; ++j) {
      const double rc = row[j] + pu - pi_sink[j];
      if (rc < best) {
        best = rc;
        best_arc = u * n_ + j;
      }
    }
    scanned += count;
    left -= count;
    if (j == n_) {
      j = 0;
      if (++u == m_) u = 0;
    }
    if (left == 0) {
      if (best_arc != num_arcs) break;
      left = block_;
    }
  }
  priced += scanned;
  next_arc_ = u * n_ + j;
  if (best_arc == num_arcs) return false;
  arc = best_arc;
  return true;
}

void TransportSimplex::pivot(std::size_t arc) {
  const std::size_t tail = arc / n_;
  const std::size_t head = m_ + arc % n_;

  // Apex of the cycle the entering arc closes.
  std::size_t a = tail, b = head;
  while (a != b) {
    if (depth_[a] >= depth_[b]) a = parent_[a];
    if (depth_[b] > depth_[a]) b = parent_[b];
  }
  const std::size_t join = a;

  // Ratio test. Flow rises along tail → head, so the blocking arcs are
  // the tree arcs the cycle traverses backwards: up arcs on the tail
  // side (the cycle runs down to the tail), down arcs on the head side.
  // Strongly feasible ties: strict on the tail side, `<=` on the head
  // side, i.e. the last blocking arc met when walking the cycle from
  // the apex in flow direction.
  double delta = kInf;
  std::size_t out = root_;
  bool out_on_tail_side = false;
  for (std::size_t w = tail; w != join; w = parent_[w]) {
    if (up_[w] && flow_[w] < delta) {
      delta = flow_[w];
      out = w;
      out_on_tail_side = true;
    }
  }
  for (std::size_t w = head; w != join; w = parent_[w]) {
    if (!up_[w] && flow_[w] <= delta) {
      delta = flow_[w];
      out = w;
      out_on_tail_side = false;
    }
  }
  // Every cycle has a backward arc: the arc set (sources → sinks plus
  // the root arcs) is acyclic, so the problem is bounded.
  MECSC_CHECK_MSG(out != root_, "unbounded transportation cycle");

  if (delta > 0.0) {
    for (std::size_t w = tail; w != join; w = parent_[w]) {
      flow_[w] += up_[w] ? -delta : delta;
    }
    for (std::size_t w = head; w != join; w = parent_[w]) {
      flow_[w] += up_[w] ? delta : -delta;
    }
  }

  // Re-hang: the subtree cut off below the leaving arc hangs from the
  // entering arc; the tree path from the entering endpoint up to the
  // leaving arc's child end reverses (each node's old parent becomes
  // its child, carrying its arc and flow along).
  std::size_t x = out_on_tail_side ? tail : head;
  std::size_t new_parent = out_on_tail_side ? head : tail;
  std::size_t new_pred = arc;
  char new_up = out_on_tail_side ? 1 : 0;
  double new_flow = delta;
  for (;;) {
    const std::size_t old_parent = parent_[x];
    const std::size_t old_pred = pred_[x];
    const char old_up = up_[x];
    const double old_flow = flow_[x];
    parent_[x] = static_cast<std::uint32_t>(new_parent);
    pred_[x] = new_pred;
    up_[x] = new_up;
    flow_[x] = new_flow;
    if (x == out) break;
    new_parent = x;
    new_pred = old_pred;
    new_up = old_up ? 0 : 1;
    new_flow = old_flow;
    x = old_parent;
  }
  recompute_tree();
}

TransportResult TransportSimplex::solve(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& prime) {
  double max_abs = 0.0;
  bool finite = true;
  for (double c : cost_) {
    finite = finite && std::isfinite(c);
    max_abs = std::max(max_abs, std::fabs(c));
  }
  MECSC_CHECK_MSG(finite, "non-finite arc cost");
  const std::size_t nodes = root_ + 1;
  // Big-M: above the cost of any simple path, so every artificial
  // root → sink arc leaves the basis once a real route exists.
  art_cost_ = (max_abs + 1.0) * static_cast<double>(nodes);
  // Potentials reach ~art_cost_ while root arcs are basic; the
  // tolerance stays well above their rounding noise.
  tol_ = (max_abs + 1.0) *
         std::max(1e-11, 64.0 * std::numeric_limits<double>::epsilon() *
                             static_cast<double>(nodes));
  const std::size_t num_arcs = m_ * n_;
  block_ = std::max<std::size_t>(
      10, static_cast<std::size_t>(std::sqrt(static_cast<double>(num_arcs))));

  if (fresh_) {
    for (std::size_t w = 0; w < root_; ++w) {
      parent_[w] = static_cast<std::uint32_t>(root_);
      pred_[w] = kArtificial;
      // Sources ship to the root; sinks with demand are fed from it.
      // Zero-flow arcs point up, which makes the basis strongly feasible.
      up_[w] = (w < m_ || supply_[w] <= 0.0) ? 1 : 0;
      flow_[w] = supply_[w];
    }
    fresh_ = false;
  }
  recompute_tree();

  TransportResult res;
  for (auto [u, j] : prime) {
    MECSC_CHECK(u < m_ && j < n_);
    ++res.priced;
    if (reduced_cost(u, j) < -tol_) {
      pivot(static_cast<std::size_t>(u) * n_ + j);
      ++res.pivots;
    }
  }

  // Strongly feasible bases cannot cycle; the cap only turns a numerical
  // breakdown into an error instead of a hung decision.
  const std::size_t max_pivots = 1000 + 64 * (num_arcs + nodes);
  std::size_t arc = 0;
  while (num_arcs > 0 && find_entering(arc, res.priced)) {
    pivot(arc);
    if (++res.pivots > max_pivots) {
      throw common::NumericalError("network simplex exceeded its pivot cap");
    }
  }

  for_each_basic([&](std::size_t u, std::size_t j, double f) {
    res.cost += f * cost_[u * n_ + j];
  });
  MECSC_COUNT("mcf.solves", 1.0);
  MECSC_COUNT("mcf.augmentations", static_cast<double>(res.pivots));
  MECSC_COUNT("mcf.arcs_scanned", static_cast<double>(res.priced));
  return res;
}

}  // namespace mecsc::flow
