// Network planning with the low-level API.
//
// An operator wants to know how many femtocells a macro cell needs
// before the average service delay stops improving. Instead of the
// Scenario convenience wrapper, this example builds the topology, the
// workload and the problem instance by hand — the API a downstream user
// would embed in their own planning tool.
//
// Run: ./build/examples/network_planning
#include <iostream>
#include <memory>

#include "algorithms/ol_gd.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/problem.h"
#include "net/delay_process.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "workload/trace.h"

using namespace mecsc;

namespace {

/// One macro cell at the origin with `n_femto` femtocells scattered in
/// its coverage disk, star-wired to the macro.
net::Topology build_cell(std::size_t n_femto, common::Rng& rng) {
  std::vector<net::BaseStation> stations;
  net::BaseStation macro;
  macro.id = 0;
  macro.tier = net::Tier::kMacro;
  net::TierProfile mp = net::tier_profile(net::Tier::kMacro);
  macro.radius_m = mp.radius_m;
  macro.capacity_mhz = rng.uniform(mp.capacity_lo_mhz, mp.capacity_hi_mhz);
  macro.bandwidth_mbps = rng.uniform(mp.bandwidth_lo_mbps, mp.bandwidth_hi_mbps);
  macro.transmit_power_w = mp.transmit_power_w;
  macro.mean_unit_delay_ms = rng.uniform(mp.delay_lo_ms, mp.delay_hi_ms);
  stations.push_back(macro);

  net::TierProfile fp = net::tier_profile(net::Tier::kFemto);
  for (std::size_t f = 0; f < n_femto; ++f) {
    net::BaseStation femto;
    femto.id = 1 + f;
    femto.tier = net::Tier::kFemto;
    femto.radius_m = fp.radius_m;
    femto.capacity_mhz = rng.uniform(fp.capacity_lo_mhz, fp.capacity_hi_mhz);
    femto.bandwidth_mbps = rng.uniform(fp.bandwidth_lo_mbps, fp.bandwidth_hi_mbps);
    femto.transmit_power_w = fp.transmit_power_w;
    femto.mean_unit_delay_ms = rng.uniform(fp.delay_lo_ms, fp.delay_hi_ms);
    double angle = rng.uniform(0.0, 6.28318);
    double r = 100.0 * std::sqrt(rng.uniform());
    femto.x_m = r * std::cos(angle);
    femto.y_m = r * std::sin(angle);
    stations.push_back(femto);
  }
  net::Topology topo(std::move(stations));
  for (std::size_t f = 1; f <= n_femto; ++f) {
    topo.add_link(net::Link{0, f, rng.uniform(0.5, 2.0), 500.0, false});
  }
  return topo;
}

}  // namespace

int main() {
  const std::size_t kRequests = 40;
  const std::size_t kSlots = 50;

  common::Table table({"femtocells", "mean delay (ms)", "steady-state (ms)"});
  for (std::size_t n_femto : {4, 8, 16, 32}) {
    common::Rng rng(100 + n_femto);
    net::Topology topo = build_cell(n_femto, rng);

    workload::WorkloadParams wp;
    wp.num_requests = kRequests;
    wp.num_services = 6;
    workload::Workload w = workload::make_workload(topo, wp, rng, false);

    core::ProblemOptions po;
    // One macro + a handful of femtos is a small cell: scale the per-unit
    // resource demand down so even the 4-femto point is feasible.
    po.c_unit_mhz = 15.0;
    core::CachingProblem problem(&topo, w.services, w.requests, po, rng);

    workload::DemandMatrix demands =
        workload::realize_demands(w.requests, w.processes, kSlots, rng);

    net::NetworkDelayModel delays =
        net::make_delay_model(topo, net::DelayModelKind::kUniform, rng);
    sim::Simulator simulator(problem, &demands, std::move(delays), rng);
    algorithms::OlOptions opt;
    auto algo = algorithms::make_ol_gd(problem, demands, opt, 9);
    sim::RunResult r = simulator.run(*algo);
    table.add_row_values({static_cast<double>(n_femto), r.mean_delay_ms(),
                          r.tail_mean_delay_ms(20)},
                         2);
  }
  std::cout << "Average request delay as femtocells are added to one macro "
               "cell (OL_GD policy):\n"
            << table.to_string()
            << "\nReturns diminish once femto capacity covers the demand — "
               "the knee is where provisioning should stop.\n";
  return 0;
}
