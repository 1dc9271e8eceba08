#include "hw/hardware_model.hpp"

#include <algorithm>

namespace autogemm::hw {

double HardwareModel::scaling_speedup(int threads) const {
  threads = std::clamp(threads, 1, topology.cores);
  if (threads == 1) return 1.0;
  // Amdahl-style model: each additional thread adds a small serial
  // synchronization cost, and each additional NUMA/CMG group adds a larger
  // one (remote traffic over the interconnect, e.g. the A64FX ring bus).
  const int groups =
      (threads + topology.cores_per_group - 1) / topology.cores_per_group;
  const double serial = topology.sync_overhead_frac * (threads - 1) +
                        topology.cross_group_penalty * (groups - 1);
  return threads / (1.0 + serial);
}

}  // namespace autogemm::hw
